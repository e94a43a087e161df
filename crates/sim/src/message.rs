//! In-flight message state: the wormhole chain, stored arena-style.
//!
//! A wormhole message stretches over a *chain* of resources: the injection
//! port of its source, then one virtual channel per network hop, then the
//! ejection stage at its destination.  Because a virtual channel only ever
//! buffers flits of the one message it is allocated to, the full flit state
//! compresses into, per chain stage, the count of flits that have crossed
//! that stage's channel so far.
//!
//! Message state lives in a [`MessageArena`]: one flat `Vec` per field
//! (struct-of-arrays), indexed by [`MsgId`], with chains packed into a
//! single shared `Vec<ChainStage>` at a fixed stride (the topology's
//! longest possible route).  Inserting a message never allocates once the
//! arena has grown to the peak population — slots are recycled through a
//! free list — and the per-field layout keeps the simulator's hot loops on
//! dense, cache-friendly arrays instead of chasing per-message heap
//! allocations.

use kncube_topology::NodeId;
use kncube_traffic::MessageClass;

/// Index of a message in the simulator's arena.
pub type MsgId = u32;

/// Sentinel for "no message" in VC holders and intrusive queue links.
pub(crate) const NO_MSG: MsgId = MsgId::MAX;

/// [`MessageArena::stream_start`], [`MessageArena::drain_start`] and
/// [`MessageArena::delivered_at`] of a worm on the per-flit path.
pub(crate) const PER_FLIT: u64 = u64::MAX;

/// One stage of a message's resource chain: a (channel, virtual channel)
/// pair, identified by the simulator's flat port indexing.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ChainStage {
    /// Flat channel index (network channels, then injection ports).
    pub port: u32,
    /// Virtual-channel index within the port.
    pub vc: u32,
    /// Flits that have crossed this stage's channel so far (`<= length`).
    pub entered: u32,
}

/// Where the header currently is / what it waits for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HeadState {
    /// Waiting in the per-(port, class) allocation queue for a virtual
    /// channel on `port`.
    WaitingFor {
        /// The port whose allocation queue the header sits in.
        port: u32,
    },
    /// A virtual channel on the next port is allocated; the header has not
    /// yet crossed into its buffer.
    Crossing,
    /// Header sits in the buffer of the last chain stage, which is at the
    /// destination; the message is draining into the PE.
    Ejecting,
    /// All flits delivered (terminal state, message about to be retired).
    Done,
}

/// Parameters of a freshly generated message, before it enters the arena.
#[derive(Clone, Copy, Debug)]
pub struct NewMessage {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Regular or hot-spot (statistics bucket).
    pub class: MessageClass,
    /// Length in flits.
    pub length: u32,
    /// Cycle the message was generated (entered the source queue).
    pub birth: u64,
    /// Whether the message was born after warm-up (is measured).
    pub measured: bool,
}

/// Struct-of-arrays storage for every in-flight message.
///
/// All per-message fields are parallel `Vec`s indexed by [`MsgId`]; chain
/// stages are packed into one shared arena at stride `max_chain` (the
/// longest route the topology admits, plus the injection stage).  Slots are
/// recycled through a free list, so steady-state insertion is allocation
/// free.
#[derive(Debug)]
pub struct MessageArena {
    /// Chain stride: the longest possible chain (injection stage + one
    /// stage per network hop of the longest route).
    pub(crate) max_chain: u32,
    pub(crate) src: Vec<NodeId>,
    pub(crate) dest: Vec<NodeId>,
    pub(crate) class: Vec<MessageClass>,
    pub(crate) length: Vec<u32>,
    pub(crate) birth: Vec<u64>,
    pub(crate) measured: Vec<bool>,
    pub(crate) ejected: Vec<u32>,
    pub(crate) head: Vec<HeadState>,
    pub(crate) chain_len: Vec<u32>,
    /// For a streaming worm (one the engine advances in closed form), the
    /// cycle its header entered the injection stage: stage `s` then saw
    /// its header at `stream_start + s` and flit `i` one cycle per flit
    /// later.  [`PER_FLIT`] for a worm on the per-flit path.
    pub(crate) stream_start: Vec<u64>,
    /// For a draining worm (header ejecting, alone on every port where it
    /// still has flits to receive, advanced in closed form from its saved
    /// `entered` and `ejected` counts), the first cycle of the drain;
    /// [`PER_FLIT`] otherwise.
    pub(crate) drain_start: Vec<u64>,
    /// The cycle the tail of a draining worm, or of a streaming worm whose
    /// header is ejecting, is delivered; [`PER_FLIT`] for any other worm.
    pub(crate) delivered_at: Vec<u64>,
    /// Intrusive FIFO link for the per-(port, class) allocation queues.
    pub(crate) wait_next: Vec<MsgId>,
    /// Packed chains: slot `id` owns `chain[id*max_chain .. +chain_len]`.
    pub(crate) chain: Vec<ChainStage>,
    pub(crate) live: Vec<bool>,
    free: Vec<MsgId>,
    n_live: usize,
}

impl MessageArena {
    /// An empty arena whose chains can hold up to `max_chain` stages.
    pub fn new(max_chain: u32) -> Self {
        assert!(max_chain >= 1);
        MessageArena {
            max_chain,
            src: Vec::new(),
            dest: Vec::new(),
            class: Vec::new(),
            length: Vec::new(),
            birth: Vec::new(),
            measured: Vec::new(),
            ejected: Vec::new(),
            head: Vec::new(),
            chain_len: Vec::new(),
            stream_start: Vec::new(),
            drain_start: Vec::new(),
            delivered_at: Vec::new(),
            wait_next: Vec::new(),
            chain: Vec::new(),
            live: Vec::new(),
            free: Vec::new(),
            n_live: 0,
        }
    }

    /// Insert a message, recycling a free slot when one exists.
    pub fn insert(&mut self, m: NewMessage) -> MsgId {
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                let id = self.src.len() as MsgId;
                self.src.push(m.src);
                self.dest.push(m.dest);
                self.class.push(m.class);
                self.length.push(0);
                self.birth.push(0);
                self.measured.push(false);
                self.ejected.push(0);
                self.head.push(HeadState::Done);
                self.chain_len.push(0);
                self.stream_start.push(PER_FLIT);
                self.drain_start.push(PER_FLIT);
                self.delivered_at.push(PER_FLIT);
                self.wait_next.push(NO_MSG);
                self.chain.resize(
                    self.chain.len() + self.max_chain as usize,
                    ChainStage::default(),
                );
                self.live.push(false);
                id
            }
        };
        let i = id as usize;
        self.src[i] = m.src;
        self.dest[i] = m.dest;
        self.class[i] = m.class;
        self.length[i] = m.length;
        self.birth[i] = m.birth;
        self.measured[i] = m.measured;
        self.ejected[i] = 0;
        self.head[i] = HeadState::Done;
        self.chain_len[i] = 0;
        self.stream_start[i] = PER_FLIT;
        self.drain_start[i] = PER_FLIT;
        self.delivered_at[i] = PER_FLIT;
        self.wait_next[i] = NO_MSG;
        self.live[i] = true;
        self.n_live += 1;
        id
    }

    /// Retire a message, returning its slot to the free list.
    pub fn remove(&mut self, id: MsgId) {
        debug_assert!(self.live[id as usize]);
        self.live[id as usize] = false;
        self.free.push(id);
        self.n_live -= 1;
    }

    /// Messages currently live (in flight, including source queues).
    pub fn live_count(&self) -> usize {
        self.n_live
    }

    /// Slot capacity (live + free).
    pub fn capacity(&self) -> usize {
        self.src.len()
    }

    /// First index of `id`'s chain span in the packed arena.
    #[inline]
    pub(crate) fn chain_base(&self, id: MsgId) -> usize {
        id as usize * self.max_chain as usize
    }

    /// The chain of `id` as a slice.
    #[inline]
    pub fn chain(&self, id: MsgId) -> &[ChainStage] {
        let base = self.chain_base(id);
        &self.chain[base..base + self.chain_len[id as usize] as usize]
    }

    /// Append a stage to `id`'s chain; returns the stage index.
    #[inline]
    pub(crate) fn push_stage(&mut self, id: MsgId, port: u32, vc: u32) -> u32 {
        let len = self.chain_len[id as usize];
        debug_assert!(len < self.max_chain, "route exceeded the chain stride");
        let base = self.chain_base(id);
        self.chain[base + len as usize] = ChainStage {
            port,
            vc,
            entered: 0,
        };
        self.chain_len[id as usize] = len + 1;
        len
    }

    /// Flits still at the source, not yet entered into the first stage.
    pub fn flits_at_source(&self, id: MsgId) -> u32 {
        let i = id as usize;
        if self.chain_len[i] == 0 {
            self.length[i]
        } else {
            self.length[i] - self.chain[self.chain_base(id)].entered
        }
    }

    /// Occupancy of the buffer of stage `i` of `id`: flits that entered
    /// stage `i` but have not yet entered stage `i + 1` (or been ejected,
    /// for the last stage).
    pub fn stage_occupancy(&self, id: MsgId, i: usize) -> u32 {
        let base = self.chain_base(id);
        let entered = self.chain[base + i].entered;
        let left = if (i as u32) + 1 < self.chain_len[id as usize] {
            self.chain[base + i + 1].entered
        } else {
            self.ejected[id as usize]
        };
        entered - left
    }

    /// True while `id` streams.
    #[inline]
    pub(crate) fn is_streaming(&self, id: MsgId) -> bool {
        self.stream_start[id as usize] != PER_FLIT
    }

    /// True while `id` drains.
    #[inline]
    pub(crate) fn is_draining(&self, id: MsgId) -> bool {
        self.drain_start[id as usize] != PER_FLIT
    }

    /// True when every flit of `id` has been delivered.
    #[inline]
    pub fn is_delivered(&self, id: MsgId) -> bool {
        self.ejected[id as usize] == self.length[id as usize]
    }

    /// Latency if `id` completed at `cycle`: generation to delivery of the
    /// tail flit, inclusive.
    pub fn latency_at(&self, id: MsgId, cycle: u64) -> u64 {
        cycle - self.birth[id as usize] + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena() -> (MessageArena, MsgId) {
        let mut a = MessageArena::new(8);
        let id = a.insert(NewMessage {
            src: NodeId(0),
            dest: NodeId(5),
            class: MessageClass::Regular,
            length: 4,
            birth: 100,
            measured: true,
        });
        (a, id)
    }

    #[test]
    fn source_flits_track_first_stage() {
        let (mut a, id) = arena();
        assert_eq!(a.flits_at_source(id), 4);
        a.push_stage(id, 7, 0);
        let base = a.chain_base(id);
        a.chain[base].entered = 3;
        assert_eq!(a.flits_at_source(id), 1);
    }

    #[test]
    fn occupancy_is_entered_minus_left() {
        let (mut a, id) = arena();
        a.push_stage(id, 7, 0);
        a.push_stage(id, 9, 1);
        let base = a.chain_base(id);
        a.chain[base].entered = 4;
        a.chain[base + 1].entered = 2;
        a.ejected[id as usize] = 1;
        assert_eq!(a.stage_occupancy(id, 0), 2); // 4 entered, 2 moved on
        assert_eq!(a.stage_occupancy(id, 1), 1); // 2 entered, 1 ejected
    }

    #[test]
    fn delivery_and_latency() {
        let (mut a, id) = arena();
        assert!(!a.is_delivered(id));
        a.ejected[id as usize] = 4;
        assert!(a.is_delivered(id));
        assert_eq!(a.latency_at(id, 150), 51);
    }

    #[test]
    fn slots_are_recycled() {
        let (mut a, id) = arena();
        a.push_stage(id, 1, 0);
        assert_eq!(a.live_count(), 1);
        a.remove(id);
        assert_eq!(a.live_count(), 0);
        let id2 = a.insert(NewMessage {
            src: NodeId(1),
            dest: NodeId(2),
            class: MessageClass::HotSpot,
            length: 9,
            birth: 7,
            measured: false,
        });
        assert_eq!(id, id2, "free slot must be reused");
        assert_eq!(a.capacity(), 1);
        assert_eq!(a.chain_len[id2 as usize], 0, "chain reset on reuse");
        assert_eq!(a.flits_at_source(id2), 9);
    }

    #[test]
    fn chains_of_distinct_slots_do_not_alias() {
        let (mut a, id0) = arena();
        let id1 = a.insert(NewMessage {
            src: NodeId(3),
            dest: NodeId(4),
            class: MessageClass::Regular,
            length: 2,
            birth: 0,
            measured: false,
        });
        a.push_stage(id0, 10, 0);
        a.push_stage(id1, 20, 1);
        assert_eq!(a.chain(id0).len(), 1);
        assert_eq!(a.chain(id0)[0].port, 10);
        assert_eq!(a.chain(id1)[0].port, 20);
    }
}
