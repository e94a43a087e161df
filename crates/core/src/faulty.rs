//! The faulty-network latency model: the paper's blocking analysis over
//! the *exact* surviving-route substrate of a [`FaultRouter`].
//!
//! The closed-form model ([`NCubeModel`]) assumes the fault-free
//! unidirectional torus, where symmetry collapses the per-channel state
//! onto a handful of position families.  Faults —
//! and the bidirectional/mesh geometries — break that symmetry: routes
//! detour, load redistributes unevenly, and some pairs stop communicating
//! altogether.  [`FaultyNCubeModel`] rebuilds the same queueing chain
//! directly per directed channel:
//!
//! 1. **Rates** — [`FaultyChannelRates`] accumulates the exact regular
//!    and hot-spot rate per channel over every ordered reachable pair's
//!    surviving route (detour-corrected load redistribution) as subtree
//!    sums over each destination's route tree; unreachable pairs
//!    contribute nothing, matching the simulator's drop-at-generation
//!    semantics.
//! 2. **Blocking** — each channel gets the paper's two-class blocking
//!    operator (Eqs. 26–30) at its own rates, under the default
//!    load-independent pipelined-transfer holding time `Lm + 1`.
//! 3. **Composition** — a message's network latency is `Lm` plus
//!    `1 + B_c` per channel of its route; the per-pair latency is scaled
//!    by the multiplexing factor of its entry channel (Eqs. 33–35, always
//!    Dally's Markov chain: the class-aware ablation is fault-free only) and
//!    the source queue adds the Eq. (28) M/G/1 wait at rate `λ_inj / V`,
//!    where `λ_inj` counts only the *delivered* share of generation.
//!    Route latencies are prefix sums down each destination's tree, so a
//!    solve is one packed sweep of `O(N²)` array operations over the
//!    per-channel `(B_c, V̄_c)` pairs, with no route walks.
//!
//! A λ* search ([`FaultyNCubeModel::saturation`]) composes few probes.
//! The channel pass refuses a probe at channel utilization 1 before it
//! computes any blocking term; per-source route bounds, built once per
//! search, prove the probe stable or its source queue saturated; only a
//! probe neither bound decides is composed.  Its answers are those of a
//! search over [`FaultyNCubeModel::solve_at`].
//!
//! Superposition is approximate exactly where it is in the paper: channel
//! arrivals are treated as independent Poisson streams even though the
//! detoured routes correlate them, and blocking delays add along a route.
//! What is *exact* here, unlike the closed forms, is the geometry: rates
//! come from the true surviving shortest routes, so the model reduces to
//! route enumeration at zero load.
//!
//! With an **empty fault set on a unidirectional torus** (including every
//! `k = 2` network, where the two link kinds coincide) the model
//! *delegates* to [`NCubeModel`], reproducing its output bit-for-bit;
//! [`FaultyNCubeModel::solve_general_at`] forces the per-channel path for
//! cross-validation.

use crate::ncube::{ModelError, NCubeConfig, NCubeModel, RHO_CAP};
use crate::rates::FaultyChannelRates;
use crate::sweep::{bisect_saturation, SaturationError, SaturationReport};
use kncube_queueing::blocking::{blocking_delays, channel_utilization, TrafficClass};
use kncube_queueing::mg1;
use kncube_queueing::vc_multiplex::multiplexing_factors;
use kncube_topology::{Boundary, ChannelId, FaultRouter, FaultSet, KAryNCube, LinkKind, NodeId};

/// Hard cap on `N = k^n` for the faulty model.  The [`FaultRouter`]
/// stores [`FAULT_ROUTER_BYTES_PER_PAIR`] bytes per ordered pair (48 MiB
/// at this cap, 768 MiB at 16k nodes) and every solve sweeps all `N²`
/// pairs once.
///
/// [`FAULT_ROUTER_BYTES_PER_PAIR`]: kncube_topology::FAULT_ROUTER_BYTES_PER_PAIR
pub const MAX_FAULTY_MODEL_NODES: u64 = 1 << 12;

/// Configuration of the faulty-network model.
///
/// The topology is carried by the fault set (possibly empty —
/// [`FaultSet::none`]); the traffic knobs mirror [`NCubeConfig`].  The
/// hot node defaults to `NodeId(0)`, the simulator's convention
/// ([`SimConfig::ncube`] uses the same), which on a mesh is a *corner* —
/// position matters once wrap links are gone.
///
/// Equality and hashing compare every field, the floats by bit pattern
/// and the fault set whole (failed elements *and* topology), so a config
/// is its own exact cache key ([`crate::SolveCache`]).
///
/// [`SimConfig::ncube`]: ../../kncube_sim/struct.SimConfig.html
#[derive(Clone, Debug)]
pub struct FaultyNCubeConfig {
    /// The failed routers and links, carrying the topology they live in.
    pub faults: FaultSet,
    /// The hot-spot destination (Pfister–Norton).  May itself be failed,
    /// in which case all hot traffic is dropped at generation.
    pub hot_node: NodeId,
    /// Virtual channels per physical channel, `V >= 1`.
    pub virtual_channels: u32,
    /// Message length `Lm` in flits.
    pub message_length: u32,
    /// Per-node generation rate `λ` in messages/cycle.
    pub lambda: f64,
    /// Hot-spot fraction `h` in `[0, 1]`.
    pub hot_fraction: f64,
}

impl FaultyNCubeConfig {
    /// A configuration with the default hot node `NodeId(0)`.
    pub fn new(faults: FaultSet, v: u32, lm: u32, lambda: f64, h: f64) -> Self {
        FaultyNCubeConfig {
            faults,
            hot_node: NodeId(0),
            virtual_channels: v,
            message_length: lm,
            lambda,
            hot_fraction: h,
        }
    }

    /// Replace the hot-spot destination.
    pub fn with_hot_node(mut self, hot: NodeId) -> Self {
        self.hot_node = hot;
        self
    }

    /// The topology the faults live in.
    pub fn topology(&self) -> &KAryNCube {
        self.faults.topology()
    }

    /// Every field, the floats as bit patterns.  Destructured without
    /// `..`, so a new field does not compile until it joins the identity.
    fn identity(&self) -> impl Eq + std::hash::Hash + '_ {
        let FaultyNCubeConfig {
            faults,
            hot_node,
            virtual_channels,
            message_length,
            lambda,
            hot_fraction,
        } = self;
        (
            faults,
            (*hot_node, *virtual_channels, *message_length),
            (lambda.to_bits(), hot_fraction.to_bits()),
        )
    }
}

impl PartialEq for FaultyNCubeConfig {
    fn eq(&self, other: &Self) -> bool {
        self.identity() == other.identity()
    }
}

impl Eq for FaultyNCubeConfig {}

impl std::hash::Hash for FaultyNCubeConfig {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.identity().hash(state)
    }
}

/// What one faulty-model evaluation produces.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultyNCubeOutput {
    /// Mean latency over all *delivered* messages, in cycles.
    pub latency: f64,
    /// Mean latency of delivered regular (uniform-destination) messages.
    pub regular_latency: f64,
    /// Mean latency of delivered hot-spot messages (0.0 when no hot
    /// traffic is delivered: `h = 0` or the hot node unreachable).
    pub hot_latency: f64,
    /// Mean source-queue wait, averaged over the healthy sources.
    pub source_wait_regular: f64,
    /// Largest channel utilization encountered (the saturation witness).
    pub max_utilization: f64,
    /// Ordered pairs with a surviving route.
    pub reachable_pairs: u64,
    /// `reachable_pairs / (N(N-1))`.
    pub reachable_fraction: f64,
    /// Mean surviving-route detour over reachable pairs, in hops.
    pub mean_detour_hops: f64,
    /// Fraction of generated traffic that is delivered (the complement of
    /// the simulator's `dropped_unreachable` share, in expectation).
    pub delivered_fraction: f64,
    /// Fixed-point iterations: the delegate's count on the bit-exact
    /// fault-free path, 1 for the (non-iterative) per-channel path.
    pub iterations: usize,
    /// Whether this evaluation delegated to the closed-form [`NCubeModel`].
    pub delegated: bool,
}

/// The faulty-network latency model.  See the module docs for the
/// decomposition; construction performs the (one-off) route enumeration,
/// so re-solving at other rates ([`FaultyNCubeModel::solve_at`]) reuses
/// the accumulated per-channel unit loads.
pub struct FaultyNCubeModel {
    config: FaultyNCubeConfig,
    router: FaultRouter,
    rates: FaultyChannelRates,
}

/// The closed-form configuration of `config`'s geometry and traffic at
/// rate `lambda`.  [`NCubeModel::new`] owns the parameter ranges, so the
/// faulty model validates V, Lm, h and λ by building it; the delegated
/// fault-free path solves it.
fn closed_form_twin(config: &FaultyNCubeConfig, lambda: f64) -> NCubeConfig {
    let topo = config.topology();
    NCubeConfig::new(
        topo.k(),
        topo.n(),
        config.virtual_channels,
        config.message_length,
        lambda,
        config.hot_fraction,
    )
}

/// The per-channel traffic classes and utilizations at one rate, every
/// utilization below 1: the first half of a channel pass, which decides
/// `Saturated` before any blocking term is computed.
struct ChannelLoads {
    lambda: f64,
    /// The holding time both classes present on every channel.
    hold: f64,
    /// Per channel: its regular and hot rates, one row each so the
    /// blocking row reads its lanes contiguously.
    regular: Vec<f64>,
    hot: Vec<f64>,
    utilization: Vec<f64>,
    max_utilization: f64,
}

/// Channels whose blocking [`StabilityBound`] follows one by one: the
/// highest unit loads, where the largest blocking terms sit.
const TRACKED_CHANNELS: usize = 16;

/// Relative margin each [`StabilityBound`] keeps from utilization 1: far
/// above the rounding of the bounds and of the composition alike.
const STABILITY_MARGIN: f64 = 1e-9;

/// Bounds on each source's Eq. (28) utilization, from its routes' lengths
/// and tracked-channel crossings, built once per saturation search.  The
/// upper bound charges every hop `1 + τ`, where `τ` is the largest
/// blocking off the tracked channels, and a crossing of tracked channel
/// `t` adds `B_t − τ`: a route's charge is at least its composed
/// `Σ (1 + B_c)`.  The lower bound is the same charge at `τ = 0`: an
/// untracked hop costs `1 + 0` and a tracked one exactly `1 + B_t`, so a
/// route's charge is at most its composed latency (DESIGN.md
/// §Faulty-network model, *Cost*).
struct StabilityBound {
    /// The tracked channels, highest unit load first (ties by id).
    tracked: Vec<usize>,
    /// Per channel: its bit in a route's tracked mask, 0 if untracked.
    bit: Vec<u16>,
    /// The healthy sources.
    sources: Vec<SourceRoutes>,
}

/// What [`StabilityBound`] keeps of one source's routes.
struct SourceRoutes {
    /// Weight of each uniform pair: regular share over `N − 1`.
    pair_weight: f64,
    /// Reachable destinations.
    count: u32,
    /// Summed route lengths.
    hops: u32,
    /// How many routes cross each tracked channel.
    crossings: [u32; TRACKED_CHANNELS],
    /// Length and tracked mask of the route to the hot node.
    to_hot: Option<(u32, u16)>,
}

impl StabilityBound {
    /// One sweep over the router's trees: depths and tracked masks are
    /// prefix sums and unions down each tree, as latencies are in a
    /// composition.
    fn new(model: &FaultyNCubeModel) -> Self {
        let config = &model.config;
        let topo = *config.topology();
        let num_channels = topo.num_channels() as usize;
        let unit_load: Vec<f64> = (0..num_channels)
            .map(|c| model.rates.total_rate(ChannelId(c as u32), 1.0))
            .collect();
        let by_load = |a: &usize, b: &usize| unit_load[*b].total_cmp(&unit_load[*a]).then(a.cmp(b));
        let mut tracked: Vec<usize> = (0..num_channels).collect();
        if num_channels > TRACKED_CHANNELS {
            tracked.select_nth_unstable_by(TRACKED_CHANNELS - 1, by_load);
            tracked.truncate(TRACKED_CHANNELS);
        }
        tracked.sort_by(by_load);
        let mut bit = vec![0u16; num_channels];
        for (slot, &c) in tracked.iter().enumerate() {
            bit[c] = 1 << slot;
        }

        let n = topo.num_nodes() as usize;
        let mut depth = vec![0u32; n];
        let mut mask = vec![0u16; n];
        let mut count = vec![0u32; n];
        let mut hops = vec![0u32; n];
        let mut crossings = vec![[0u32; TRACKED_CHANNELS]; n];
        let mut to_hot = vec![None; n];
        for dest in topo.nodes() {
            (depth[dest.index()], mask[dest.index()]) = (0, 0);
            for edge in model.router.tree(dest) {
                let (v, p) = (edge.node.index(), edge.parent.index());
                depth[v] = depth[p] + 1;
                mask[v] = mask[p] | bit[edge.channel.index()];
                count[v] += 1;
                hops[v] += depth[v];
                let mut rest = mask[v];
                while rest != 0 {
                    crossings[v][rest.trailing_zeros() as usize] += 1;
                    rest &= rest - 1;
                }
            }
            if dest == config.hot_node {
                for edge in model.router.tree(dest) {
                    let v = edge.node.index();
                    to_hot[v] = Some((depth[v], mask[v]));
                }
            }
        }

        let sources = model
            .healthy_sources()
            .map(|src| {
                let s = src.index();
                SourceRoutes {
                    pair_weight: model.pair_weight(src),
                    count: count[s],
                    hops: hops[s],
                    crossings: crossings[s],
                    to_hot: to_hot[s],
                }
            })
            .collect();
        StabilityBound {
            tracked,
            bit,
            sources,
        }
    }

    /// What the bounds prove at `lambda` over the per-channel `blocking`:
    /// `Some(true)` when every source's upper bound is below 1 with
    /// [`STABILITY_MARGIN`] to spare, `Some(false)` when some source's
    /// lower bound reaches 1 with that margin, `None` when neither holds.
    fn decide(&self, model: &FaultyNCubeModel, lambda: f64, blocking: &[f64]) -> Option<bool> {
        let mut tau = 0.0f64;
        for (&b, &bit) in blocking.iter().zip(&self.bit) {
            if !b.is_finite() {
                return None;
            }
            if bit == 0 {
                tau = tau.max(b);
            }
        }
        let per_vc = lambda / model.config.virtual_channels as f64;
        if self.max_utilization(model, blocking, tau, per_vc * (1.0 + STABILITY_MARGIN)) < 1.0 {
            return Some(true);
        }
        if self.max_utilization(model, blocking, 0.0, per_vc * (1.0 - STABILITY_MARGIN)) >= 1.0 {
            return Some(false);
        }
        None
    }

    /// The largest `scale · service` over the sources, each route charged
    /// `Lm + len·(1 + τ) + Σ_tracked (B_t − τ)`.
    fn max_utilization(
        &self,
        model: &FaultyNCubeModel,
        blocking: &[f64],
        tau: f64,
        scale: f64,
    ) -> f64 {
        let mut excess = [0.0f64; TRACKED_CHANNELS];
        for (e, &c) in excess.iter_mut().zip(&self.tracked) {
            *e = blocking[c] - tau;
        }
        let lm = model.config.message_length as f64;
        let h = model.config.hot_fraction;
        let hop = 1.0 + tau;
        self.sources.iter().fold(0.0f64, |max, src| {
            let crossed: f64 = src
                .crossings
                .iter()
                .zip(&excess)
                .map(|(&k, &e)| k as f64 * e)
                .sum();
            let mut service =
                src.pair_weight * (src.count as f64 * lm + src.hops as f64 * hop + crossed);
            if let Some((len, mask)) = src.to_hot {
                let crossed: f64 = (0..TRACKED_CHANNELS)
                    .filter(|t| mask >> t & 1 == 1)
                    .map(|t| excess[t])
                    .sum();
                service += h * (lm + len as f64 * hop + crossed);
            }
            max.max(scale * service)
        })
    }
}

impl FaultyNCubeModel {
    /// Validate `config`, build the fault-aware router, and enumerate the
    /// per-channel loads.
    pub fn new(config: FaultyNCubeConfig) -> Result<Self, ModelError> {
        let topo = *config.topology();
        NCubeModel::new(closed_form_twin(&config, config.lambda))?;
        if u64::from(topo.num_nodes()) > MAX_FAULTY_MODEL_NODES {
            return Err(ModelError::BadConfig(format!(
                "faulty model limited to {MAX_FAULTY_MODEL_NODES} nodes (got {})",
                topo.num_nodes()
            )));
        }
        if config.hot_node.index() >= topo.num_nodes() as usize {
            return Err(ModelError::BadConfig(format!(
                "hot node {} outside the {}-node topology",
                config.hot_node.0,
                topo.num_nodes()
            )));
        }
        let router = FaultRouter::new(config.faults.clone());
        let rates = FaultyChannelRates::from_router(&router, config.hot_node, config.hot_fraction);
        Ok(FaultyNCubeModel {
            config,
            router,
            rates,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &FaultyNCubeConfig {
        &self.config
    }

    /// The fault-aware router backing the enumeration.
    pub fn router(&self) -> &FaultRouter {
        &self.router
    }

    /// The enumerated per-channel loads (per unit `λ`).
    pub fn channel_rates(&self) -> &FaultyChannelRates {
        &self.rates
    }

    /// Whether [`FaultyNCubeModel::solve`] delegates to the closed-form
    /// [`NCubeModel`]: empty fault set on a torus whose geometry the
    /// closed forms cover exactly — the unidirectional link kind, or
    /// `k = 2` where the two link kinds coincide (each ring has two
    /// nodes, so `Plus` reaches everything `Minus` could; pinned by
    /// `tests/degenerate_k2.rs`).
    pub fn delegates_to_ncube(&self) -> bool {
        let topo = self.config.topology();
        self.config.faults.is_empty()
            && topo.boundary() == Boundary::Torus
            && (topo.link_kind() == LinkKind::Unidirectional || topo.k() == 2)
    }

    /// Solve at the configured `λ`.
    pub fn solve(&self) -> Result<FaultyNCubeOutput, ModelError> {
        self.solve_at(self.config.lambda)
    }

    /// Solve at an arbitrary rate `lambda`, reusing the enumerated loads.
    /// Returns what a model built with `lambda` in its configuration
    /// returns from [`FaultyNCubeModel::solve`], bit for bit.
    pub fn solve_at(&self, lambda: f64) -> Result<FaultyNCubeOutput, ModelError> {
        if self.delegates_to_ncube() {
            self.solve_delegated(lambda)
        } else {
            self.solve_general_at(lambda)
        }
    }

    /// Find the saturation rate `λ*` by bisection on solvability, exactly
    /// as [`find_saturation_ncube_report`](crate::find_saturation_ncube_report)
    /// does for the fault-free model.  The per-channel path is
    /// non-iterative (each solvable probe counts one iteration); the
    /// delegated fault-free path reports the closed-form solver's
    /// converged iteration counts.
    ///
    /// On the per-channel path the channel pass refuses a probe whose
    /// channel utilization reaches 1 before it computes any blocking term;
    /// per-source route bounds, built once per search, then prove the
    /// probe stable or its source queue saturated
    /// ([`FaultyNCubeModel::route_bounds_decide`]); only a probe neither
    /// bound decides is composed.  Each step returns what
    /// [`FaultyNCubeModel::solve_at`] would, so `λ*` and the counts are
    /// those of a search over `solve_at`.
    pub fn saturation(
        &self,
        lo: f64,
        hi: f64,
        rel_tol: f64,
    ) -> Result<SaturationReport, SaturationError> {
        if self.delegates_to_ncube() {
            return bisect_saturation(lo, hi, rel_tol, |lambda| {
                self.solve_delegated(lambda).ok().map(|out| out.iterations)
            });
        }
        let bound = StabilityBound::new(self);
        bisect_saturation(lo, hi, rel_tol, |lambda| {
            let loads = self.channel_loads(lambda).ok()?;
            let blocking = self.blocking(&loads);
            let stable = match bound.decide(self, lambda, &blocking) {
                Some(stable) => stable,
                None => self.compose(&loads, &blocking).is_ok(),
            };
            stable.then_some(1)
        })
    }

    /// What the per-source route bounds alone prove of the per-channel
    /// path at `lambda`, without composing (DESIGN.md §Faulty-network
    /// model, *Cost*).  `Some(true)`: every channel utilization and every
    /// source's Eq. (28) utilization is below 1, so
    /// [`FaultyNCubeModel::solve_general_at`] succeeds.  `Some(false)`:
    /// every channel utilization is below 1 but some source queue
    /// saturates, so it fails.  `None` proves nothing: neither bound
    /// decides, a channel saturates, or [`FaultyNCubeModel::solve`]
    /// delegates to the closed forms.
    pub fn route_bounds_decide(&self, lambda: f64) -> Option<bool> {
        if self.delegates_to_ncube() {
            return None;
        }
        let blocking = self.blocking(&self.channel_loads(lambda).ok()?);
        StabilityBound::new(self).decide(self, lambda, &blocking)
    }

    /// The bit-exact fault-free reduction: map the closed-form solver's
    /// output onto the faulty-model shape.
    fn solve_delegated(&self, lambda: f64) -> Result<FaultyNCubeOutput, ModelError> {
        let out = NCubeModel::new(closed_form_twin(&self.config, lambda))?.solve()?;
        Ok(FaultyNCubeOutput {
            latency: out.latency,
            regular_latency: out.regular_latency,
            hot_latency: out.hot_latency,
            source_wait_regular: out.source_wait_regular,
            max_utilization: out.max_utilization,
            reachable_pairs: self.router.reachable_pairs(),
            reachable_fraction: self.router.reachable_fraction(),
            mean_detour_hops: self.router.expected_detour(),
            delivered_fraction: 1.0,
            iterations: out.iterations,
            delegated: true,
        })
    }

    /// Force the per-channel path at rate `lambda`, even where
    /// [`FaultyNCubeModel::solve`] would delegate — the cross-validation
    /// hook for the reduction tests.
    pub fn solve_general_at(&self, lambda: f64) -> Result<FaultyNCubeOutput, ModelError> {
        let loads = self.channel_loads(lambda)?;
        self.compose(&loads, &self.blocking(&loads))
    }

    /// Every channel's traffic classes and utilization at rate `lambda`.
    /// Errs `Saturated` when any utilization reaches 1.
    fn channel_loads(&self, lambda: f64) -> Result<ChannelLoads, ModelError> {
        NCubeModel::new(closed_form_twin(&self.config, lambda))?;
        let hold = self.holding_time();
        let num_channels = self.rates.num_channels();
        let mut regular_rates = Vec::with_capacity(num_channels);
        let mut hot_rates = Vec::with_capacity(num_channels);
        let mut utilization = Vec::with_capacity(num_channels);
        let mut max_utilization = 0.0f64;
        for id in 0..num_channels {
            let (regular, hot) = self.classes(ChannelId(id as u32), lambda, hold);
            let u = channel_utilization(regular, hot);
            max_utilization = max_utilization.max(u);
            regular_rates.push(regular.rate);
            hot_rates.push(hot.rate);
            utilization.push(u);
        }
        if max_utilization >= 1.0 {
            return Err(ModelError::Saturated { max_utilization });
        }
        Ok(ChannelLoads {
            lambda,
            hold,
            regular: regular_rates,
            hot: hot_rates,
            utilization,
            max_utilization,
        })
    }

    /// The second half of the channel pass: each channel's blocking delay
    /// `B_c` (Eqs. 26–30) at the loads' classes.
    fn blocking(&self, loads: &ChannelLoads) -> Vec<f64> {
        let lm = self.config.message_length as f64;
        let mut blocking = vec![0.0; loads.regular.len()];
        let classes = |c: usize| {
            (
                TrafficClass::new(loads.regular[c], loads.hold),
                TrafficClass::new(loads.hot[c], loads.hold),
            )
        };
        blocking_delays(&mut blocking, lm, RHO_CAP, classes, |_| {});
        blocking
    }

    /// The default load-independent pipelined-transfer holding time: one
    /// header cycle per channel plus the message body (the same `Lm + 1`
    /// the fault-free solver converges to immediately).
    fn holding_time(&self) -> f64 {
        self.config.message_length as f64 + 1.0
    }

    /// The regular and hot traffic classes of `channel` at rate `lambda`.
    fn classes(&self, channel: ChannelId, lambda: f64, hold: f64) -> (TrafficClass, TrafficClass) {
        (
            TrafficClass::new(self.rates.regular_rate(channel, lambda), hold),
            TrafficClass::new(self.rates.hot_rate(channel, lambda), hold),
        )
    }

    /// The sources whose routers survive.
    fn healthy_sources(&self) -> impl Iterator<Item = NodeId> + '_ {
        let faults = &self.config.faults;
        faults
            .topology()
            .nodes()
            .filter(|&src| !faults.node_failed(src))
    }

    /// Weight of each of `src`'s uniform pairs: its regular share (all of
    /// it at the hot node) over the `N − 1` other nodes.
    fn pair_weight(&self, src: NodeId) -> f64 {
        let regular_share = if src == self.config.hot_node {
            1.0
        } else {
            1.0 - self.config.hot_fraction
        };
        regular_share / (self.config.topology().num_nodes() - 1) as f64
    }

    /// Source `src`'s Eq. (28) wait: the M/G/1 wait at its *delivered*
    /// injection rate per VC, with the delivered-mix mean network latency
    /// as service, from `Σ s_net` over its `routes` to reachable
    /// destinations and `hot`, the `s_net` of its route to the hot node.
    /// Errs `Saturated` when the queue's utilization reaches 1.
    fn source_wait(
        &self,
        lambda: f64,
        src: NodeId,
        [sum_s, routes]: [f64; 2],
        hot: Option<f64>,
    ) -> Result<f64, ModelError> {
        let h = self.config.hot_fraction;
        let pair_weight = self.pair_weight(src);
        let mut service_num = pair_weight * sum_s;
        let mut delivered_weight = pair_weight * routes;
        if let Some(s_net) = hot {
            service_num += h * s_net;
            delivered_weight += h;
        }
        if delivered_weight > 0.0 {
            let service = service_num / delivered_weight;
            let injection = lambda * delivered_weight / self.config.virtual_channels as f64;
            let lm = self.config.message_length as f64;
            mg1::waiting_time(injection, service, lm).map_err(|sat| ModelError::Saturated {
                max_utilization: sat.rho,
            })
        } else {
            Ok(0.0)
        }
    }

    /// Compose the per-source latencies and source-queue waits over the
    /// channel pass, then Eq. (28) and the class means.  Errs `Saturated`
    /// when a source queue's Eq. (28) utilization reaches 1.
    ///
    /// One packed prefix-sum sweep of `(B_c, V̄_c)` per channel over every
    /// destination's route tree: down each tree
    /// `lat[v] = lat[parent] + 1 + B_c(v)` is the network latency beyond
    /// `Lm` of the route from `v`, and `c(v)` is that route's entry
    /// channel.  Each source adds
    /// `[Σ s_net, Σ s_net·V̄_entry, Σ V̄_entry, routes]` over its reachable
    /// destinations, in destination order, and keeps the `s_net` and
    /// entry `V̄` of its route to the hot node apart.
    fn compose(
        &self,
        loads: &ChannelLoads,
        blocking: &[f64],
    ) -> Result<FaultyNCubeOutput, ModelError> {
        #[cfg(test)]
        tests::COMPOSITIONS.with(|count| count.set(count.get() + 1));
        let lambda = loads.lambda;
        let mut vbar = loads.utilization.clone();
        multiplexing_factors(&mut vbar, self.config.virtual_channels);
        let terms: Vec<(f64, f64)> = blocking.iter().copied().zip(vbar).collect();
        let topo = self.config.topology();
        let n = topo.num_nodes() as usize;
        let lm = self.config.message_length as f64;
        let mut lat = vec![0.0f64; n];
        let mut sums = vec![[0.0f64; 4]; n];
        let mut to_hot = vec![None; n];
        for dest in topo.nodes() {
            lat[dest.index()] = 0.0;
            for edge in self.router.tree(dest) {
                let (v, (blocking, vbar)) = (edge.node.index(), terms[edge.channel.index()]);
                lat[v] = lat[edge.parent.index()] + 1.0 + blocking;
                let s_net = lm + lat[v];
                let sums = &mut sums[v];
                sums[0] += s_net;
                sums[1] += s_net * vbar;
                sums[2] += vbar;
                sums[3] += 1.0;
            }
            if dest == self.config.hot_node {
                for edge in self.router.tree(dest) {
                    let v = edge.node.index();
                    to_hot[v] = Some((lm + lat[v], terms[edge.channel.index()].1));
                }
            }
        }

        let h = self.config.hot_fraction;
        let mut regular_num = 0.0;
        let mut regular_den = 0.0;
        let mut hot_num = 0.0;
        let mut hot_den = 0.0;
        let mut wait_sum = 0.0;
        let mut healthy_sources = 0u32;
        for src in self.healthy_sources() {
            healthy_sources += 1;
            let s = src.index();
            let [sum_s, sum_sv, sum_v, routes] = sums[s];
            let hot = to_hot[s].map(|(s_net, _)| s_net);
            let wait = self.source_wait(lambda, src, [sum_s, routes], hot)?;
            wait_sum += wait;
            // Σ (s_net + wait)·v̄_entry over the source's pairs.
            let pair_weight = self.pair_weight(src);
            regular_num += pair_weight * (sum_sv + wait * sum_v);
            regular_den += pair_weight * routes;
            if let Some((s_net, entry_vbar)) = to_hot[s] {
                hot_num += h * (s_net + wait) * entry_vbar;
                hot_den += h;
            }
        }
        let latency_num = regular_num + hot_num;
        let latency_den = regular_den + hot_den;

        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        Ok(FaultyNCubeOutput {
            latency: ratio(latency_num, latency_den),
            regular_latency: ratio(regular_num, regular_den),
            hot_latency: ratio(hot_num, hot_den),
            source_wait_regular: if healthy_sources > 0 {
                wait_sum / healthy_sources as f64
            } else {
                0.0
            },
            max_utilization: loads.max_utilization,
            reachable_pairs: self.router.reachable_pairs(),
            reachable_fraction: self.router.reachable_fraction(),
            mean_detour_hops: self.router.expected_detour(),
            delivered_fraction: latency_den / n as f64,
            iterations: 1,
            delegated: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ncube::MAX_VIRTUAL_CHANNELS;
    use std::cell::Cell;

    thread_local! {
        /// Full compositions run on this thread, for the tests to count
        /// what a search composes.
        pub(super) static COMPOSITIONS: Cell<usize> = const { Cell::new(0) };
    }

    /// `search()`'s result, and the compositions it ran.
    fn counting_compositions<T>(search: impl FnOnce() -> T) -> (T, usize) {
        let before = COMPOSITIONS.with(Cell::get);
        let result = search();
        (result, COMPOSITIONS.with(Cell::get) - before)
    }

    fn empty(topo: KAryNCube) -> FaultSet {
        FaultSet::none(topo)
    }

    /// Fail each router, and each node's `Plus` link in every dimension,
    /// with probability `density`, from a splitmix64 stream of `seed`.
    fn sampled_faults(topo: KAryNCube, density: f64, seed: u64) -> FaultSet {
        let mut state = seed;
        let mut draw = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / ((1u64 << 53) as f64) < density
        };
        let mut faults = FaultSet::none(topo);
        for node in topo.nodes() {
            if draw() {
                faults.fail_node(node);
            }
            for dim in 0..topo.n() {
                if draw() {
                    faults.fail_link(kncube_topology::Channel {
                        from: node,
                        dim,
                        direction: kncube_topology::Direction::Plus,
                    });
                }
            }
        }
        faults
    }

    #[test]
    fn route_bound_leaves_few_compositions_per_search() {
        // The benchmark's shape: 256- and 512-node bi-tori at 0, 2 and 5%
        // faults, V = 2, Lm = 16, h = 0.2, searched from (1e-9, 1e-1) to
        // 1e-3.  Composing every probe the channel pass accepts costs 7-10
        // compositions per search, and the stability bound alone left 0-3
        // of them to a composition.  With the saturation bound too, the
        // search composes none on any of the six sets.
        for (k, n) in [(16u32, 2u32), (8, 3)] {
            for (index, density) in [0.0, 0.02, 0.05].into_iter().enumerate() {
                let topo = KAryNCube::bidirectional(k, n).unwrap();
                let faults = sampled_faults(topo, density, 1 + index as u64);
                let model =
                    FaultyNCubeModel::new(FaultyNCubeConfig::new(faults, 2, 16, 0.0, 0.2)).unwrap();
                let (fast, composed) =
                    counting_compositions(|| model.saturation(1e-9, 1e-1, 1e-3).unwrap());
                let (slow, composed_all) = counting_compositions(|| {
                    bisect_saturation(1e-9, 1e-1, 1e-3, |lambda| {
                        model.solve_at(lambda).ok().map(|out| out.iterations)
                    })
                    .unwrap()
                });
                let SaturationReport {
                    lambda_star,
                    probes,
                    solver_iterations,
                } = fast;
                assert_eq!(lambda_star.to_bits(), slow.lambda_star.to_bits());
                assert_eq!(
                    (probes, solver_iterations),
                    (slow.probes, slow.solver_iterations)
                );
                assert_eq!(composed, 0, "({k},{n}) at {density}: compositions");
                assert!(
                    composed_all >= 7,
                    "({k},{n}) at {density}: {composed_all} compositions without the bounds"
                );
            }
        }
    }

    #[test]
    fn empty_uni_torus_delegates_bit_exact() {
        for (k, n) in [(8u32, 2u32), (4, 3)] {
            let topo = KAryNCube::unidirectional(k, n).unwrap();
            for lambda in [0.0, 1e-5, 1e-4] {
                let model =
                    FaultyNCubeModel::new(FaultyNCubeConfig::new(empty(topo), 2, 16, lambda, 0.2))
                        .unwrap();
                assert!(model.delegates_to_ncube());
                let faulty = model.solve().unwrap();
                let plain = NCubeModel::new(NCubeConfig::new(k, n, 2, 16, lambda, 0.2))
                    .unwrap()
                    .solve()
                    .unwrap();
                assert!(faulty.delegated);
                assert_eq!(faulty.latency.to_bits(), plain.latency.to_bits());
                assert_eq!(
                    faulty.regular_latency.to_bits(),
                    plain.regular_latency.to_bits()
                );
                assert_eq!(faulty.hot_latency.to_bits(), plain.hot_latency.to_bits());
                assert_eq!(faulty.reachable_fraction, 1.0);
                assert_eq!(faulty.mean_detour_hops, 0.0);
            }
        }
    }

    #[test]
    fn bidirectional_and_mesh_take_the_general_path() {
        for topo in [
            KAryNCube::bidirectional(8, 2).unwrap(),
            KAryNCube::mesh(8, 2).unwrap(),
        ] {
            let model =
                FaultyNCubeModel::new(FaultyNCubeConfig::new(empty(topo), 2, 16, 1e-4, 0.2))
                    .unwrap();
            assert!(!model.delegates_to_ncube());
            let out = model.solve().unwrap();
            assert!(!out.delegated);
            assert!(out.latency > 16.0);
            assert_eq!(out.reachable_fraction, 1.0);
        }
    }

    #[test]
    fn general_path_tracks_the_closed_forms_on_the_empty_uni_torus() {
        // The per-channel path and the closed-form solver decompose the
        // same queueing chain differently (exact uniform-over-others
        // destinations vs. the paper's include-self averages), so they
        // agree approximately, not bitwise.  At moderate load the gap
        // stays within a few percent.
        let topo = KAryNCube::unidirectional(8, 2).unwrap();
        let cfg = NCubeConfig::new(8, 2, 2, 16, 0.0, 0.2);
        let sat = crate::find_saturation_ncube(cfg, 1e-9, 1e-2, 1e-3).unwrap();
        for frac in [0.05, 0.3, 0.5] {
            let lambda = frac * sat;
            let plain = NCubeModel::new(NCubeConfig { lambda, ..cfg })
                .unwrap()
                .solve()
                .unwrap();
            let general =
                FaultyNCubeModel::new(FaultyNCubeConfig::new(empty(topo), 2, 16, lambda, 0.2))
                    .unwrap()
                    .solve_general_at(lambda)
                    .unwrap();
            let rel = (general.latency - plain.latency).abs() / plain.latency;
            assert!(
                rel < 0.10,
                "frac {frac}: general {} vs closed-form {} (rel {rel:.4})",
                general.latency,
                plain.latency
            );
        }
    }

    #[test]
    fn zero_load_latency_is_lm_plus_weighted_mean_distance() {
        let topo = KAryNCube::mesh(4, 2).unwrap();
        let h = 0.3;
        let hot = NodeId(0);
        let mut faults = FaultSet::none(topo);
        faults.fail_node(NodeId(5));
        let model =
            FaultyNCubeModel::new(FaultyNCubeConfig::new(faults.clone(), 2, 16, 0.0, h)).unwrap();
        let out = model.solve().unwrap();
        // Recompute from the router's pair distances.
        let router = FaultRouter::new(faults);
        let others = (topo.num_nodes() - 1) as f64;
        let mut num = 0.0;
        let mut den = 0.0;
        for src in topo.nodes() {
            let share = if src == hot { 1.0 } else { 1.0 - h };
            for dest in topo.nodes() {
                if let Some(d) = router.distance(src, dest).filter(|_| dest != src) {
                    let mut w = share / others;
                    if dest == hot && src != hot {
                        w += h;
                    }
                    num += w * (16.0 + d as f64);
                    den += w;
                }
            }
        }
        let expected = num / den;
        assert!(
            (out.latency - expected).abs() < 1e-9,
            "{} vs {expected}",
            out.latency
        );
    }

    #[test]
    fn latency_grows_with_lambda_until_saturation() {
        let topo = KAryNCube::bidirectional(8, 2).unwrap();
        let mut faults = FaultSet::none(topo);
        faults.fail_node(NodeId(11));
        let model = FaultyNCubeModel::new(FaultyNCubeConfig::new(faults, 2, 16, 0.0, 0.2)).unwrap();
        let sat = model.saturation(1e-9, 1e-2, 1e-3).unwrap();
        assert!(sat.lambda_star > 0.0);
        assert!(sat.probes > 10);
        assert!(sat.solver_iterations > 0);
        let mut prev = 0.0;
        for i in 1..=8 {
            let lambda = sat.lambda_star * 0.9 * i as f64 / 8.0;
            let out = model.solve_at(lambda).unwrap();
            assert!(out.latency > prev, "λ={lambda}: {} <= {prev}", out.latency);
            prev = out.latency;
        }
        // Past λ* the model reports saturation.
        assert!(matches!(
            model.solve_at(sat.lambda_star * 1.5),
            Err(ModelError::Saturated { .. })
        ));
    }

    #[test]
    fn faults_near_the_hot_node_cost_saturation_bandwidth() {
        let topo = KAryNCube::bidirectional(8, 2).unwrap();
        let fault_free =
            FaultyNCubeModel::new(FaultyNCubeConfig::new(empty(topo), 2, 16, 0.0, 0.3)).unwrap();
        let mut faults = FaultSet::none(topo);
        // Kill both dim-1 links right next to the hot node (0,1)→(0,0)
        // and (0,7)→(0,0): the entire off-row hot funnel must detour onto
        // the dim-0 last hops, concentrating the bottleneck.
        faults.fail_link(kncube_topology::Channel {
            from: topo.node_at(&[0, 1]),
            dim: 1,
            direction: kncube_topology::Direction::Minus,
        });
        faults.fail_link(kncube_topology::Channel {
            from: topo.node_at(&[0, 7]),
            dim: 1,
            direction: kncube_topology::Direction::Plus,
        });
        let faulty =
            FaultyNCubeModel::new(FaultyNCubeConfig::new(faults, 2, 16, 0.0, 0.3)).unwrap();
        let sat_free = fault_free.saturation(1e-9, 1e-2, 1e-3).unwrap().lambda_star;
        let sat_faulty = faulty.saturation(1e-9, 1e-2, 1e-3).unwrap().lambda_star;
        assert!(
            sat_faulty < sat_free,
            "λ* should drop: {sat_faulty} vs {sat_free}"
        );
    }

    #[test]
    fn fully_partitioned_network_is_a_legal_degenerate_input() {
        let topo = KAryNCube::mesh(4, 2).unwrap();
        let mut faults = FaultSet::none(topo);
        for node in topo.nodes() {
            faults.fail_node(node);
        }
        let model =
            FaultyNCubeModel::new(FaultyNCubeConfig::new(faults, 2, 16, 1e-3, 0.2)).unwrap();
        let out = model.solve().unwrap();
        assert_eq!(out.reachable_pairs, 0);
        assert_eq!(out.reachable_fraction, 0.0);
        assert_eq!(out.delivered_fraction, 0.0);
        assert_eq!(out.latency, 0.0);
        assert_eq!(out.max_utilization, 0.0);
        // No traffic ever saturates: the bisection cannot bracket λ*.
        assert!(matches!(
            model.saturation(1e-9, 1e-2, 1e-3),
            Err(SaturationError::BracketNotFound { .. })
        ));
    }

    #[test]
    fn failed_hot_node_drops_all_hot_traffic() {
        let topo = KAryNCube::bidirectional(4, 2).unwrap();
        let mut faults = FaultSet::none(topo);
        faults.fail_node(NodeId(0));
        let model =
            FaultyNCubeModel::new(FaultyNCubeConfig::new(faults, 2, 16, 1e-3, 0.4)).unwrap();
        let out = model.solve().unwrap();
        assert_eq!(out.hot_latency, 0.0);
        assert!(out.latency > 16.0);
        // 15 healthy sources deliver only their regular share, and the
        // uniform share aimed at the dead hot node drops too: each source
        // delivers 0.6 · 14/15, so the network-wide fraction is
        // 15 · 0.6 · (14/15) / 16.
        let expected = 0.6 * 14.0 / 16.0;
        assert!(
            (out.delivered_fraction - expected).abs() < 1e-9,
            "{} vs {expected}",
            out.delivered_fraction
        );
    }

    #[test]
    fn bad_configs_are_reported_not_panicked() {
        let topo = KAryNCube::bidirectional(4, 2).unwrap();
        let ok = |cfg: FaultyNCubeConfig| FaultyNCubeModel::new(cfg).map(|_| ());
        assert!(matches!(
            ok(FaultyNCubeConfig::new(empty(topo), 0, 16, 1e-4, 0.2)),
            Err(ModelError::BadConfig(_))
        ));
        assert!(matches!(
            ok(FaultyNCubeConfig::new(
                empty(topo),
                MAX_VIRTUAL_CHANNELS + 1,
                16,
                1e-4,
                0.2
            )),
            Err(ModelError::BadConfig(_))
        ));
        assert!(matches!(
            ok(FaultyNCubeConfig::new(empty(topo), 2, 0, 1e-4, 0.2)),
            Err(ModelError::BadConfig(_))
        ));
        assert!(matches!(
            ok(FaultyNCubeConfig::new(empty(topo), 2, 16, f64::NAN, 0.2)),
            Err(ModelError::BadConfig(_))
        ));
        assert!(matches!(
            ok(FaultyNCubeConfig::new(empty(topo), 2, 16, 1e-4, 1.5)),
            Err(ModelError::BadConfig(_))
        ));
        assert!(matches!(
            ok(FaultyNCubeConfig::new(empty(topo), 2, 16, 1e-4, 0.2).with_hot_node(NodeId(16))),
            Err(ModelError::BadConfig(_))
        ));
    }

    #[test]
    fn delegated_saturation_matches_the_closed_form_search() {
        // On the empty uni torus every probe delegates to the closed-form
        // model, so the bisection lands on the same λ* bit for bit.
        let topo = KAryNCube::unidirectional(8, 2).unwrap();
        let model = FaultyNCubeModel::new(FaultyNCubeConfig::new(
            FaultSet::none(topo),
            2,
            16,
            0.0,
            0.3,
        ))
        .unwrap();
        let faulty = model.saturation(1e-9, 1e-2, 1e-3).unwrap();
        let closed = crate::find_saturation_ncube_report(
            NCubeConfig::new(8, 2, 2, 16, 0.0, 0.3),
            1e-9,
            1e-2,
            1e-3,
        )
        .unwrap();
        assert_eq!(faulty.lambda_star.to_bits(), closed.lambda_star.to_bits());
        assert_eq!(faulty.probes, closed.probes);
    }
}
