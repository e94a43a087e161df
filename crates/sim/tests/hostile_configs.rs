//! Fixed-seed fuzz over hostile simulator configurations: every
//! `SimConfig` field is drawn from a set of edge values (node-id,
//! channel-id and chain-stage limits, the packed 16-bit fields, the VC
//! bounds, degenerate and non-finite rates, the hot node just inside and
//! just outside the network, the fault-router cap), and every case must
//! end in a typed error or a report — no panic, no hang.
//!
//! Networks above [`SIM_NODE_LIMIT`] nodes only go through `validate`: a
//! simulator is never built for them, so no case allocates per-node state
//! for millions of nodes.  Every case logs its wall time (run with
//! `--nocapture` to see them), so a slow case is visible before it becomes
//! a hang.

use kncube_sim::{EjectionPolicy, SimConfig, Simulator, MAX_FAULTY_SIM_NODES};
use kncube_topology::{Boundary, LinkKind, NodeId};
use kncube_traffic::{ArrivalProcess, FaultSpec, TrafficPattern};
use std::time::Instant;

/// Cases drawn by the fuzz.
const CASES: u64 = 2_000;

/// Largest network a case builds a simulator for.
const SIM_NODE_LIMIT: u64 = 4_096;

/// Exclusive bound of the engine's packed 16-bit fields.
const PACKED: u32 = 1 << 16;

/// Radix edges: `k < 2`; small cubes; the fault-router cap ± 1 (as rings);
/// 40 000 (a ring past the chain-stage field); `2^16` (a square past the
/// node-id space); 1024 (a bidirectional 3-cube past the channel-id
/// space); `u32::MAX` (a ring that fills the channel-id space).
const K: [u32; 12] = [
    1,
    2,
    3,
    8,
    64,
    1024,
    MAX_FAULTY_SIM_NODES as u32 - 1,
    MAX_FAULTY_SIM_NODES as u32,
    MAX_FAULTY_SIM_NODES as u32 + 1,
    40_000,
    PACKED,
    u32::MAX,
];

/// Dimension edges: 0 and 9 are outside `1..=MAX_DIMS`.
const N: [u32; 7] = [0, 1, 2, 3, 4, 8, 9];

const V: [u32; 4] = [0, 1, 64, 65];

/// Message length and buffer depth edges: 0, 1, and the packed field's
/// limit ± 1.
const PACKED_EDGES: [u32; 5] = [0, 1, PACKED - 1, PACKED, PACKED + 1];

const RATES: [f64; 5] = [0.0, 1e-300, 5.0, f64::NAN, f64::INFINITY];

const ON_OFF: [f64; 5] = [0.0, 1e-300, 1.0, 1e300, f64::NAN];

const HOT_FRACTIONS: [f64; 4] = [0.0, 1.0, 1.5, f64::NAN];

const FAULT_P: [f64; 3] = [0.0, 1.0, f64::NAN];

const MAX_CYCLES: [u64; 3] = [1, 500, 5_000];

const QUEUE: [usize; 2] = [0, usize::MAX];

/// splitmix64: a fixed-seed stream with no dependency.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick<T: Copy>(&mut self, set: &[T]) -> T {
        set[(self.next() % set.len() as u64) as usize]
    }

    /// An edge value from `set` one time in four, else `typical`, so a
    /// fair share of cases gets past `validate` into a run.
    fn edge_or<T: Copy>(&mut self, typical: T, set: &[T]) -> T {
        if self.next().is_multiple_of(4) {
            self.pick(set)
        } else {
            typical
        }
    }
}

fn hostile_config(draw: &mut Draw) -> SimConfig {
    let (typical_k, typical_n) = (draw.pick(&[2, 4, 8]), draw.pick(&[1, 2, 3]));
    let k = draw.edge_or(typical_k, &K);
    let n = draw.edge_or(typical_n, &N);
    let nodes = u64::from(k).checked_pow(n);
    let (link_kind, boundary) = draw.pick(&[
        (LinkKind::Unidirectional, Boundary::Torus),
        (LinkKind::Bidirectional, Boundary::Torus),
        (LinkKind::Bidirectional, Boundary::Mesh),
        (LinkKind::Unidirectional, Boundary::Mesh),
    ]);
    let arrivals = if draw.next().is_multiple_of(2) {
        ArrivalProcess::Poisson(draw.edge_or(1e-3, &RATES))
    } else {
        ArrivalProcess::OnOff {
            rate_on: draw.edge_or(5e-3, &ON_OFF),
            mean_on: draw.edge_or(100.0, &ON_OFF),
            mean_off: draw.edge_or(400.0, &ON_OFF),
        }
    };
    // The hot node at N − 1 (the last node) or N (just outside).
    let last = nodes.map_or(u32::MAX, |nodes| {
        nodes.saturating_sub(1).min(u64::from(u32::MAX)) as u32
    });
    let hot = NodeId(draw.edge_or(0, &[last, last.saturating_add(1)]));
    let pattern = match draw.next() % 3 {
        0 => TrafficPattern::Uniform,
        1 => TrafficPattern::Tornado,
        _ => TrafficPattern::HotSpot {
            h: draw.edge_or(0.2, &HOT_FRACTIONS),
            hot,
        },
    };
    let faults = (draw.next().is_multiple_of(2)).then(|| FaultSpec {
        router_failure_prob: draw.edge_or(0.05, &FAULT_P),
        link_failure_prob: draw.edge_or(0.05, &FAULT_P),
    });
    let max_cycles = draw.pick(&MAX_CYCLES);
    let warmup_cycles = draw.edge_or(max_cycles / 2, &[0, max_cycles, max_cycles + 1, u64::MAX]);
    SimConfig {
        k,
        n,
        link_kind,
        boundary,
        faults,
        virtual_channels: draw.edge_or(2, &V),
        buffer_depth: draw.edge_or(2, &PACKED_EDGES),
        message_length: draw.edge_or(16, &PACKED_EDGES),
        arrivals,
        pattern,
        ejection: draw.pick(&[
            EjectionPolicy::PerMessageSink,
            EjectionPolicy::SharedChannel,
        ]),
        seed: draw.next(),
        warmup_cycles,
        max_cycles,
        target_messages: draw.pick(&[0, 1, 1_000]),
        max_source_queue: draw.edge_or(2_000, &QUEUE),
    }
}

#[test]
fn hostile_configs_end_in_an_error_or_a_report() {
    let mut draw = Draw(0x5EED_F022);
    let (mut errors, mut reports, mut validated_only) = (0, 0, 0);
    for case in 0..CASES {
        let cfg = hostile_config(&mut draw);
        let nodes = u64::from(cfg.k).checked_pow(cfg.n);
        let start = Instant::now();
        let outcome = if nodes.is_none_or(|nodes| nodes > SIM_NODE_LIMIT) {
            validated_only += 1;
            match cfg.validate() {
                Ok(()) => "valid, not built".to_string(),
                Err(e) => format!("error: {e}"),
            }
        } else {
            match Simulator::new(cfg) {
                Ok(sim) => {
                    let report = sim.run();
                    reports += 1;
                    assert!(report.cycles <= cfg.max_cycles, "case {case}: {cfg:?}");
                    format!(
                        "report: {} cycles, {} completed{}",
                        report.cycles,
                        report.completed,
                        if report.saturated { ", saturated" } else { "" }
                    )
                }
                Err(e) => {
                    errors += 1;
                    format!("error: {e}")
                }
            }
        };
        eprintln!(
            "case {case:>3} {:>9.3} ms  k={} n={} N={nodes:?}: {outcome}",
            start.elapsed().as_secs_f64() * 1e3,
            cfg.k,
            cfg.n
        );
    }
    eprintln!("{errors} errors, {reports} reports, {validated_only} validated only");
    // The edge sets must reach past `validate` into real runs.
    assert!(reports > 0, "no case built and ran a simulator");
}
