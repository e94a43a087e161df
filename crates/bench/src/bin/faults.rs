//! EXT-FAULTS: reachability and latency of faulty k-ary n-cubes — the
//! fault-injection sweep behind the EXPERIMENTS.md reliability table.
//!
//! For an 8×8 bidirectional torus and an 8×8 mesh, sweeps a common
//! element-failure probability `p` (applied to routers and physical links
//! alike), samples many deterministic fault sets per point, and reports
//! the seed-averaged fraction of ordered pairs that can still communicate
//! plus the mean detour of the surviving shortest routes.  One simulation
//! per point confirms the transport layer agrees with the router's
//! reachability census.
//!
//! The sweep is **gated** by the closed-form independent-failure
//! envelopes (in the spirit of the probabilistic analyses of faulty
//! cubes, arXiv:1301.5993): a pair with fault-free distance `h` survives
//! at most when both endpoints do — probability `(1-p)²` — and at least
//! when its entire dimension-order path of `h+1` routers and `h` physical
//! links does — probability `(1-p)^{2h+1}`.  Averaged over pairs these
//! bracket the measured reachability; violations exit non-zero.
//!
//! Each point also publishes the deadlock-certificate census of its fault
//! sets: the fraction whose surviving route set is certified
//! deadlock-free ([`FaultRouter::deadlock_free`]) and the mean length of
//! the channel-dependency cycle witnessing each uncertified one
//! ([`FaultRouter::dependency_cycle`]).  Fault-free routes are
//! dimension-ordered and acyclic by construction, so a `p = 0` point that
//! is not fully certified is a violation.
//!
//! ```sh
//! cargo run --release -p kncube-bench --bin faults [-- --quick]
//! ```

use kncube_sim::{SimConfig, Simulator};
use kncube_topology::{Boundary, FaultRouter, KAryNCube, LinkKind};
use kncube_traffic::{sample_fault_set, FaultSpec};

/// One sweep point, seed-averaged.
struct SweepRow {
    p: f64,
    reach_mean: f64,
    detour_mean: f64,
    sim_reach: f64,
    sim_latency: f64,
    sim_dropped: u64,
    deadlocked: bool,
    certified: f64,
    witness_mean: Option<f64>,
    lower: f64,
    upper: f64,
}

/// Seed-averaged closed-form envelopes: `upper = (1-p)²`,
/// `lower = mean over ordered pairs of (1-p)^{2h+1}`.
fn envelopes(topo: &KAryNCube, p: f64) -> (f64, f64) {
    let q = 1.0 - p;
    let mut lower_sum = 0.0;
    let mut pairs = 0u64;
    for src in topo.nodes() {
        for dest in topo.nodes() {
            if src != dest {
                let h = topo.hop_count(src, dest);
                lower_sum += q.powi(2 * h as i32 + 1);
                pairs += 1;
            }
        }
    }
    (lower_sum / pairs as f64, q * q)
}

fn sweep_point(
    topo: KAryNCube,
    link_kind: LinkKind,
    boundary: Boundary,
    p: f64,
    seeds: u64,
    sim_cycles: u64,
) -> SweepRow {
    let spec = FaultSpec {
        router_failure_prob: p,
        link_failure_prob: p,
    };
    let mut reach_sum = 0.0;
    let mut detour_sum = 0.0;
    let mut uncertified = 0u64;
    let mut witness_sum = 0usize;
    for seed in 0..seeds {
        let router = FaultRouter::new(sample_fault_set(topo, spec, 0xFA0 + seed));
        reach_sum += router.reachable_fraction();
        detour_sum += router.expected_detour();
        if let Some(cycle) = router.dependency_cycle() {
            uncertified += 1;
            witness_sum += cycle.len();
        }
    }
    let mut cfg = SimConfig::ncube(topo.k(), 2, 8, 8, 1e-3, 0.0, 0xFA0)
        .with_topology(link_kind, boundary)
        .with_limits(sim_cycles, sim_cycles / 10, 0);
    if p > 0.0 {
        cfg = cfg.with_faults(spec);
    }
    let report = Simulator::new(cfg).expect("valid sweep config").run();
    let (lower, upper) = envelopes(&topo, p);
    SweepRow {
        p,
        reach_mean: reach_sum / seeds as f64,
        detour_mean: detour_sum / seeds as f64,
        sim_reach: report.reachable_fraction,
        sim_latency: report.mean_latency,
        sim_dropped: report.dropped_unreachable,
        deadlocked: report.deadlocked,
        certified: 1.0 - uncertified as f64 / seeds as f64,
        witness_mean: (uncertified > 0).then(|| witness_sum as f64 / uncertified as f64),
        lower,
        upper,
    }
}

fn check_rows(name: &str, rows: &[SweepRow], slack: f64) -> Vec<String> {
    let mut violations = Vec::new();
    for row in rows {
        let ctx = format!("{name} p={:.2}", row.p);
        if row.p == 0.0 {
            if row.reach_mean != 1.0 {
                violations.push(format!(
                    "{ctx}: fault-free reachability {} != 1",
                    row.reach_mean
                ));
            }
            if row.detour_mean != 0.0 {
                violations.push(format!("{ctx}: fault-free detour {} != 0", row.detour_mean));
            }
            if row.certified != 1.0 {
                violations.push(format!(
                    "{ctx}: only {:.2} of fault-free route sets certified deadlock-free",
                    row.certified
                ));
            }
        }
        if row.reach_mean > row.upper + slack {
            violations.push(format!(
                "{ctx}: reachability {:.4} above the (1-p)² envelope {:.4}",
                row.reach_mean, row.upper
            ));
        }
        if row.reach_mean < row.lower - slack {
            violations.push(format!(
                "{ctx}: reachability {:.4} below the minimal-path envelope {:.4}",
                row.reach_mean, row.lower
            ));
        }
        if row.deadlocked {
            violations.push(format!("{ctx}: simulation deadlocked"));
        }
        if row.p == 0.0 && row.sim_dropped != 0 {
            violations.push(format!("{ctx}: drops without faults"));
        }
    }
    // Reachability must not increase with the failure probability (beyond
    // sampling noise).
    for pair in rows.windows(2) {
        if pair[1].reach_mean > pair[0].reach_mean + slack {
            violations.push(format!(
                "{name}: reachability rose {:.4} → {:.4} as p rose {:.2} → {:.2}",
                pair[0].reach_mean, pair[1].reach_mean, pair[0].p, pair[1].p
            ));
        }
    }
    violations
}

fn print_rows(name: &str, rows: &[SweepRow]) {
    println!("\n{name}: reachable fraction vs element failure probability");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10} {:>9} {:>10} {:>8}",
        "p",
        "lower-env",
        "reach",
        "upper-env",
        "detour",
        "sim-reach",
        "latency",
        "dropped",
        "certified",
        "witness"
    );
    for r in rows {
        let witness = r
            .witness_mean
            .map_or_else(|| "-".to_string(), |w| format!("{w:.1}"));
        println!(
            "{:>6.2} {:>12.4} {:>12.4} {:>12.4} {:>10.3} {:>10.4} {:>10.1} {:>9} {:>10.2} {:>8}",
            r.p,
            r.lower,
            r.reach_mean,
            r.upper,
            r.detour_mean,
            r.sim_reach,
            r.sim_latency,
            r.sim_dropped,
            r.certified,
            witness
        );
    }
}

fn main() {
    let quick = kncube_bench::quick_flag();
    let (seeds, sim_cycles, slack, grid): (u64, u64, f64, &[f64]) = if quick {
        (4, 6_000, 0.10, &[0.0, 0.05, 0.15])
    } else {
        (20, 20_000, 0.05, &[0.0, 0.01, 0.02, 0.05, 0.10, 0.15, 0.20])
    };

    let mut all_violations = Vec::new();
    for (name, link_kind, boundary) in [
        (
            "8x8 bidirectional torus",
            LinkKind::Bidirectional,
            Boundary::Torus,
        ),
        ("8x8 mesh", LinkKind::Bidirectional, Boundary::Mesh),
    ] {
        let topo = KAryNCube::with_boundary(8, 2, link_kind, boundary).expect("valid topology");
        let rows: Vec<SweepRow> = grid
            .iter()
            .map(|&p| sweep_point(topo, link_kind, boundary, p, seeds, sim_cycles))
            .collect();
        print_rows(name, &rows);
        all_violations.extend(check_rows(name, &rows, slack));
    }

    kncube_bench::gate(
        "envelope check",
        "reachability inside the closed-form failure envelopes",
        &all_violations,
    );
}
