//! EXT-FAULTY-MODEL: the faulty-network analytical model against the
//! flit-level simulator — the model-vs-sim sweep behind the
//! EXPERIMENTS.md fault-density error table.
//!
//! For an 8×8 bidirectional torus and an 8×8 mesh, sweeps a common
//! element-failure density `p` (routers and physical links alike),
//! samples the **same** deterministic fault set the simulator will use
//! (same spec, same seed), and compares
//! [`FaultyNCubeModel`](kncube_core::FaultyNCubeModel) latency predictions
//! against simulation at fixed fractions of the model's own saturation
//! rate `λ*`.
//!
//! The protocol is [`kncube_bench::validate`], shared with
//! `tests/model_vs_sim_faults.rs`: the simulator's instrumentation offset
//! is calibrated once per fault set at near-zero load, then every
//! calibrated prediction is **gated** by a load-dependent agreement
//! factor (1.2× through 0.5·λ*, 1.35× through 0.7·λ*, 2× at 0.85·λ*,
//! with the batch-means 95% CI band as an absolute override) — the
//! stated error envelope.  Reachability must agree exactly (model and
//! simulator share the fault-aware router), and violations exit
//! non-zero.
//!
//! ```sh
//! cargo run --release -p kncube-bench --bin faulty_model [-- --quick]
//! ```

use kncube_bench::validate::{self, agreement_factor, Grid, Row};
use kncube_topology::{Boundary, KAryNCube, LinkKind};

fn print_rows(name: &str, rows: &[Row]) {
    println!("\n{name}: faulty-model latency vs simulation (calibrated)");
    println!(
        "{:>6} {:>6} {:>12} {:>9} {:>9} {:>8} {:>8} {:>9} {:>8}",
        "p", "frac", "lambda", "model", "sim", "ratio", "factor", "reach", "samples"
    );
    for r in rows {
        println!(
            "{:>6.2} {:>6.2} {:>12.3e} {:>9.2} {:>9.2} {:>8.3} {:>8.2} {:>9.4} {:>8}",
            r.density,
            r.frac,
            r.lambda,
            r.predicted,
            r.sim,
            r.predicted / r.sim,
            agreement_factor(r.frac),
            r.reachable,
            r.completed,
        );
    }
}

fn main() {
    // Density `i` draws its fault set from seeds `0xFA17 + 100·i` onward,
    // so model and simulator see identical sets.
    let grid = if kncube_bench::quick_flag() {
        Grid {
            densities: &[0.0, 0.05],
            fracs: &[0.3, 0.6],
            seed_base: 0xFA17,
            cal_target: 1_200,
            target: 2_000,
            warmup: 12_000,
            min_completed: 800,
        }
    } else {
        Grid {
            densities: &[0.0, 0.02, 0.05, 0.10],
            fracs: &[0.3, 0.6, 0.85],
            seed_base: 0xFA17,
            cal_target: 3_000,
            target: 6_000,
            warmup: 25_000,
            min_completed: 2_500,
        }
    };

    let mut violations = Vec::new();
    for (name, boundary) in [
        ("8x8 bidirectional torus", Boundary::Torus),
        ("8x8 mesh", Boundary::Mesh),
    ] {
        let topo = KAryNCube::with_boundary(8, 2, LinkKind::Bidirectional, boundary)
            .expect("valid topology");
        let outcome = validate::sweep(name, topo, &grid);
        for note in &outcome.notes {
            println!("{note}");
        }
        print_rows(name, &outcome.rows);
        violations.extend(outcome.violations);
    }

    kncube_bench::gate(
        "envelope check",
        "model within the stated agreement factors of simulation up to 0.85·λ* \
         at every fault density",
        &violations,
    );
}
