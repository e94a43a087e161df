//! Saturation-point study (experiment SAT in DESIGN.md): the paper's
//! figure axes implicitly encode where each configuration saturates;
//! this binary makes that explicit, comparing the model's divergence
//! point against the simulator's queue-blow-up point and the hot-channel
//! flit bound `1/(h·k(k-1)·(Lm+1))`.
//!
//! ```sh
//! cargo run --release -p kncube-bench --bin saturation [-- --quick]
//! ```

use kncube_bench::{or_exit, FigureConfig};
use kncube_core::bisect_saturation;
use kncube_sim::Simulator;

/// Whether the simulated network fails to deliver its offered load at
/// `lambda`: the stability probe of the simulator's saturation search.
///
/// Saturation in an open network is a *throughput deficit*: past λ* the
/// delivery rate pins at capacity while the offered rate keeps rising, and
/// the backlog grows without bound.  (Watching source-queue lengths alone
/// is too blunt near the bound — the early excess spreads over all N
/// queues and takes millions of cycles to trip any per-queue threshold.)
fn saturates(cfg: &FigureConfig, lambda: f64) -> bool {
    let report = Simulator::new(cfg.sim_config(lambda))
        .expect("the paper preset is a valid simulator configuration")
        .run();
    if report.saturated {
        return true;
    }
    // Statistical guard: Poisson counting noise on the measured
    // throughput, plus a 1.5% systematic allowance for warm-up edge
    // effects.
    let measured_cycles = (report.cycles.saturating_sub(cfg.sim_limits.1)).max(1) as f64;
    let n = cfg.num_nodes() as f64;
    let sigma = (lambda / (measured_cycles * n)).sqrt();
    report.throughput < lambda - (3.0 * sigma + 0.015 * lambda)
}

fn main() {
    let quick = kncube_bench::quick_flag();
    println!(
        "{:>4} {:>4} {:>5} {:>14} {:>14} {:>14} {:>9}",
        "Lm", "V", "h", "model λ*", "sim λ*", "flit bound", "model/sim"
    );
    let configs: Vec<(u32, f64)> = if quick {
        vec![(32, 0.2), (32, 0.7)]
    } else {
        vec![
            (32, 0.2),
            (32, 0.4),
            (32, 0.7),
            (100, 0.2),
            (100, 0.4),
            (100, 0.7),
        ]
    };
    for (lm, h) in configs {
        let mut cfg = FigureConfig::paper(lm, h, false);
        // Short runs suffice: saturation shows up fast in the queues.
        cfg.sim_limits = if quick {
            (250_000, 25_000, 0)
        } else {
            (600_000, 50_000, 0)
        };
        let model_sat = or_exit(cfg.saturation());
        // The model's search, driven by the simulator: bisect to 5%.
        let sim_sat = or_exit(bisect_saturation(
            0.5 * model_sat,
            1.4 * model_sat,
            0.05,
            |lambda| (!saturates(&cfg, lambda)).then_some(0),
        ))
        .lambda_star;
        let bound = 1.0 / (h * (cfg.k * (cfg.k - 1)) as f64 * (lm + 1) as f64);
        println!(
            "{lm:>4} {:>4} {h:>5.2} {model_sat:>14.3e} {sim_sat:>14.3e} {bound:>14.3e} {:>9.2}",
            cfg.v,
            model_sat / sim_sat
        );
    }
    println!(
        "\nreading: model and simulator collapse at the same operating\n\
         points (ratio ≈ 1), both slightly below the pure flit bound — the\n\
         background regular traffic consumes the difference."
    );
}
