//! The validation matrix behind §4's sentence: "Extensive simulation
//! experiments have been conducted to validate the model for different
//! combinations of network sizes, message lengths, and hot-spot fraction
//! h, and the general conclusions have been found to be consistent across
//! all cases considered."
//!
//! Sweeps N ∈ {64, 256}, Lm ∈ {16, 32, 64, 100}, h ∈ {0, 0.05, 0.2, 0.4,
//! 0.7}, V ∈ {2, 3} at a moderate load (40% of each configuration's
//! saturation rate) and reports the model-vs-simulation relative error.
//!
//! ```sh
//! cargo run --release -p kncube-bench --bin validation [-- --quick]
//! ```

use kncube_bench::{or_exit, FigureConfig};
use kncube_core::NCubeModel;
use kncube_sim::Simulator;

fn main() {
    let quick = kncube_bench::quick_flag();
    let ks: &[u32] = if quick { &[8] } else { &[8, 16] };
    let lms: &[u32] = if quick { &[16, 32] } else { &[16, 32, 64, 100] };
    let hs: &[f64] = if quick {
        &[0.0, 0.2, 0.7]
    } else {
        &[0.0, 0.05, 0.2, 0.4, 0.7]
    };
    let vs: &[u32] = if quick { &[2] } else { &[2, 3] };

    println!(
        "{:>4} {:>4} {:>4} {:>5} {:>12} {:>10} {:>12} {:>7}",
        "k", "V", "Lm", "h", "λ (0.4λ*)", "model", "simulation", "err%"
    );

    let mut worst: f64 = 0.0;
    let mut worst_hot: f64 = 0.0;
    let mut count = 0u32;
    let mut cell = 0u32;
    for &k in ks {
        for &v in vs {
            for &lm in lms {
                for &h in hs {
                    let mut cfg = FigureConfig::paper(lm, h, false);
                    cfg.k = k;
                    cfg.v = v;
                    cfg.seed = kncube_traffic::replication_seed(cfg.seed, cell);
                    cell += 1;
                    cfg.sim_limits = if quick {
                        (400_000, 40_000, 10_000)
                    } else {
                        (1_500_000, 100_000, 30_000)
                    };
                    let lambda = 0.4 * or_exit(cfg.saturation());
                    let model = NCubeModel::new(cfg.model_config(lambda)).unwrap().solve();
                    let sim = Simulator::new(cfg.sim_config(lambda)).unwrap().run();
                    match model {
                        Ok(m) => {
                            let err = (m.latency - sim.mean_latency) / sim.mean_latency * 100.0;
                            worst = worst.max(err.abs());
                            if h > 0.0 {
                                worst_hot = worst_hot.max(err.abs());
                            }
                            count += 1;
                            println!(
                                "{k:>4} {v:>4} {lm:>4} {h:>5.2} {lambda:>12.3e} {:>10.1} {:>12.1} {err:>7.1}",
                                m.latency, sim.mean_latency
                            );
                        }
                        Err(e) => println!(
                            "{k:>4} {v:>4} {lm:>4} {h:>5.2} {lambda:>12.3e} {e:>10} {:>12.1} {:>7}",
                            sim.mean_latency, "-"
                        ),
                    }
                }
            }
        }
    }
    println!("\n{count} configurations; worst |error| at 0.4λ*: {worst:.1}%");
    println!(
        "worst |error| within the paper's hot-spot scope (h > 0): {worst_hot:.1}%\n\
         (h = 0 rows probe pure uniform traffic, which the paper never\n\
         validates — the blocking operator's mid-load optimism shows there)"
    );
}
