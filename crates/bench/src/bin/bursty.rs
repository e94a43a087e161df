//! EXT-BURST: the paper's stated future work, implemented on the
//! simulation side.
//!
//! §5: "there have been some attempts to construct analytical models for
//! interconnection networks operating under non-Poissonian traffic load,
//! including bursty and self-similar traffic.  Our next objective is to
//! extend the above modelling approach to deal with such traffic
//! patterns."
//!
//! This experiment quantifies how much the Poisson assumption hides: the
//! same *mean* load is offered through a two-state Markov-modulated
//! Poisson process with increasing peak-to-mean ratio β (bursts of rate
//! β·λ lasting ~200 cycles).  The Poisson-based model's prediction is the
//! β = 1 column; the simulator shows the latency the model would need to
//! capture for β > 1.
//!
//! ```sh
//! cargo run --release -p kncube-bench --bin bursty [-- --quick]
//! ```

use kncube_bench::{or_exit, FigureConfig};
use kncube_core::NCubeModel;
use kncube_sim::SimConfig;
use kncube_traffic::ArrivalProcess;

fn main() {
    let quick = kncube_bench::quick_flag();
    let fig = FigureConfig::paper(32, 0.2, false);
    let sat = or_exit(fig.saturation(), "saturation search failed");
    let betas = [1.0, 2.0, 4.0, 8.0];
    let fractions = if quick {
        vec![0.3, 0.6]
    } else {
        vec![0.2, 0.4, 0.6, 0.8]
    };
    let limits = if quick {
        (400_000u64, 40_000u64, 10_000u64)
    } else {
        (2_000_000, 150_000, 30_000)
    };

    println!("bursty traffic on the paper's network (k=16, V=2, Lm=32, h=20%)");
    println!("mean burst length 200 cycles; β = peak-to-mean ratio\n");
    print!("{:>12} {:>10}", "traffic", "model");
    for b in betas {
        print!(" {:>9}", format!("sim β={b:.0}"));
    }
    println!();

    // Cell `i` of the f × β grid, row by row, runs with replication seed `i`.
    let lambdas: Vec<f64> = fractions.iter().map(|f| f * sat).collect();
    let configs: Vec<SimConfig> = lambdas
        .iter()
        .flat_map(|&lambda| betas.map(|beta| (lambda, beta)))
        .zip(0u32..)
        .map(|((lambda, beta), cell)| {
            SimConfig {
                arrivals: ArrivalProcess::bursty(lambda, beta, 200.0),
                seed: kncube_traffic::replication_seed(fig.seed, cell),
                ..fig.sim_config(lambda)
            }
            .with_limits(limits.0, limits.1, limits.2)
        })
        .collect();
    let reports = kncube_bench::simulate(&configs);
    for (&lambda, reports) in lambdas.iter().zip(reports.chunks(betas.len())) {
        let model = NCubeModel::new(fig.model_config(lambda))
            .unwrap()
            .solve()
            .map(|o| format!("{:10.1}", o.latency))
            .unwrap_or_else(|_| " saturated".into());
        print!("{lambda:>12.3e} {model}");
        for report in reports {
            if report.saturated {
                print!(" {:>9}", "SAT");
            } else {
                print!(" {:>9.1}", report.mean_latency);
            }
        }
        println!();
    }

    println!(
        "\nreading: burstiness inflates latency at every load and drags the\n\
         effective saturation point down — the Poisson-based model (and the\n\
         β=1 column it matches) is increasingly optimistic as β grows,\n\
         which is exactly why the authors flag non-Poissonian modelling as\n\
         future work."
    );
}
