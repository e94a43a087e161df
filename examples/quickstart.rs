//! Quickstart: evaluate the analytical model and validate one operating
//! point against the flit-level simulator.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use kncube::model::{NCubeConfig, NCubeModel};
use kncube::sim::{SimConfig, Simulator};

fn main() {
    // The paper's validation network: 16×16 unidirectional torus, V = 2
    // virtual channels, 32-flit messages, 20% of traffic aimed at one
    // hot-spot node, λ = 3·10⁻⁴ messages per node per cycle.
    let (k, v, lm, lambda, h) = (16, 2, 32, 3e-4, 0.2);

    println!("== analytical model (Eqs. 1-37) ==");
    let model =
        NCubeModel::new(NCubeConfig::new(k, 2, v, lm, lambda, h)).expect("valid configuration");
    let out = model.solve().expect("below saturation");
    println!("mean message latency : {:8.1} cycles", out.latency);
    println!("  regular messages   : {:8.1} cycles", out.regular_latency);
    println!("  hot-spot messages  : {:8.1} cycles", out.hot_latency);
    println!(
        "  source-queue wait  : {:8.2} cycles",
        out.source_wait_regular
    );
    println!(
        "  multiplexing degree: hot ring {:.3}, x channels {:.3}",
        out.vbar_hot[1], out.vbar_hot[0]
    );
    println!("  max utilization    : {:8.3}", out.max_utilization);
    println!("  fixed-point iters  : {:8}", out.iterations);

    println!("\n== flit-level simulation (same operating point) ==");
    let cfg =
        SimConfig::ncube(k, 2, v, lm, lambda, h, 2024).with_limits(1_500_000, 100_000, 30_000);
    let report = Simulator::new(cfg).expect("valid configuration").run();
    println!("mean message latency : {:8.1} cycles", report.mean_latency);
    if let Some(hw) = report.ci_half_width {
        println!("  95% half-width     : {:8.1} cycles", hw);
    }
    println!(
        "  regular messages   : {:8.1} cycles",
        report.mean_latency_regular
    );
    println!(
        "  hot-spot messages  : {:8.1} cycles",
        report.mean_latency_hot
    );
    println!("  messages measured  : {:8}", report.completed);
    println!("  cycles simulated   : {:8}", report.cycles);

    let err = (out.latency - report.mean_latency) / report.mean_latency * 100.0;
    println!("\nmodel vs simulation: {err:+.1}%");
}
