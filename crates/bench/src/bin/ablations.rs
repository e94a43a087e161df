//! Ablation studies for the reconstruction decisions called out in
//! DESIGN.md:
//!
//! * **ABL-EQ25** — Eq. (25)'s blocking term: x-channel entrance service
//!   (our reading) vs. the OCR's hot-ring service;
//! * **ABL-HOLD** — channel service-time model: pipelined transfer
//!   (`Lm + 1`, default) vs. path occupancy (`1 + S_{j-1}`);
//! * **ABL-EJECT** — simulator ejection policy: per-message sink
//!   (assumption iv) vs. a shared 1-flit/cycle ejection channel;
//! * **ABL-BUF** — per-VC buffer depth (unspecified in the paper):
//!   2 (sustains full pipelining) vs. 1 (half bandwidth) vs. 4.
//!
//! ```sh
//! cargo run --release -p kncube-bench --bin ablations [-- --quick]
//! ```

use kncube_bench::{or_exit, FigureConfig};
use kncube_core::{ModelVariant, MultiplexingModel, NCubeConfig, NCubeModel, ServiceTimeModel};
use kncube_sim::{EjectionPolicy, SimConfig, Simulator};

fn model_latency(cfg: NCubeConfig) -> String {
    match NCubeModel::new(cfg).unwrap().solve() {
        Ok(o) => format!("{:10.1}", o.latency),
        Err(_) => " saturated".to_string(),
    }
}

fn main() {
    let quick = kncube_bench::quick_flag();
    let fig = FigureConfig::paper(32, 0.4, false);
    let sat = or_exit(fig.saturation());
    let grid: Vec<f64> = [0.3, 0.6, 0.85].iter().map(|f| f * sat).collect();

    // The Eq. 25 reading only matters when competitor services depend on
    // the family (path occupancy); under the default pipelined transfer
    // both readings coincide at Lm + 1.  Use low loads where the
    // path-occupancy model still converges.
    let path_grid: Vec<f64> = [0.05, 0.1, 0.15].iter().map(|f| f * sat).collect();
    println!("== ABL-EQ25: Eq. (25) blocking service (model, path-occupancy, Lm=32, h=40%) ==");
    println!(
        "{:>12} {:>10} {:>10} {:>8}",
        "traffic", "x-ring", "hot-ring", "Δ%"
    );
    for &lambda in &path_grid {
        let base = NCubeConfig {
            service_model: ServiceTimeModel::PathOccupancy,
            ..fig.model_config(lambda)
        };
        let a = NCubeModel::new(base).unwrap().solve();
        let b = NCubeModel::new(NCubeConfig {
            variant: ModelVariant::HotRingServiceEq25,
            ..base
        })
        .unwrap()
        .solve();
        let delta = match (&a, &b) {
            (Ok(x), Ok(y)) => format!("{:8.2}", (y.latency - x.latency) / x.latency * 100.0),
            _ => "       -".into(),
        };
        println!(
            "{lambda:>12.3e} {} {} {delta}",
            model_latency(base),
            model_latency(NCubeConfig {
                variant: ModelVariant::HotRingServiceEq25,
                ..base
            })
        );
    }

    println!("\n== ABL-HOLD: service-time model (model, Lm=32, h=40%) ==");
    println!("{:>12} {:>10} {:>10}", "traffic", "pipelined", "path-occ");
    for &lambda in path_grid.iter().chain(&grid) {
        let base = fig.model_config(lambda);
        let path = NCubeConfig {
            service_model: ServiceTimeModel::PathOccupancy,
            ..base
        };
        println!(
            "{lambda:>12.3e} {} {}",
            model_latency(base),
            model_latency(path)
        );
    }
    println!("(path occupancy saturates far below the paper's plotted range — the");
    println!(" reason the pipelined reading is the default; see DESIGN.md)");

    let sim_limits = if quick {
        (300_000u64, 30_000u64, 8_000u64)
    } else {
        (1_200_000, 100_000, 25_000)
    };

    println!("\n== ABL-VMUX: multiplexing model vs simulation (Lm=32, h=40%) ==");
    println!(
        "{:>12} {:>10} {:>11} {:>12}",
        "traffic", "Dally V̄", "class-aware", "simulation"
    );
    for &lambda in &grid {
        let base = fig.model_config(lambda);
        let aware = NCubeConfig {
            multiplexing: MultiplexingModel::ClassAware,
            ..base
        };
        let sim = Simulator::new(fig.sim_config(lambda).with_limits(
            sim_limits.0,
            sim_limits.1,
            sim_limits.2,
        ))
        .unwrap()
        .run();
        println!(
            "{lambda:>12.3e} {} {} {:>11.1}{}",
            model_latency(base),
            model_latency(aware),
            sim.mean_latency,
            if sim.saturated { "S" } else { " " }
        );
    }
    println!("(Dally's Eq. 33-35 assumes any VC is usable; the Dally-Seitz classes");
    println!(" restrict hot messages to one class, which the class-aware variant");
    println!(" captures — it tracks the simulator more tightly at moderate load)");

    println!("\n== ABL-EJECT: ejection policy (simulation, Lm=32, h=40%) ==");
    println!(
        "{:>12} {:>12} {:>12}",
        "traffic", "per-msg sink", "shared 1f/c"
    );
    for &lambda in &grid {
        let mk = |policy| {
            let cfg = SimConfig {
                ejection: policy,
                ..fig.sim_config(lambda)
            }
            .with_limits(sim_limits.0, sim_limits.1, sim_limits.2);
            Simulator::new(cfg).unwrap().run()
        };
        let sink = mk(EjectionPolicy::PerMessageSink);
        let shared = mk(EjectionPolicy::SharedChannel);
        println!(
            "{lambda:>12.3e} {:>12.1} {:>11.1}{}",
            sink.mean_latency,
            shared.mean_latency,
            if shared.saturated { "S" } else { " " }
        );
    }

    println!("\n== ABL-BUF: per-VC buffer depth (simulation, Lm=32, h=40%) ==");
    println!(
        "{:>12} {:>10} {:>10} {:>10}",
        "traffic", "depth 1", "depth 2", "depth 4"
    );
    for &lambda in &grid {
        let mk = |depth| {
            let cfg = SimConfig {
                buffer_depth: depth,
                ..fig.sim_config(lambda)
            }
            .with_limits(sim_limits.0, sim_limits.1, sim_limits.2);
            Simulator::new(cfg).unwrap().run()
        };
        let d1 = mk(1);
        let d2 = mk(2);
        let d4 = mk(4);
        let cell = |r: &kncube_sim::SimReport| {
            if r.saturated {
                "  saturated".to_string()
            } else {
                format!("{:>10.1}", r.mean_latency)
            }
        };
        println!("{lambda:>12.3e} {} {} {}", cell(&d1), cell(&d2), cell(&d4));
    }
    println!("(depth 1 halves sustainable bandwidth — it saturates where depth 2 cruises)");
}
