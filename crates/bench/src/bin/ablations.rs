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

use kncube_bench::{or_exit, run_points, simulate, FigureConfig};
use kncube_core::{
    ModelError, ModelVariant, MultiplexingModel, NCubeConfig, NCubeModel, NCubeOutput,
    ServiceTimeModel,
};
use kncube_sim::{EjectionPolicy, SimConfig};

fn latency_cell(solved: &Result<NCubeOutput, ModelError>) -> String {
    match solved {
        Ok(o) => format!("{:10.1}", o.latency),
        Err(_) => " saturated".to_string(),
    }
}

fn model_latency(cfg: NCubeConfig) -> String {
    latency_cell(&NCubeModel::new(cfg).unwrap().solve())
}

fn main() {
    let quick = kncube_bench::quick_flag();
    let fig = FigureConfig::paper(32, 0.4, false);
    let sat = or_exit(fig.saturation(), "saturation search failed");
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
            latency_cell(&a),
            latency_cell(&b)
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

    let short = FigureConfig {
        sim_limits: if quick {
            (300_000, 30_000, 8_000)
        } else {
            (1_200_000, 100_000, 25_000)
        },
        ..fig
    };

    println!("\n== ABL-VMUX: multiplexing model vs simulation (Lm=32, h=40%) ==");
    println!(
        "{:>12} {:>10} {:>11} {:>12}",
        "traffic", "Dally V̄", "class-aware", "simulation"
    );
    let points: Vec<_> = grid.iter().map(|&lambda| (short, lambda)).collect();
    for row in run_points(&points) {
        let aware = NCubeConfig {
            multiplexing: MultiplexingModel::ClassAware,
            ..fig.model_config(row.lambda)
        };
        println!(
            "{:>12.3e} {} {} {:>11.1}{}",
            row.lambda,
            latency_cell(&row.model),
            model_latency(aware),
            row.sim.mean_latency,
            if row.sim.saturated { "S" } else { " " }
        );
    }
    println!("(Dally's Eq. 33-35 assumes any VC is usable; the Dally-Seitz classes");
    println!(" restrict hot messages to one class, which the class-aware variant");
    println!(" captures — it tracks the simulator more tightly at moderate load)");

    // ABL-EJECT and ABL-BUF share one batch: per load, buffer depths 1, 2
    // and 4, then the shared ejection channel.  ABL-EJECT's per-message
    // sink is the default, so it is depth 2's run.
    let configs: Vec<SimConfig> = grid
        .iter()
        .flat_map(|&lambda| {
            let base = short.sim_config(lambda);
            let shared = SimConfig {
                ejection: EjectionPolicy::SharedChannel,
                ..base
            };
            [1, 2, 4]
                .map(|buffer_depth| SimConfig {
                    buffer_depth,
                    ..base
                })
                .into_iter()
                .chain([shared])
        })
        .collect();
    let reports = simulate(&configs);
    let rows: Vec<_> = grid.iter().zip(reports.chunks(4)).collect();

    println!("\n== ABL-EJECT: ejection policy (simulation, Lm=32, h=40%) ==");
    println!(
        "{:>12} {:>12} {:>12}",
        "traffic", "per-msg sink", "shared 1f/c"
    );
    for (lambda, runs) in &rows {
        let (sink, shared) = (&runs[1], &runs[3]);
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
    let cell = |r: &kncube_sim::SimReport| {
        if r.saturated {
            "  saturated".to_string()
        } else {
            format!("{:>10.1}", r.mean_latency)
        }
    };
    for (lambda, runs) in &rows {
        let (d1, d2, d4) = (&runs[0], &runs[1], &runs[2]);
        println!("{lambda:>12.3e} {} {} {}", cell(d1), cell(d2), cell(d4));
    }
    println!("(depth 1 halves sustainable bandwidth — it saturates where depth 2 cruises)");
}
