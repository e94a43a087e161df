//! EXT-HYPERCUBE: the paper's closest prior work, reference \[12\] —
//! hot-spot latency in the deterministically-routed binary hypercube —
//! rebuilt with the same methodology and validated against the flit-level
//! simulator (a hypercube is the 2-ary n-cube, which the simulator runs
//! natively).
//!
//! Also reproduces the structural comparison the paper's introduction
//! implies: at equal node count, the high-radix torus funnels almost twice
//! as much hot traffic through its worst channel as the hypercube
//! (`k(k-1)` vs `N/2` sources behind the last hop), so the torus saturates
//! earlier under hot-spot load — the gap the "first model for *high-radix*
//! cubes" claim is about.
//!
//! ```sh
//! cargo run --release -p kncube-bench --bin hypercube [-- --quick]
//! ```

use kncube_bench::{or_exit, FigureConfig};
use kncube_core::HypercubeModel;
use kncube_sim::SimConfig;

fn main() {
    let quick = kncube_bench::quick_flag();
    let (n, lm, h) = (6u32, 32u32, 0.3); // 64-node hypercube
    let model0 = HypercubeModel::new(n, 2, lm, 0.0, h).unwrap();
    let sat = model0.saturation_bound();
    let fractions = if quick {
        vec![0.2, 0.5]
    } else {
        vec![0.2, 0.4, 0.6, 0.8]
    };
    let limits = if quick {
        (400_000u64, 40_000u64, 10_000u64)
    } else {
        (2_000_000, 120_000, 30_000)
    };

    println!("binary {n}-cube (N = {}), V=2, Lm={lm}, h={h}", 1u64 << n);
    println!("model saturation bound λ* = {sat:.3e}\n");
    println!(
        "{:>12} {:>10} {:>14} {:>8}",
        "traffic", "model", "simulation", "err%"
    );
    // The simulator runs the hypercube as the 2-ary n-cube.
    let lambdas: Vec<f64> = fractions.iter().map(|f| f * sat).collect();
    let configs: Vec<SimConfig> = lambdas
        .iter()
        .map(|&lambda| {
            SimConfig::ncube(2, n, 2, lm, lambda, h, 20_050_408)
                .with_limits(limits.0, limits.1, limits.2)
        })
        .collect();
    for (&lambda, sim) in lambdas.iter().zip(kncube_bench::simulate(&configs)) {
        let model = HypercubeModel::new(n, 2, lm, lambda, h).unwrap().solve();
        match model {
            Ok(m) => println!(
                "{lambda:>12.3e} {:>10.1} {:>11.1}±{:<4.1} {:>6.1}",
                m.latency,
                sim.mean_latency,
                sim.ci_half_width.unwrap_or(f64::NAN),
                (m.latency - sim.mean_latency) / sim.mean_latency * 100.0
            ),
            Err(e) => println!("{lambda:>12.3e} {e:>10} {:>14.1}", sim.mean_latency),
        }
    }

    // Structural comparison at N = 256.
    let hyper256 = HypercubeModel::new(8, 2, 32, 0.0, 0.2)
        .unwrap()
        .saturation_bound();
    let torus256 = or_exit(
        FigureConfig::paper(32, 0.2, false).saturation(),
        "saturation search failed",
    );
    println!(
        "\nat N = 256, Lm = 32, h = 20%:\n\
         hypercube λ* ≈ {hyper256:.3e}   (worst channel drains N/2 = 128 hot sources)\n\
         16×16 torus λ* ≈ {torus256:.3e}   (worst channel drains k(k-1) = 240 hot sources)\n\
         ratio {:.2} — the high-radix torus pays for its low wire count under\n\
         hot-spot load, which is why a dedicated high-radix model was needed.",
        hyper256 / torus256
    );
}
