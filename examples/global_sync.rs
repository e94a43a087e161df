//! Global synchronisation — the paper's first motivating scenario.
//!
//! "Global synchronisation, where each node in the system sends a
//! synchronisation message to a distinguished node, is a typical situation
//! that can produce hot-spots" (§1, after \[23\]).
//!
//! A barrier round is exactly that: every node fires one short message at
//! the coordinator.  This example simulates repeated software barriers on
//! top of background uniform traffic by sweeping the hot fraction `h`
//! (the share of traffic that is barrier-bound) and shows how quickly the
//! coordinator's column melts: the sustainable network load collapses
//! roughly as `1/(h·k(k-1)·Lm)` while the uniform-only network would
//! carry an order of magnitude more.
//!
//! ```sh
//! cargo run --release --example global_sync
//! ```

use kncube::model::{find_saturation_ncube, NCubeConfig, NCubeModel, UniformModel};
use kncube::sim::{SimConfig, Simulator};

fn main() {
    let (k, v, lm) = (16, 2, 16); // short 16-flit synchronisation messages

    println!("barrier coordinator on a {k}x{k} torus, {lm}-flit messages\n");
    println!(
        "{:>6} {:>14} {:>16} {:>18}",
        "h", "model λ* (sat)", "latency @ 0.5λ*", "sim latency @ 0.5λ*"
    );

    for h in [0.05, 0.1, 0.2, 0.4, 0.7] {
        let base = NCubeConfig::new(k, 2, v, lm, 0.0, h);
        let sat = find_saturation_ncube(base, 1e-7, 1e-2, 1e-3)
            .expect("barrier hot-spot configurations saturate inside the bracket");
        let lambda = 0.5 * sat;
        let model = NCubeModel::new(NCubeConfig { lambda, ..base })
            .unwrap()
            .solve()
            .expect("half of saturation is solvable");
        let sim = Simulator::new(
            SimConfig::ncube(k, 2, v, lm, lambda, h, 7).with_limits(800_000, 60_000, 20_000),
        )
        .unwrap()
        .run();
        println!(
            "{h:>6.2} {sat:>14.3e} {:>16.1} {:>15.1}±{:<4.1}",
            model.latency,
            sim.mean_latency,
            sim.ci_half_width.unwrap_or(f64::NAN)
        );
    }

    // The uniform-traffic reference: what the same network carries with no
    // barrier concentration at all.
    let uniform_sat = {
        let mut lo = 1e-5;
        let mut hi = 1e-2;
        while (hi - lo) / hi > 1e-3 {
            let mid = 0.5 * (lo + hi);
            if UniformModel::new(k, v, lm, mid).solve().is_ok() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    };
    println!(
        "\nuniform traffic (h = 0) saturates at λ* ≈ {uniform_sat:.3e} — \
         a 5% barrier share already costs most of that headroom."
    );
}
