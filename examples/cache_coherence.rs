//! Write-invalidation acknowledgements — the paper's second motivating
//! scenario.
//!
//! "In some cache coherency protocols, to perform write-invalidation, a
//! message is sent to all nodes having a dirty copy of the block.  Those
//! nodes then send an acknowledgement back to the host node … if all nodes
//! have a dirty copy of the block, this results in hot-spot traffic" (§1).
//!
//! This example models the acknowledgement storm: the *sharers* of a
//! widely-shared cache line all send short acks to the *home node*.  We
//! compare the latency that regular traffic suffers as collateral damage —
//! the hot column is a shared resource, so even messages that never target
//! the home node slow down when they must cross its column.
//!
//! ```sh
//! cargo run --release --example cache_coherence
//! ```

use kncube::model::{NCubeConfig, NCubeModel};
use kncube::sim::{SimConfig, Simulator};

fn main() {
    let (k, v) = (16, 2);
    let ack_flits = 8; // invalidation acks are short control messages
    let lambda = 1.2e-3; // aggregate load per node, messages/cycle

    println!(
        "invalidation-ack storms on a {k}x{k} torus: home node absorbs a \
         fraction h of all traffic\n"
    );
    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>14}",
        "h", "model regular", "model acks", "sim regular", "sim acks"
    );

    for h in [0.0, 0.1, 0.25, 0.5] {
        let model = NCubeModel::new(NCubeConfig::new(k, 2, v, ack_flits, lambda, h))
            .unwrap()
            .solve();
        let sim = Simulator::new(
            SimConfig::ncube(k, 2, v, ack_flits, lambda, h, 99)
                .with_limits(600_000, 50_000, 25_000),
        )
        .unwrap()
        .run();
        match model {
            Ok(m) => println!(
                "{h:>6.2} {:>14.1} {:>14.1} {:>14.1} {:>14.1}",
                m.regular_latency,
                if h > 0.0 { m.hot_latency } else { f64::NAN },
                sim.mean_latency_regular,
                if h > 0.0 {
                    sim.mean_latency_hot
                } else {
                    f64::NAN
                },
            ),
            Err(e) => println!("{h:>6.2} saturated ({e}); sim says {:.1}", sim.mean_latency),
        }
    }

    println!(
        "\nreading: the ack class pays the hot-column queueing, and the\n\
         regular class degrades with it — the collateral-damage effect the\n\
         paper's introduction warns about."
    );
}
