//! Degenerate equivalence at `k = 2`: with two nodes per ring the "other"
//! node is one hop away in either direction, so unidirectional and
//! bidirectional k-ary n-cubes are the *same network* — every route is a
//! single `Plus` hop per differing dimension, with identical Dally–Seitz
//! classes.  The engine must therefore produce **bit-identical** reports
//! for the two link kinds at every load: same channels used (the `Minus`
//! ports of the bidirectional cube stay idle forever), same event order,
//! same statistics accumulation order.

use kncube_sim::{SimConfig, Simulator};
use kncube_topology::{Boundary, LinkKind};

#[test]
fn k2_rings_coincide_across_a_lambda_grid() {
    // Hypercubes of 1 to 4 dimensions, a hot-spot and a uniform pattern,
    // across a λ grid spanning light to moderate load.
    for n in [1u32, 2, 4] {
        for h in [0.0, 0.3] {
            for &lambda in &[5e-4, 2e-3, 8e-3] {
                let uni =
                    SimConfig::ncube(2, n, 4, 8, lambda, h, 0xD06).with_limits(20_000, 1_000, 0);
                let bi = uni.with_topology(LinkKind::Bidirectional, Boundary::Torus);
                let ru = Simulator::new(uni).unwrap().run();
                let rb = Simulator::new(bi).unwrap().run();
                assert!(
                    ru.completed > 0,
                    "n={n} h={h} λ={lambda}: nothing completed"
                );
                // `f64`'s `Debug` form is a function of its bits, so this compares
                // every report field bit for bit.
                assert_eq!(
                    format!("{ru:?}"),
                    format!("{rb:?}"),
                    "n={n} h={h} λ={lambda}"
                );
            }
        }
    }
}

#[test]
fn k2_bidirectional_minus_channels_stay_idle() {
    // The equivalence holds *because* no k=2 route ever takes a Minus
    // channel: verify directly on the channel flit counters.
    use kncube_topology::{Channel, Direction, KAryNCube};
    let cfg = SimConfig::ncube(2, 3, 4, 8, 5e-3, 0.3, 7)
        .with_topology(LinkKind::Bidirectional, Boundary::Torus)
        .with_limits(10_000, 0, 0);
    let topo: KAryNCube = cfg.topology().unwrap();
    let mut sim = Simulator::new(cfg).unwrap();
    for _ in 0..10_000 {
        sim.step();
    }
    let mut plus_flits = 0;
    for from in topo.nodes() {
        for dim in 0..topo.n() {
            let plus = Channel {
                from,
                dim,
                direction: Direction::Plus,
            };
            let minus = Channel {
                from,
                dim,
                direction: Direction::Minus,
            };
            plus_flits += sim.channel_flits(plus.id(&topo));
            assert_eq!(
                sim.channel_flits(minus.id(&topo)),
                0,
                "a k=2 route took a Minus channel"
            );
        }
    }
    assert!(plus_flits > 0, "traffic must have flowed");
}
