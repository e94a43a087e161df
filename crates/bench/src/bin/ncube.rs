//! EXT-NCUBE: the generalized k-ary n-cube sweep — the paper's title
//! promise made concrete.  Runs the generalized analytical model
//! ([`kncube_core::NCubeModel`]) against the flit-level simulator over
//! `(k, n) ∈ {(4,3), (8,3), (4,4), (16,2)}` under hot-spot traffic: three
//! genuinely 3-/4-dimensional cubes plus the paper's own 256-node torus as
//! the `n = 2` anchor.
//!
//! ```sh
//! cargo run --release -p kncube-bench --bin ncube [-- --quick]
//! ```

use kncube_bench::{figure_main, FigureConfig, NCUBE_SWEEP};

fn main() {
    let quick = kncube_bench::quick_flag();
    let (lm, h) = (16u32, 0.2f64);
    figure_main(
        NCUBE_SWEEP.map(|(k, n)| {
            (
                format!("{k}-ary {n}-cube, h = {:.0}% (Lm = {lm} flits)", h * 100.0),
                format!("(k={k}, n={n})"),
                FigureConfig::ncube(k, n, lm, h, quick),
            )
        }),
        "generalized model tracks simulation at light/moderate load",
    );
}
