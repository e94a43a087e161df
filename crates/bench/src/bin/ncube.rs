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

use kncube_bench::{
    check_figure_shape, or_exit, print_figure, run_figure, FigureConfig, NCUBE_SWEEP,
};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (lm, h) = (16u32, 0.2f64);
    let mut all_violations = Vec::new();
    for (k, n) in NCUBE_SWEEP {
        let cfg = FigureConfig::ncube(k, n, lm, h, quick);
        let rows = or_exit(run_figure(&cfg));
        print_figure(
            &format!("{k}-ary {n}-cube, h = {:.0}% (Lm = {lm} flits)", h * 100.0),
            &cfg,
            &rows,
        );
        for v in check_figure_shape(&rows) {
            all_violations.push(format!("(k={k}, n={n}): {v}"));
        }
    }
    if all_violations.is_empty() {
        println!("\nshape check: OK (generalized model tracks simulation at light/moderate load)");
    } else {
        println!("\nshape check violations:");
        for v in &all_violations {
            println!("  - {v}");
        }
        std::process::exit(1);
    }
}
