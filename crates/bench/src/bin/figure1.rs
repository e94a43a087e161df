//! Regenerate **Figure 1** of the paper: mean message latency predicted by
//! the model against simulation results, message length `Lm = 32` flits,
//! hot-spot fractions `h ∈ {20%, 40%, 70%}`, on the 256-node (16×16)
//! unidirectional torus with `V = 2` virtual channels.
//!
//! ```sh
//! cargo run --release -p kncube-bench --bin figure1 [-- --quick]
//! ```

use kncube_bench::{check_figure_shape, or_exit, print_figure, run_figure, FigureConfig};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut all_violations = Vec::new();
    for h in [0.2, 0.4, 0.7] {
        let cfg = FigureConfig::paper(32, h, quick);
        let rows = or_exit(run_figure(&cfg));
        print_figure(
            &format!("Figure 1, h = {:.0}% (Lm = 32 flits)", h * 100.0),
            &cfg,
            &rows,
        );
        for v in check_figure_shape(&rows) {
            all_violations.push(format!("h={h}: {v}"));
        }
    }
    if all_violations.is_empty() {
        println!("\nshape check: OK (model tracks simulation at light/moderate load)");
    } else {
        println!("\nshape check violations:");
        for v in &all_violations {
            println!("  - {v}");
        }
        std::process::exit(1);
    }
}
