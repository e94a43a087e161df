//! Regenerate **Figure 2** of the paper: mean message latency predicted by
//! the model against simulation results, message length `Lm = 100` flits,
//! hot-spot fractions `h ∈ {20%, 40%, 70%}`, on the 256-node (16×16)
//! unidirectional torus with `V = 2` virtual channels.
//!
//! ```sh
//! cargo run --release -p kncube-bench --bin figure2 [-- --quick]
//! ```

use kncube_bench::{figure_main, FigureConfig};

fn main() {
    let quick = kncube_bench::quick_flag();
    figure_main(
        [0.2, 0.4, 0.7].map(|h| {
            (
                format!("Figure 2, h = {:.0}% (Lm = 100 flits)", h * 100.0),
                format!("h={h}"),
                FigureConfig::paper(100, h, quick),
            )
        }),
        "model tracks simulation at light/moderate load",
    );
}
