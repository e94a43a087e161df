//! Regenerate **Figure 1** of the paper: mean message latency predicted by
//! the model against simulation results, message length `Lm = 32` flits,
//! hot-spot fractions `h ∈ {20%, 40%, 70%}`, on the 256-node (16×16)
//! unidirectional torus with `V = 2` virtual channels.
//!
//! ```sh
//! cargo run --release -p kncube-bench --bin figure1 [-- --quick]
//! ```

use kncube_bench::{figure_main, FigureConfig};

fn main() {
    let quick = kncube_bench::quick_flag();
    figure_main(
        [0.2, 0.4, 0.7].map(|h| {
            (
                format!("Figure 1, h = {:.0}% (Lm = 32 flits)", h * 100.0),
                format!("h={h}"),
                FigureConfig::paper(32, h, quick),
            )
        }),
        "model tracks simulation at light/moderate load",
    );
}
