//! Saturation map: where does the network collapse as a function of the
//! hot-spot fraction and message length?
//!
//! The paper's six validation curves (Figures 1–2) each stop just past
//! the saturation point of their configuration; this example computes the
//! whole map with the analytical model (cheap — milliseconds per point)
//! and prints the flit-bound approximation `1/(h·k(k-1)·(Lm+1))` next to
//! it to show what governs the collapse.
//!
//! ```sh
//! cargo run --release --example saturation_sweep
//! ```

use kncube::model::{find_saturation_ncube, NCubeConfig};

fn main() {
    let (k, v) = (16u32, 2u32);
    let lengths = [16u32, 32, 64, 100];
    let fractions = [0.05, 0.1, 0.2, 0.4, 0.7, 0.9];

    println!("model saturation rate λ* (messages/node/cycle), {k}x{k} torus, V={v}\n");
    print!("{:>6}", "h\\Lm");
    for lm in lengths {
        print!(" {lm:>11}");
    }
    println!();

    for h in fractions {
        print!("{h:>6.2}");
        for lm in lengths {
            let base = NCubeConfig::new(k, 2, v, lm, 0.0, h);
            let sat = find_saturation_ncube(base, 1e-8, 1e-2, 1e-3)
                .expect("swept configurations saturate inside the bracket");
            print!(" {sat:>11.3e}");
        }
        println!();
    }

    println!("\nhot-channel flit bound 1/(h·k(k-1)·(Lm+1)) for comparison:");
    print!("{:>6}", "h\\Lm");
    for lm in lengths {
        print!(" {lm:>11}");
    }
    println!();
    for h in fractions {
        print!("{h:>6.2}");
        for lm in lengths {
            let bound = 1.0 / (h * (k * (k - 1)) as f64 * (lm + 1) as f64);
            print!(" {bound:>11.3e}");
        }
        println!();
    }

    println!(
        "\nreading: λ* tracks the flit bound closely (the gap is the share\n\
         of the hot channel consumed by background regular traffic), and\n\
         scales as 1/h and 1/Lm — the paper's Figures 1-2 axis ranges are\n\
         exactly these numbers for h ∈ {{0.2, 0.4, 0.7}}, Lm ∈ {{32, 100}}."
    );
}
