//! Shared harness for regenerating the paper's figures and the extension
//! experiments.
//!
//! Every binary in `src/bin/` drives the same primitives: a λ grid per
//! configuration, the analytical model, the flit-level simulator, and a
//! plain-text table/CSV emitter (the paper's figures are line charts of
//! latency vs. offered traffic; we print the series that draw them).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchfile;
pub mod json;
pub mod queries;
pub mod validate;

use kncube_core::{ModelError, NCubeConfig, NCubeModel, NCubeOutput, SaturationError};
use kncube_sim::{SimConfig, SimReport, Simulator};
use rayon::prelude::*;

/// The one `(lo, hi)` bracket every λ* search in this crate starts from.
/// [`kncube_core::bisect_saturation`] widens `hi` and walks `lo` down when
/// λ* lies outside it, so the bracket only sets where the bisection
/// starts — and therefore which λ* inside the tolerance it lands on.
pub const SATURATION_BRACKET: (f64, f64) = (1e-9, 1e-1);

/// Relative width to which the experiment binaries bisect λ*.
pub const SATURATION_REL_TOL: f64 = 1e-3;

/// Unwrap a result in an experiment or benchmark binary: on failure,
/// print `error: {context}: {e}` (the error's `Display` form, not its
/// `Debug` form) to stderr and exit 2.
pub fn or_exit<T, E: std::fmt::Display>(
    result: Result<T, E>,
    context: impl std::fmt::Display,
) -> T {
    match result {
        Ok(value) => value,
        Err(e) => {
            eprintln!("error: {context}: {e}");
            std::process::exit(2);
        }
    }
}

/// The print-and-exit tail of a gated experiment binary: print
/// `{check}: OK ({reason})` when `violations` is empty; otherwise list
/// them under `{check} violations:` and exit 1.
pub fn gate(check: &str, reason: &str, violations: &[String]) {
    if violations.is_empty() {
        println!("\n{check}: OK ({reason})");
    } else {
        println!("\n{check} violations:");
        for v in violations {
            println!("  - {v}");
        }
        std::process::exit(1);
    }
}

/// The command line of every experiment binary: `--quick` or nothing.
/// Any other argument prints a usage line and exits 2, so a mistyped flag
/// cannot silently start the full multi-minute grid.
pub fn quick_flag() -> bool {
    let mut args = std::env::args();
    let path = args.next().unwrap_or_default();
    let bin = std::path::Path::new(&path)
        .file_name()
        .map_or(path.clone(), |name| name.to_string_lossy().into_owned());
    let mut quick = false;
    for arg in args {
        if arg != "--quick" {
            eprintln!("error: unknown argument '{arg}'\nusage: {bin} [--quick]");
            std::process::exit(2);
        }
        quick = true;
    }
    quick
}

/// The `(k, n)` pairs the `ncube` experiment sweeps: three genuinely
/// higher-dimensional cubes plus the paper's 256-node torus as the
/// `n = 2` anchor.
pub const NCUBE_SWEEP: [(u32, u32); 4] = [(4, 3), (8, 3), (4, 4), (16, 2)];

/// One experimental configuration: a λ sweep of one `(k, n)` cube, such
/// as a subfigure of the paper.
#[derive(Clone, Copy, Debug)]
pub struct FigureConfig {
    /// Radix `k` (nodes per dimension).
    pub k: u32,
    /// Dimension count `n`.
    pub n: u32,
    /// Virtual channels per physical channel.
    pub v: u32,
    /// Message length in flits.
    pub lm: u32,
    /// Hot-spot fraction.
    pub h: f64,
    /// Number of λ points on the curve.
    pub points: usize,
    /// Highest λ as a fraction of the model's saturation rate.
    pub top_fraction: f64,
    /// Simulator seed.
    pub seed: u64,
    /// Simulator limits: (max_cycles, warmup, target messages).
    pub sim_limits: (u64, u64, u64),
}

impl FigureConfig {
    /// The paper's subfigure for `(lm, h)` on the 16×16 torus with tuned
    /// run lengths; `quick` shortens it for smoke tests (fewer points,
    /// shorter runs).
    pub fn paper(lm: u32, h: f64, quick: bool) -> Self {
        let (points, top_fraction, sim_limits) = if quick {
            (4, 0.8, (400_000, 40_000, 8_000))
        } else {
            (8, 0.95, (3_000_000, 150_000, 40_000))
        };
        FigureConfig {
            k: 16,
            n: 2,
            v: 2,
            lm,
            h,
            points,
            top_fraction,
            seed: 20_050_408, // the conference's opening day
            sim_limits,
        }
    }

    /// A `(k, n)` sweep with run lengths sized for cubes up to a few
    /// hundred nodes (`V` and seed as in [`FigureConfig::paper`]); `quick`
    /// shortens it for smoke tests.
    pub fn ncube(k: u32, n: u32, lm: u32, h: f64, quick: bool) -> Self {
        let (points, top_fraction, sim_limits) = if quick {
            (3, 0.7, (300_000, 30_000, 5_000))
        } else {
            (6, 0.9, (1_500_000, 100_000, 20_000))
        };
        FigureConfig {
            k,
            n,
            points,
            top_fraction,
            sim_limits,
            ..Self::paper(lm, h, quick)
        }
    }

    /// Node count `N = k^n`.
    pub fn num_nodes(&self) -> u64 {
        (self.k as u64).pow(self.n)
    }

    /// The model configuration at rate `lambda`.
    pub fn model_config(&self, lambda: f64) -> NCubeConfig {
        NCubeConfig::new(self.k, self.n, self.v, self.lm, lambda, self.h)
    }

    /// The simulator configuration at rate `lambda`.
    pub fn sim_config(&self, lambda: f64) -> SimConfig {
        let (max_cycles, warmup, target) = self.sim_limits;
        SimConfig::ncube(self.k, self.n, self.v, self.lm, lambda, self.h, self.seed)
            .with_limits(max_cycles, warmup, target)
    }

    /// The model's saturation rate `λ*`, searched from
    /// [`SATURATION_BRACKET`] to [`SATURATION_REL_TOL`].
    pub fn saturation(&self) -> Result<f64, SaturationError> {
        let (lo, hi) = SATURATION_BRACKET;
        kncube_core::find_saturation_ncube(self.model_config(0.0), lo, hi, SATURATION_REL_TOL)
    }

    /// The λ grid: `points` evenly-spaced rates from `top_fraction · λ*/points`
    /// to `top_fraction · λ*`, where `λ*` is [`FigureConfig::saturation`] —
    /// the same sweep the paper's figures plot.
    pub fn lambda_grid(&self) -> Result<Vec<f64>, SaturationError> {
        let sat = self.saturation()?;
        Ok((1..=self.points)
            .map(|i| sat * self.top_fraction * i as f64 / self.points as f64)
            .collect())
    }
}

/// One model-vs-simulator point: a row of a regenerated figure.
#[derive(Clone, Debug)]
pub struct FigureRow {
    /// Offered traffic (messages/node/cycle).
    pub lambda: f64,
    /// The model's prediction.
    pub model: Result<NCubeOutput, ModelError>,
    /// The simulation measurement.
    pub sim: SimReport,
}

/// Run every simulation on the pooled rayon workers and return the
/// reports in input order.  Every experiment batch of simulations goes
/// through here, so no output depends on the pool width.
pub fn simulate(configs: &[SimConfig]) -> Vec<SimReport> {
    configs
        .par_iter()
        .map(|&config| Simulator::new(config).expect("valid sim config").run())
        .collect()
}

/// Run the model and the simulator at each `(config, λ)` point, with the
/// config's fixed run lengths and no calibration.  The simulations run
/// in one [`simulate`] batch (they dominate the cost; the model solve
/// per point is cheap); rows come back in input order.
pub fn run_points(points: &[(FigureConfig, f64)]) -> Vec<FigureRow> {
    let configs: Vec<_> = points
        .iter()
        .map(|(c, lambda)| c.sim_config(*lambda))
        .collect();
    simulate(&configs)
        .into_iter()
        .zip(points)
        .map(|(sim, &(config, lambda))| FigureRow {
            lambda,
            model: NCubeModel::new(config.model_config(lambda)).and_then(|m| m.solve()),
            sim,
        })
        .collect()
}

/// The whole of a figure binary: run every figure's points in one
/// [`run_points`] call; then, for each `(title, prefix, config)` in turn,
/// print its rows under `title` and shape-check them, prefixing its
/// violations with `prefix`; then [`gate`] on all of them.
pub fn figure_main(runs: impl IntoIterator<Item = (String, String, FigureConfig)>, reason: &str) {
    let runs: Vec<_> = runs.into_iter().collect();
    let mut points = Vec::new();
    for (_, _, config) in &runs {
        let grid = or_exit(config.lambda_grid(), "saturation search failed");
        points.extend(grid.into_iter().map(|lambda| (*config, lambda)));
    }
    let mut rows = run_points(&points).into_iter();
    let mut violations = Vec::new();
    for (title, prefix, config) in &runs {
        let rows: Vec<_> = rows.by_ref().take(config.points).collect();
        print_figure(title, config, &rows);
        violations.extend(
            check_figure_shape(&rows)
                .into_iter()
                .map(|v| format!("{prefix}: {v}")),
        );
    }
    gate("shape check", reason, &violations);
}

/// Print a figure as an aligned table (and CSV-ish rows for re-plotting).
fn print_figure(title: &str, config: &FigureConfig, rows: &[FigureRow]) {
    println!("\n=== {title} ===");
    println!(
        "k={} n={} (N={}) V={} Lm={} h={:.0}% (seed {})",
        config.k,
        config.n,
        config.num_nodes(),
        config.v,
        config.lm,
        config.h * 100.0,
        config.seed
    );
    println!(
        "{:>12} {:>12} {:>12} {:>8} {:>8} {:>7}",
        "traffic", "model", "simulation", "ci95", "err%", "note"
    );
    for row in rows {
        let sim = &row.sim;
        let (model_str, err_str) = match &row.model {
            Ok(m) => (
                format!("{:12.1}", m.latency),
                format!(
                    "{:8.1}",
                    (m.latency - sim.mean_latency) / sim.mean_latency * 100.0
                ),
            ),
            Err(ModelError::Saturated { .. }) | Err(ModelError::NotConverged) => {
                ("   saturated".to_string(), "       -".to_string())
            }
            Err(e) => (format!("{e}"), "       -".to_string()),
        };
        println!(
            "{:>12.4e} {model_str} {:>12.1} {:>8.1} {err_str} {:>7}",
            row.lambda,
            sim.mean_latency,
            sim.ci_half_width.unwrap_or(f64::NAN),
            if sim.saturated { "SAT" } else { "" }
        );
    }
}

/// Shape assertions: the paper's headline claims for one regenerated
/// figure.  Returns a list of violated claims (empty = all good).
fn check_figure_shape(rows: &[FigureRow]) -> Vec<String> {
    let mut violations = Vec::new();
    // Claim 1: at light load (first half of the grid, excluding points the
    // simulator itself flagged saturated) the model tracks simulation.
    for row in rows.iter().take(rows.len() / 2) {
        if row.sim.saturated {
            continue;
        }
        match &row.model {
            Ok(m) => {
                let err = (m.latency - row.sim.mean_latency) / row.sim.mean_latency;
                if err.abs() > 0.25 {
                    violations.push(format!(
                        "light-load error {:.0}% at λ={:.3e}",
                        err * 100.0,
                        row.lambda
                    ));
                }
            }
            Err(_) => violations.push(format!(
                "model saturated at light load λ={:.3e}",
                row.lambda
            )),
        }
    }
    // Claim 2: simulated latency grows monotonically with load (within
    // noise) — it is a latency/throughput curve.
    for pair in rows.windows(2) {
        let (a, b) = (&pair[0].sim, &pair[1].sim);
        if a.saturated || b.saturated {
            continue;
        }
        let slack =
            3.0 * (a.ci_half_width.unwrap_or(0.0) + b.ci_half_width.unwrap_or(0.0)).max(1.0);
        if b.mean_latency + slack < a.mean_latency {
            violations.push(format!(
                "simulated latency decreased: {:.1} → {:.1} between λ={:.3e} and {:.3e}",
                a.mean_latency, b.mean_latency, pair[0].lambda, pair[1].lambda
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_grid_is_increasing_and_below_saturation() {
        let cfg = FigureConfig::paper(32, 0.2, false);
        let grid = cfg.lambda_grid().expect("paper config saturates");
        assert_eq!(grid.len(), cfg.points);
        for pair in grid.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        // The whole grid must be solvable by the model except possibly the
        // last point (at 95% of λ* it should still solve).
        for &l in &grid {
            assert!(
                NCubeModel::new(cfg.model_config(l))
                    .unwrap()
                    .solve()
                    .is_ok(),
                "λ={l} unexpectedly saturated"
            );
        }
    }

    #[test]
    fn quick_figure_run_has_sane_shape() {
        let cfg = FigureConfig::paper(16, 0.3, true);
        let grid = cfg.lambda_grid().expect("paper config saturates");
        let rows = run_points(&grid.iter().map(|&l| (cfg, l)).collect::<Vec<_>>());
        assert_eq!(rows.len(), cfg.points);
        let violations = check_figure_shape(&rows);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn ncube_grid_is_solvable_below_saturation() {
        let cfg = FigureConfig::ncube(4, 3, 16, 0.3, false);
        let grid = cfg.lambda_grid().expect("hot-spot cubes saturate");
        assert_eq!(grid.len(), cfg.points);
        for pair in grid.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        for &l in &grid {
            assert!(
                NCubeModel::new(cfg.model_config(l))
                    .unwrap()
                    .solve()
                    .is_ok(),
                "λ={l} unexpectedly saturated"
            );
        }
    }

    #[test]
    fn quick_ncube_figure_run_has_sane_shape() {
        let cfg = FigureConfig::ncube(4, 3, 8, 0.3, true);
        let grid = cfg.lambda_grid().expect("hot-spot cubes saturate");
        let rows = run_points(&grid.iter().map(|&l| (cfg, l)).collect::<Vec<_>>());
        assert_eq!(rows.len(), cfg.points);
        let violations = check_figure_shape(&rows);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn the_grid_tops_out_at_the_one_saturation_search() {
        for cfg in [
            FigureConfig::paper(32, 0.4, true),
            FigureConfig::paper(100, 0.7, false),
            FigureConfig::ncube(8, 3, 16, 0.2, true),
            FigureConfig::ncube(4, 4, 16, 0.2, false),
        ] {
            let sat = cfg.saturation().expect("hot-spot cubes saturate");
            let top = *cfg.lambda_grid().unwrap().last().unwrap();
            assert_eq!(top.to_bits(), (sat * cfg.top_fraction).to_bits());
        }
    }

    #[test]
    fn paper_preset_keeps_its_full_and_quick_grids() {
        for (quick, points, top, limits) in [
            (false, 8, 0.95, (3_000_000, 150_000, 40_000)),
            (true, 4, 0.8, (400_000, 40_000, 8_000)),
        ] {
            let cfg = FigureConfig::paper(100, 0.7, quick);
            assert_eq!((cfg.k, cfg.n, cfg.v, cfg.lm, cfg.h), (16, 2, 2, 100, 0.7));
            assert_eq!(
                (cfg.points, cfg.top_fraction, cfg.sim_limits),
                (points, top, limits)
            );
            assert_eq!(cfg.seed, 20_050_408);
            assert_eq!(cfg.num_nodes(), 256);
        }
    }

    #[test]
    fn ncube_preset_keeps_its_full_and_quick_grids() {
        for (quick, points, top, limits) in [
            (false, 6, 0.9, (1_500_000, 100_000, 20_000)),
            (true, 3, 0.7, (300_000, 30_000, 5_000)),
        ] {
            let cfg = FigureConfig::ncube(8, 3, 16, 0.2, quick);
            assert_eq!((cfg.k, cfg.n, cfg.v, cfg.lm, cfg.h), (8, 3, 2, 16, 0.2));
            assert_eq!(
                (cfg.points, cfg.top_fraction, cfg.sim_limits),
                (points, top, limits)
            );
            assert_eq!(cfg.seed, 20_050_408);
            assert_eq!(cfg.num_nodes(), 512);
            assert_eq!(cfg.sim_config(1e-4).n, 3);
        }
    }
}
