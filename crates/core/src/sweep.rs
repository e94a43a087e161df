//! Saturation search: the largest rate `λ*` at which a model still has a
//! solution, found by bisection on solvability.
//!
//! [`bisect_saturation`] is the workspace's one saturation search.  It
//! takes any stability probe: the closed-form model
//! ([`find_saturation_ncube_report`]), the faulty-network model
//! ([`FaultyNCubeModel::saturation`]) and the experiment harness's
//! simulator probe all run through it.
//!
//! Neighbouring bisection probes have *nearby fixed points*, so
//! [`find_saturation_ncube_report`] warm-starts each probe from the last
//! solvable probe's converged state ([`NCubeModel::solve_warm`]) and
//! surfaces the probe/iteration counts.
//!
//! [`FaultyNCubeModel::saturation`]: crate::FaultyNCubeModel::saturation

use crate::ncube::{NCubeConfig, NCubeModel};

/// Why a saturation search could not produce a saturation rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SaturationError {
    /// The requested bracket is malformed: `lo`/`hi`/`rel_tol` must be
    /// finite with `0 <= lo < hi` and `rel_tol > 0`.
    InvalidBracket {
        /// The lower edge as requested.
        lo: f64,
        /// The upper edge as requested.
        hi: f64,
        /// The requested relative tolerance.
        rel_tol: f64,
    },
    /// Geometric widening of `hi` never reached a saturated rate — the
    /// model stayed solvable up to `last_hi` (the last finite rate
    /// probed), so there is no `λ*` inside any reasonable bracket.
    BracketNotFound {
        /// The largest rate probed before giving up.
        last_hi: f64,
    },
    /// No probed rate has a solution: every probe failed, down to
    /// `lowest` after halving the lower edge 64 times (or to zero).
    NoSolvableRate {
        /// The smallest rate probed.
        lowest: f64,
    },
}

impl std::fmt::Display for SaturationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SaturationError::InvalidBracket { lo, hi, rel_tol } => write!(
                f,
                "invalid saturation bracket: lo={lo}, hi={hi}, rel_tol={rel_tol} \
                 (need finite 0 <= lo < hi and rel_tol > 0)"
            ),
            SaturationError::BracketNotFound { last_hi } => write!(
                f,
                "saturation bracket not found: model still solvable at λ={last_hi:e}"
            ),
            SaturationError::NoSolvableRate { lowest } => write!(
                f,
                "no solvable rate: model saturated at every rate probed, down to λ={lowest:e}"
            ),
        }
    }
}

impl std::error::Error for SaturationError {}

/// What a saturation search did to find `λ*` — the bracketing rate plus
/// the solver work it took, so warm-start savings are measurable instead
/// of being discarded with the probe results.
#[derive(Clone, Copy, Debug)]
pub struct SaturationReport {
    /// The saturation rate `λ*` (midpoint of the final bracket).
    pub lambda_star: f64,
    /// Model evaluations performed during widening + bisection.
    pub probes: usize,
    /// Total fixed-point iterations across the *solvable* probes (failed
    /// probes abort without a converged count).
    pub solver_iterations: usize,
}

impl SaturationReport {
    /// Mean fixed-point iterations per probe (0 when nothing was probed;
    /// failed probes count in the denominator but contribute no
    /// iterations).
    pub fn mean_iterations(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.solver_iterations as f64 / self.probes as f64
        }
    }
}

/// Find the saturation rate `λ*` of `base` by bisection: the largest rate
/// at which [`NCubeModel`] still has a solution, bracketed to a relative
/// width of `rel_tol`.
///
/// `hi` should be saturated and `lo` solvable (or zero); the search widens
/// `hi` geometrically if it is not saturated yet, and halves `lo` if no
/// rate above it solves.  If the widening runs away — the model stays
/// solvable until `hi` stops being a useful rate — the search reports
/// [`SaturationError::BracketNotFound`]; if no rate solves at all,
/// [`SaturationError::NoSolvableRate`].  Neither panics.
pub fn find_saturation_ncube(
    base: NCubeConfig,
    lo: f64,
    hi: f64,
    rel_tol: f64,
) -> Result<f64, SaturationError> {
    find_saturation_ncube_report(base, lo, hi, rel_tol).map(|r| r.lambda_star)
}

/// [`find_saturation_ncube`] with the probe/iteration accounting.  Every
/// probe is warm-started from the converged state of the last *solvable*
/// probe — bisection probes cluster around `λ*`, so the states are close
/// and most probes converge in a handful of iterations.
pub fn find_saturation_ncube_report(
    base: NCubeConfig,
    lo: f64,
    hi: f64,
    rel_tol: f64,
) -> Result<SaturationReport, SaturationError> {
    let mut warm: Option<Vec<f64>> = None;
    bisect_saturation(lo, hi, rel_tol, |lambda| {
        let model = NCubeModel::new(NCubeConfig { lambda, ..base }).ok()?;
        let (out, state) = model.solve_warm(warm.as_deref()).ok()?;
        warm = Some(state);
        Some(out.iterations)
    })
}

/// The one saturation search: bisect the edge between the rates `probe`
/// accepts and the rates it rejects to a relative width of `rel_tol`.
/// `probe` returns `Some(iterations)` when the system is stable at the
/// given rate (a model solves, a simulated network keeps up with its
/// offered load) and `None` when it is not; the report counts every probe
/// and sums the iterations of the stable ones.
///
/// A stable `hi` is doubled until it is not.  Every stable probe raises
/// `lo`, so a search that ends with `lo` where the caller put it found no
/// stable rate; it then halves `lo` until it is stable (DESIGN.md
/// §Saturation search).  A malformed bracket, a runaway widening and a
/// probe that never accepts are typed errors, never panics.
pub fn bisect_saturation(
    mut lo: f64,
    mut hi: f64,
    rel_tol: f64,
    mut probe: impl FnMut(f64) -> Option<usize>,
) -> Result<SaturationReport, SaturationError> {
    if !(lo.is_finite() && hi.is_finite() && rel_tol.is_finite())
        || lo < 0.0
        || hi <= lo
        || rel_tol <= 0.0
    {
        return Err(SaturationError::InvalidBracket { lo, hi, rel_tol });
    }
    let mut probes = 0usize;
    let mut solver_iterations = 0usize;
    let mut solvable = |lambda| {
        probes += 1;
        probe(lambda)
            .map(|iterations| solver_iterations += iterations)
            .is_some()
    };
    // Widen until hi is saturated (bounded: utilization grows linearly in
    // λ, so a few doublings always suffice for a solvable model; a model
    // that never saturates exhausts the guard instead).
    let requested_lo = lo;
    let mut guard = 0;
    while solvable(hi) {
        lo = hi;
        hi *= 2.0;
        guard += 1;
        if guard >= 64 || !hi.is_finite() {
            return Err(SaturationError::BracketNotFound { last_hi: lo });
        }
    }
    narrow(&mut lo, &mut hi, rel_tol, &mut solvable);
    if lo == requested_lo {
        let mut guard = 0;
        loop {
            if lo == 0.0 || guard >= 64 {
                return Err(SaturationError::NoSolvableRate { lowest: hi });
            }
            if solvable(lo) {
                break;
            }
            hi = lo;
            lo *= 0.5;
            guard += 1;
        }
        narrow(&mut lo, &mut hi, rel_tol, &mut solvable);
    }
    Ok(SaturationReport {
        lambda_star: 0.5 * (lo + hi),
        probes,
        solver_iterations,
    })
}

/// Bisect `[lo, hi]` (solvable below, saturated at `hi`) down to a
/// relative width of `rel_tol`.
fn narrow(lo: &mut f64, hi: &mut f64, rel_tol: f64, solvable: &mut impl FnMut(f64) -> bool) {
    while (*hi - *lo) / *hi > rel_tol {
        let mid = 0.5 * (*lo + *hi);
        if solvable(mid) {
            *lo = mid;
        } else {
            *hi = mid;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_orders_by_hot_fraction_and_length() {
        let sat = |lm: u32, h: f64| {
            find_saturation_ncube(NCubeConfig::new(16, 2, 2, lm, 0.0, h), 1e-6, 1e-3, 1e-3)
                .expect("paper configs saturate inside the bracket")
        };
        let s20 = sat(32, 0.2);
        let s40 = sat(32, 0.4);
        let s70 = sat(32, 0.7);
        assert!(s20 > s40 && s40 > s70, "{s20} {s40} {s70}");
        // Longer messages saturate earlier.
        let s20_long = sat(100, 0.2);
        assert!(s20_long < s20);
        // And the figures' axes bracket the saturation points: Fig. 1
        // h=20% plots to 6e-4, h=70% to 2e-4.
        assert!(s20 > 2e-4 && s20 < 9e-4, "λ*={s20}");
        assert!(s70 > 5e-5 && s70 < 3e-4, "λ*={s70}");
    }

    #[test]
    fn ncube_saturation_tracks_the_generalized_flit_bound() {
        for (k, n, h) in [(8u32, 3u32, 0.3f64), (4, 4, 0.5), (16, 2, 0.2)] {
            let base = NCubeConfig::new(k, n, 2, 16, 0.0, h);
            let bound = NCubeModel::new(base).unwrap().flit_bound();
            let sat = find_saturation_ncube(base, 1e-9, 1e-1, 1e-3)
                .expect("hot-spot n-cubes saturate inside the bracket");
            assert!(
                sat < bound && sat > 0.5 * bound,
                "k={k} n={n} h={h}: λ*={sat:.3e} vs flit bound {bound:.3e}"
            );
        }
    }

    #[test]
    fn saturation_report_surfaces_probe_and_iteration_counts() {
        for (base, lo, hi) in [
            (NCubeConfig::new(8, 3, 2, 16, 0.0, 0.3), 1e-9, 1e-1),
            (NCubeConfig::new(16, 2, 2, 32, 0.0, 0.2), 1e-6, 1e-3),
        ] {
            let report = find_saturation_ncube_report(base, lo, hi, 1e-3).unwrap();
            let plain = find_saturation_ncube(base, lo, hi, 1e-3).unwrap();
            assert_eq!(report.lambda_star, plain);
            assert!(report.probes > 10, "bisection probes: {}", report.probes);
            assert!(report.solver_iterations > 0);
            assert!(report.mean_iterations() > 0.0);
        }
    }

    #[test]
    fn malformed_brackets_are_errors_not_panics() {
        let base = NCubeConfig::new(16, 2, 2, 32, 0.0, 0.2);
        for (lo, hi, tol) in [
            (1e-3, 1e-6, 1e-3),         // inverted
            (-1.0, 1e-3, 1e-3),         // negative lo
            (0.0, 1e-3, 0.0),           // zero tolerance
            (0.0, f64::INFINITY, 1e-3), // non-finite hi
            (0.0, f64::NAN, 1e-3),      // NaN hi
        ] {
            match find_saturation_ncube(base, lo, hi, tol) {
                Err(SaturationError::InvalidBracket { .. }) => {}
                other => panic!("expected InvalidBracket for ({lo}, {hi}, {tol}), got {other:?}"),
            }
        }
    }

    #[test]
    fn curve_latencies_monotone_until_saturation() {
        // Below the reported λ* the model solves with latency rising along
        // the grid; a rate one bracket-width past λ* no longer solves.
        let base = NCubeConfig::new(16, 2, 2, 32, 0.0, 0.4);
        let sat = find_saturation_ncube(base, 1e-6, 1e-3, 1e-3).unwrap();
        let solve = |lambda: f64| {
            NCubeModel::new(NCubeConfig { lambda, ..base })
                .unwrap()
                .solve()
        };
        let mut prev = 0.0;
        for i in 1..=10 {
            let lambda = sat * 0.99 * i as f64 / 10.0;
            let latency = solve(lambda).unwrap().latency;
            assert!(latency > prev, "λ={lambda}: {latency} <= {prev}");
            prev = latency;
        }
        assert!(solve(sat * 1.002).is_err());
    }

    #[test]
    fn bisection_brackets_a_step_to_the_requested_width() {
        let edge = 3.7e-4;
        let report =
            bisect_saturation(1e-9, 1e-4, 1e-6, |lambda| (lambda < edge).then_some(2)).unwrap();
        let sat = report.lambda_star;
        assert!((sat - edge).abs() <= 1e-6 * edge, "λ*={sat} vs edge {edge}");
        // Two doublings widen 1e-4 past the edge, then ~20 halvings.
        let probes = report.probes;
        assert!((20..40).contains(&probes), "probes: {probes}");
        // Only the solvable probes' iterations count.
        assert!(report.solver_iterations < 2 * probes);
        assert!(report.solver_iterations > 0 && report.solver_iterations % 2 == 0);
    }

    #[test]
    fn a_saturated_lower_edge_is_walked_down_not_reported() {
        // Every probe at or above the caller's `lo` fails: λ* lies below
        // the bracket, so the search halves `lo` until it solves instead
        // of reporting the unsolvable `lo` itself.
        let edge = 3e-10;
        let report =
            bisect_saturation(1e-9, 1e-1, 1e-6, |lambda| (lambda < edge).then_some(1)).unwrap();
        let sat = report.lambda_star;
        assert!((sat - edge).abs() <= 1e-6 * edge, "λ*={sat} vs edge {edge}");
        assert!(report.solver_iterations > 0);
    }

    #[test]
    fn a_model_that_never_solves_is_a_typed_error() {
        for lo in [1e-9, 0.0] {
            match bisect_saturation(lo, 1e-1, 1e-6, |_| None) {
                Err(SaturationError::NoSolvableRate { lowest }) => {
                    assert!((0.0..1e-20).contains(&lowest), "lo {lo}: lowest {lowest}")
                }
                other => panic!("lo {lo}: expected NoSolvableRate, got {other:?}"),
            }
        }
    }

    #[test]
    fn saturation_below_the_bracket_is_found_on_the_paper_torus() {
        // Lm = 10^7 with all traffic hot puts λ* under the flit bound
        // 1/(240·(Lm + 1)) ≈ 4.17e-10, below the queries' 1e-9 lower edge.
        let base = NCubeConfig::new(16, 2, 2, 10_000_000, 0.0, 1.0);
        let sat = find_saturation_ncube(base, 1e-9, 1e-1, 1e-6).unwrap();
        assert!(sat > 4.0e-10 && sat <= 4.17e-10, "λ*={sat:e}");
        let solve = |lambda: f64| {
            NCubeModel::new(NCubeConfig { lambda, ..base })
                .unwrap()
                .solve()
        };
        assert!(solve(0.99 * sat).is_ok());
        assert!(matches!(
            solve(1.01 * sat),
            Err(crate::ModelError::Saturated { .. })
        ));
    }

    #[test]
    fn runaway_widening_reports_bracket_not_found() {
        match bisect_saturation(0.0, 1e-3, 1e-3, |_| Some(1)) {
            Err(SaturationError::BracketNotFound { last_hi }) => {
                assert!(last_hi.is_finite() && last_hi > 1e-3)
            }
            other => panic!("expected BracketNotFound, got {other:?}"),
        }
    }
}
