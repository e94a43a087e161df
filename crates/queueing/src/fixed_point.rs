//! Picard and Anderson-accelerated fixed-point iteration for the model's
//! interdependent equations.
//!
//! §3 of the paper: "Given that a closed-form solution to these
//! interdependencies is very difficult to determine, the different variables
//! of the model are computed using iterative techniques."
//!
//! The baseline solver iterates `x_{n+1} = F(x_n)` on a flat `f64` state
//! vector, declaring convergence when the largest relative component change
//! drops below [`TOLERANCE`], and divergence when a component goes
//! non-finite or [`MAX_ITERATIONS`] are exhausted (which, for this model,
//! is how the saturation point manifests).
//!
//! [`Acceleration::Anderson`] switches the update to Anderson mixing
//! (type-II AA(m), the scheme used to accelerate routing-equilibrium
//! fixed points à la Brightwell–Luczak): the next iterate extrapolates
//! through the last `m` residuals by solving a tiny least-squares problem,
//! falling back to the Picard step whenever the extrapolation is
//! ill-conditioned or leaves the finite region.  Warm starts are expressed
//! through the existing `initial` argument — callers that keep the
//! converged state of a neighbouring configuration (see
//! `kncube_core::sweep`) pass it back in and typically converge in a
//! handful of iterations.

/// Iteration budget of one solve; exhausting it is
/// [`FixedPointError::NotConverged`].
pub const MAX_ITERATIONS: usize = 20_000;

/// Convergence tolerance on the maximum relative component change.
pub const TOLERANCE: f64 = 1e-10;

/// How successive fixed-point iterates are combined.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Acceleration {
    /// Picard: `x_{n+1} = F(x_n)` (default; the reconstruction numerics
    /// are pinned to this path).
    #[default]
    Picard,
    /// Anderson mixing over a window of `depth` previous residuals.  Falls
    /// back to the Picard step when the window is empty or the
    /// least-squares extrapolation misbehaves.
    Anderson {
        /// History window `m >= 1`; 3–5 is typical for smooth updates.
        depth: usize,
    },
}

/// Why the iteration stopped without converging.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FixedPointError {
    /// A state component became NaN or infinite.
    NonFinite,
    /// The iteration budget was exhausted before the tolerance was met.
    NotConverged,
}

impl std::fmt::Display for FixedPointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FixedPointError::NonFinite => write!(f, "fixed point diverged to non-finite values"),
            FixedPointError::NotConverged => {
                write!(
                    f,
                    "fixed point failed to converge within the iteration budget"
                )
            }
        }
    }
}

impl std::error::Error for FixedPointError {}

/// Convergence report for a successful solve.
#[derive(Clone, Debug)]
pub struct FixedPointReport {
    /// The converged state vector.
    pub state: Vec<f64>,
    /// Iterations actually used.
    pub iterations: usize,
    /// Final maximum relative change (below the tolerance).
    pub residual: f64,
}

/// The relative change of one component, `|next - cur| / max(|next|, 1)`.
fn relative_change(cur: f64, next: f64) -> f64 {
    (next - cur).abs() / next.abs().max(1.0)
}

/// Iterate `update` from `initial` until the maximum relative change of any
/// component is below [`TOLERANCE`].
///
/// `update` writes the next state into its second argument (same length as
/// the current state, passed as the first argument).  A warm start is just
/// a good `initial`: pass back the converged state of a nearby
/// configuration and the solver reports however few iterations it needed.
pub fn solve<F>(
    initial: Vec<f64>,
    acceleration: Acceleration,
    update: F,
) -> Result<FixedPointReport, FixedPointError>
where
    F: FnMut(&[f64], &mut [f64]),
{
    match acceleration {
        Acceleration::Picard => solve_picard(initial, update),
        Acceleration::Anderson { depth } => solve_anderson(initial, depth.max(1), update),
    }
}

/// The Picard loop (the reconstruction's pinned numerics).
fn solve_picard<F>(initial: Vec<f64>, mut update: F) -> Result<FixedPointReport, FixedPointError>
where
    F: FnMut(&[f64], &mut [f64]),
{
    let mut state = initial;
    let mut next = vec![0.0; state.len()];
    for iteration in 1..=MAX_ITERATIONS {
        update(&state, &mut next);
        let mut residual: f64 = 0.0;
        for (cur, &nxt) in state.iter_mut().zip(next.iter()) {
            if !nxt.is_finite() {
                return Err(FixedPointError::NonFinite);
            }
            residual = residual.max(relative_change(*cur, nxt));
            *cur = nxt;
        }
        if residual < TOLERANCE {
            return Ok(FixedPointReport {
                state,
                iterations: iteration,
                residual,
            });
        }
    }
    Err(FixedPointError::NotConverged)
}

/// Anderson mixing (type-II AA(m)): keep the last `depth` iterate/residual
/// pairs, extrapolate through them by a small least-squares solve, and fall
/// back to the Picard step whenever the extrapolation is singular or
/// non-finite.
fn solve_anderson<F>(
    initial: Vec<f64>,
    depth: usize,
    mut update: F,
) -> Result<FixedPointReport, FixedPointError>
where
    F: FnMut(&[f64], &mut [f64]),
{
    let dim = initial.len();
    let mut state = initial;
    let mut image = vec![0.0; dim];
    // Ring buffers of previous (iterate, residual) pairs, oldest first.
    let mut xs: Vec<Vec<f64>> = Vec::with_capacity(depth + 1);
    let mut fs: Vec<Vec<f64>> = Vec::with_capacity(depth + 1);
    for iteration in 1..=MAX_ITERATIONS {
        update(&state, &mut image);
        if image.iter().any(|x| !x.is_finite()) {
            return Err(FixedPointError::NonFinite);
        }
        // Residual f = F(x) - x, and the Picard convergence check, so
        // Anderson and Picard agree on what "converged" means.
        let mut residual: f64 = 0.0;
        let f: Vec<f64> = state
            .iter()
            .zip(image.iter())
            .map(|(&x, &g)| {
                residual = residual.max(relative_change(x, g));
                g - x
            })
            .collect();
        if residual < TOLERANCE {
            // Return the update's image so the final state satisfies F to
            // within the tolerance even after an extrapolated step.
            return Ok(FixedPointReport {
                state: image,
                iterations: iteration,
                residual,
            });
        }
        xs.push(state.clone());
        fs.push(f);
        if xs.len() > depth + 1 {
            xs.remove(0);
            fs.remove(0);
        }
        state = match anderson_step(&xs, &fs) {
            Some(accel) if accel.iter().all(|x| x.is_finite()) => accel,
            // Fallback: the Picard step (always well-defined).
            _ => image.clone(),
        };
    }
    Err(FixedPointError::NotConverged)
}

/// One Anderson extrapolation from history `(xs, fs)` (oldest first, the
/// last entry is the current pair): minimise `‖f_k - ΔF γ‖₂` over the
/// residual differences and return `x_k + f_k - (ΔX + ΔF) γ`.  `None` when
/// there is no history or the normal equations are (near-)singular.
fn anderson_step(xs: &[Vec<f64>], fs: &[Vec<f64>]) -> Option<Vec<f64>> {
    let m = xs.len().checked_sub(1)?;
    if m == 0 {
        return None;
    }
    let k = xs.len() - 1;
    let dim = xs[0].len();
    // Gram matrix G = ΔFᵀΔF and right-hand side b = ΔFᵀ f_k, where
    // ΔF_j = f_{j+1} - f_j.
    let df = |j: usize, i: usize| fs[j + 1][i] - fs[j][i];
    let mut g = vec![0.0; m * m];
    let mut b = vec![0.0; m];
    for r in 0..m {
        for c in r..m {
            let dot: f64 = (0..dim).map(|i| df(r, i) * df(c, i)).sum();
            g[r * m + c] = dot;
            g[c * m + r] = dot;
        }
        b[r] = (0..dim).map(|i| df(r, i) * fs[k][i]).sum();
    }
    // Tikhonov-regularise relative to the trace so a rank-deficient window
    // (e.g. duplicate iterates) degrades gracefully instead of exploding.
    let trace: f64 = (0..m).map(|r| g[r * m + r]).sum();
    let ridge = 1e-12 * trace.max(f64::MIN_POSITIVE);
    for r in 0..m {
        g[r * m + r] += ridge;
    }
    let gamma = solve_dense(&mut g, &mut b, m)?;
    let mut next = Vec::with_capacity(dim);
    for i in 0..dim {
        let mut x = xs[k][i] + fs[k][i];
        for (j, &gj) in gamma.iter().enumerate() {
            let dx = xs[j + 1][i] - xs[j][i];
            x -= gj * (dx + df(j, i));
        }
        next.push(x);
    }
    Some(next)
}

/// Gaussian elimination with partial pivoting on an `m × m` system stored
/// row-major in `a` with right-hand side `b`.  Returns `None` on a
/// (near-)zero pivot.
fn solve_dense(a: &mut [f64], b: &mut [f64], m: usize) -> Option<Vec<f64>> {
    for col in 0..m {
        let pivot_row =
            (col..m).max_by(|&r, &s| a[r * m + col].abs().total_cmp(&a[s * m + col].abs()))?;
        if a[pivot_row * m + col].abs() < f64::MIN_POSITIVE {
            return None;
        }
        if pivot_row != col {
            for i in 0..m {
                a.swap(col * m + i, pivot_row * m + i);
            }
            b.swap(col, pivot_row);
        }
        let pivot = a[col * m + col];
        for row in col + 1..m {
            let factor = a[row * m + col] / pivot;
            if factor == 0.0 {
                continue;
            }
            for i in col..m {
                a[row * m + i] -= factor * a[col * m + i];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; m];
    for row in (0..m).rev() {
        let mut sum = b[row];
        for i in row + 1..m {
            sum -= a[row * m + i] * x[i];
        }
        x[row] = sum / a[row * m + row];
        if !x[row].is_finite() {
            return None;
        }
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_scalar_contraction() {
        // x = cos(x) has the Dottie fixed point ~0.739085.
        let report = solve(vec![0.0], Acceleration::Picard, |x, out| {
            out[0] = x[0].cos();
        })
        .unwrap();
        assert!((report.state[0] - 0.739_085_133).abs() < 1e-6);
    }

    #[test]
    fn solves_coupled_system() {
        // x = 0.5 y + 1, y = 0.25 x + 1  →  x = 12/7, y = 10/7.
        let report = solve(vec![0.0, 0.0], Acceleration::Picard, |s, out| {
            out[0] = 0.5 * s[1] + 1.0;
            out[1] = 0.25 * s[0] + 1.0;
        })
        .unwrap();
        assert!((report.state[0] - 12.0 / 7.0).abs() < 1e-7);
        assert!((report.state[1] - 10.0 / 7.0).abs() < 1e-7);
    }

    #[test]
    fn anderson_solves_the_oscillation_picard_cannot() {
        // x = 2.5 - x has |F'| = 1: Picard flips between 0 and 2.5 for
        // its whole budget, while the map is affine, so AA(1)
        // extrapolates straight onto the fixed point 1.25.
        let f = |x: &[f64], out: &mut [f64]| out[0] = 2.5 - x[0];
        let picard = solve(vec![0.0], Acceleration::Picard, f).unwrap_err();
        assert_eq!(picard, FixedPointError::NotConverged);
        let aa = solve(vec![0.0], Acceleration::Anderson { depth: 1 }, f).unwrap();
        assert!((aa.state[0] - 1.25).abs() < 1e-9, "{}", aa.state[0]);
        assert!(
            aa.iterations < 10,
            "AA(1) took {} iterations",
            aa.iterations
        );
    }

    #[test]
    fn reports_divergence_to_infinity() {
        let err = solve(vec![1.0], Acceleration::Picard, |x, out| {
            out[0] = x[0] * 3.0;
        })
        .unwrap_err();
        // Either it runs out of budget or overflows to infinity; both are
        // reported as failures.
        assert!(matches!(
            err,
            FixedPointError::NotConverged | FixedPointError::NonFinite
        ));
    }

    #[test]
    fn reports_nan() {
        let err = solve(vec![1.0], Acceleration::Picard, |_, out| {
            out[0] = f64::NAN;
        })
        .unwrap_err();
        assert_eq!(err, FixedPointError::NonFinite);
    }

    fn anderson(depth: usize) -> Acceleration {
        Acceleration::Anderson { depth }
    }

    #[test]
    fn anderson_solves_the_scalar_contraction() {
        let report = solve(vec![0.0], anderson(3), |x, out| {
            out[0] = x[0].cos();
        })
        .unwrap();
        assert!((report.state[0] - 0.739_085_133).abs() < 1e-8);
    }

    #[test]
    fn anderson_beats_picard_on_a_stiff_contraction() {
        // x = 0.999 x + 1 contracts agonisingly slowly under Picard but is
        // affine, so AA(1) nails it as soon as it has two residuals.
        let f = |x: &[f64], out: &mut [f64]| out[0] = 0.999 * x[0] + 1.0;
        let picard = solve(vec![0.0], Acceleration::Picard, f).unwrap();
        let aa = solve(vec![0.0], anderson(2), f).unwrap();
        assert!((aa.state[0] - 1000.0).abs() < 1e-6, "{}", aa.state[0]);
        assert!(
            aa.iterations * 100 < picard.iterations,
            "AA {} vs Picard {} iterations",
            aa.iterations,
            picard.iterations
        );
    }

    #[test]
    fn anderson_solves_the_coupled_system_to_the_same_point() {
        let f = |s: &[f64], out: &mut [f64]| {
            out[0] = 0.5 * s[1] + 1.0;
            out[1] = 0.25 * s[0] + 1.0;
        };
        let report = solve(vec![0.0, 0.0], anderson(4), f).unwrap();
        assert!((report.state[0] - 12.0 / 7.0).abs() < 1e-7);
        assert!((report.state[1] - 10.0 / 7.0).abs() < 1e-7);
    }

    #[test]
    fn anderson_warm_start_converges_immediately() {
        // Starting at the fixed point must be recognised in one iteration.
        let report = solve(vec![0.739_085_133_215_160_6], anderson(3), |x, out| {
            out[0] = x[0].cos();
        })
        .unwrap();
        assert_eq!(report.iterations, 1);
    }

    #[test]
    fn anderson_survives_a_constant_update() {
        // F(x) = c makes every residual difference zero: the regularised
        // least-squares must fall back to Picard instead of dividing by
        // zero, and still converge.
        let report = solve(vec![5.0], anderson(3), |_, out| {
            out[0] = 2.0;
        })
        .unwrap();
        assert!((report.state[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn anderson_reports_nonfinite_divergence() {
        // e^x has no fixed point on the reals, so no amount of
        // extrapolation can succeed.
        let err = solve(vec![1.0], anderson(3), |x, out| {
            out[0] = x[0].exp();
        })
        .unwrap_err();
        assert!(matches!(
            err,
            FixedPointError::NonFinite | FixedPointError::NotConverged
        ));
    }

    #[test]
    fn iteration_budget_respected() {
        // x = (1 - 1e-6) x + 1 contracts by 1e-6 per step: reaching the
        // tolerance from 0 would take ~10⁷ Picard steps, far past the
        // budget.
        let mut calls = 0usize;
        let err = solve(vec![0.0], Acceleration::Picard, |x, out| {
            calls += 1;
            out[0] = 0.999_999 * x[0] + 1.0;
        })
        .unwrap_err();
        assert_eq!(err, FixedPointError::NotConverged);
        assert_eq!(calls, MAX_ITERATIONS);
    }
}
