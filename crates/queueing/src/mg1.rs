//! M/G/1 mean waiting time with the Draper–Ghosh variance approximation.
//!
//! Eq. (28) of the paper (after \[6\], Draper & Ghosh): a channel visited by
//! Poisson traffic of rate `λ` with mean service time `S` behaves as an
//! M/G/1 queue whose mean waiting time is
//!
//! ```text
//!            λ S² (1 + C²)                 (S - Lm)²
//! w(S, λ) = ----------------   with  C² = -----------
//!             2 (1 - λ S)                     S²
//! ```
//!
//! The variance term approximates the service-time standard deviation by
//! `S - Lm`: a message's minimum possible service time is its own length
//! `Lm` (no blocking), so all service-time variability is attributed to the
//! blocking component.  When `S = Lm` the formula degenerates to the M/D/1
//! waiting time `λS²/(2(1-λS))`, which the tests check.

use std::fmt;

/// The channel (or source queue) is saturated: offered load `ρ = λS >= 1`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Saturated {
    /// The offending utilization.
    pub rho: f64,
}

impl fmt::Display for Saturated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "queue saturated: utilization {:.4} >= 1", self.rho)
    }
}

impl std::error::Error for Saturated {}

/// Offered load `ρ = λ·S` of a server with arrival rate `λ` and mean
/// service time `S`.
#[inline]
pub fn utilization(lambda: f64, service: f64) -> f64 {
    lambda * service
}

/// Eq. (28): mean M/G/1 waiting time for arrival rate `lambda`, mean
/// service time `service`, and message length `lm` flits.
///
/// Returns [`Saturated`] when `ρ = λS >= 1` (the queue has no steady
/// state), which the model reports as the saturation point.
#[inline]
pub fn waiting_time(lambda: f64, service: f64, lm: f64) -> Result<f64, Saturated> {
    debug_assert!(lambda >= 0.0 && service >= 0.0 && lm >= 0.0);
    waits_body([service], lambda, lm).map(|[wait]| wait)
}

/// [`waiting_time`] of every queue of a row at one arrival rate: each
/// service time in `row` is replaced by its wait, bit for bit.  When a
/// queue of the row saturates, the row answers the [`Saturated`] of the
/// first such queue, as a loop over [`waiting_time`] stopping at its
/// first error would, and `row` holds no meaningful values.
///
/// The row runs in chunks of four lanes through [`waiting_time`]'s own
/// branch-free body, with a select for the zero guard and one test of
/// the chunk for saturation, so the optimizer packs the two divisions
/// into two-lane SSE2 `divpd` on the baseline x86-64 target; the
/// remainder runs the same body one lane wide.  No fused multiply-add
/// and no target feature is used, so every host computes the same bits.
#[inline(always)]
pub fn waiting_times(row: &mut [f64], lambda: f64, lm: f64) -> Result<(), Saturated> {
    let mut chunks = row.chunks_exact_mut(4);
    for chunk in &mut chunks {
        let services: [f64; 4] = (&*chunk).try_into().expect("chunks of four");
        chunk.copy_from_slice(&waits_body(services, lambda, lm)?);
    }
    for service in chunks.into_remainder() {
        *service = waits_body([*service], lambda, lm)?[0];
    }
    Ok(())
}

/// The one body of [`waiting_time`] and [`waiting_times`]: Eq. (28) over
/// `L` lanes at one arrival rate, or the [`Saturated`] of the first lane
/// whose `ρ >= 1`.  The saturation test of the lanes is one branch, taken
/// before any division.
#[inline(always)]
fn waits_body<const L: usize>(
    services: [f64; L],
    lambda: f64,
    lm: f64,
) -> Result<[f64; L], Saturated> {
    let rho = services.map(|s| utilization(lambda, s));
    if rho.iter().fold(false, |any, &r| any | (r >= 1.0)) {
        let first = rho.into_iter().find(|&r| r >= 1.0);
        return Err(Saturated {
            rho: first.expect("a saturated lane"),
        });
    }
    Ok(std::array::from_fn(|j| {
        wait_at(lambda, services[j], lm, rho[j])
    }))
}

/// Like [`waiting_time`] but saturating: past `ρ >= rho_cap` the `1 - ρ`
/// denominator is frozen at `1 - rho_cap`, producing a large-but-finite
/// wait.
///
/// The fixed-point solver uses this so that a transiently-overloaded
/// intermediate iterate does not abort the iteration with NaN/negative
/// waits; saturation is then diagnosed on the *converged* state (or by
/// non-convergence).
///
/// The body has no branch: the blocking operator's lane-array form
/// ([`crate::blocking::blocking_delays`]) inlines it.
#[inline(always)]
pub fn waiting_time_clamped(lambda: f64, service: f64, lm: f64, rho_cap: f64) -> f64 {
    debug_assert!((0.0..1.0).contains(&rho_cap));
    wait_at(
        lambda,
        service,
        lm,
        utilization(lambda, service).min(rho_cap),
    )
}

/// Eq. (28) with the utilization `rho` of its `1 - ρ` denominator given,
/// branch-free: the exact waits and the clamped one share it.  The
/// zero-rate and zero-service guard is a select on a wait computed
/// unconditionally: with an `if` the optimizer may sink the computation
/// into one branch, and a branch per lane keeps the lanes of a row form
/// from being packed.
#[inline(always)]
fn wait_at(lambda: f64, service: f64, lm: f64, rho: f64) -> f64 {
    let c2 = {
        let sigma = service - lm;
        (sigma * sigma) / (service * service)
    };
    let wait = lambda * service * service * (1.0 + c2) / (2.0 * (1.0 - rho));
    crate::select(lambda == 0.0 || service == 0.0, 0.0, wait)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_or_service_waits_nothing() {
        assert_eq!(waiting_time(0.0, 50.0, 32.0).unwrap(), 0.0);
        assert_eq!(waiting_time(0.1, 0.0, 32.0).unwrap(), 0.0);
        assert_eq!(waiting_time_clamped(0.0, 50.0, 32.0, 0.999), 0.0);
    }

    #[test]
    fn reduces_to_md1_when_service_equals_length() {
        // With S = Lm the variance term vanishes and w = λS²/(2(1-λS)).
        let (lambda, s) = (0.01, 32.0);
        let w = waiting_time(lambda, s, s).unwrap();
        let md1 = lambda * s * s / (2.0 * (1.0 - lambda * s));
        assert!((w - md1).abs() < 1e-12);
    }

    #[test]
    fn saturation_detected() {
        let err = waiting_time(0.05, 32.0, 32.0).unwrap_err();
        assert!(err.rho >= 1.0);
        assert!(waiting_time(0.03, 32.0, 32.0).is_ok());
    }

    #[test]
    fn monotone_in_rate_and_service() {
        let lm = 32.0;
        let mut prev = 0.0;
        for i in 1..30 {
            let lambda = i as f64 * 0.001;
            let w = waiting_time(lambda, lm, lm).unwrap();
            assert!(w > prev, "waiting time must grow with load");
            prev = w;
        }
        let mut prev = 0.0;
        for i in 1..20 {
            let s = 32.0 + i as f64;
            let w = waiting_time(0.005, s, lm).unwrap();
            assert!(w > prev, "waiting time must grow with service time");
            prev = w;
        }
    }

    #[test]
    fn clamped_matches_exact_below_cap_and_is_finite_above() {
        let lm = 32.0;
        let exact = waiting_time(0.01, 40.0, lm).unwrap();
        let clamped = waiting_time_clamped(0.01, 40.0, lm, 0.999_999);
        assert!((exact - clamped).abs() < 1e-9);
        let over = waiting_time_clamped(1.0, 40.0, lm, 0.999);
        assert!(over.is_finite() && over > 0.0);
    }

    #[test]
    fn blocking_variance_term_increases_wait() {
        // Same rate/service; larger gap S - Lm means more variance, more
        // waiting.
        let w_tight = waiting_time(0.005, 64.0, 60.0).unwrap();
        let w_loose = waiting_time(0.005, 64.0, 32.0).unwrap();
        assert!(w_loose > w_tight);
    }
}
