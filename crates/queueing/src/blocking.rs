//! The two-class blocking-delay operator of Eqs. (26)–(30).
//!
//! A channel is visited by *regular* traffic of rate `λ` (mean service time
//! `S_λ`) and *hot-spot* traffic of rate `γ` (mean service time `S_γ`).
//! A message arriving at the channel is blocked with probability equal to
//! the channel utilization (Eq. 27) and then waits for the M/G/1 waiting
//! time computed at the combined rate with the rate-weighted service time
//! (Eqs. 29–30):
//!
//! ```text
//! S̄  = (λ·S_λ + γ·S_γ) / (λ + γ)                          (30)
//! Pb = (λ + γ) · S̄ = λ·S_λ + γ·S_γ                        (27)
//! wc = (λ+γ) S̄² (1 + (S̄-Lm)²/S̄²) / (2 (1 - (λ+γ) S̄))   (29)
//! B  = Pb · wc                                             (26)
//! ```
//!
//! [`blocking_delay`] evaluates one channel and [`blocking_delays`] a row
//! of channels, four lanes at a time.  Both run one branch-free body, so
//! the row form is the scalar form element for element, bit for bit.

use crate::mg1;

/// One class of traffic visiting a channel: a Poisson rate and the mean
/// service time its messages require.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct TrafficClass {
    /// Arrival rate in messages/cycle.
    pub rate: f64,
    /// Mean service time in cycles.
    pub service: f64,
}

impl TrafficClass {
    /// Convenience constructor.
    pub fn new(rate: f64, service: f64) -> Self {
        TrafficClass { rate, service }
    }

    /// A class carrying no traffic.
    pub fn none() -> Self {
        TrafficClass {
            rate: 0.0,
            service: 0.0,
        }
    }
}

/// Eq. (30) with its total rate, unguarded: `S̄` is NaN when no traffic
/// visits the channel, for the caller to select away.
#[inline(always)]
fn rate_and_mean_service(regular: TrafficClass, hot: TrafficClass) -> (f64, f64) {
    let total = regular.rate + hot.rate;
    (
        total,
        (regular.rate * regular.service + hot.rate * hot.service) / total,
    )
}

/// Eq. (30): the rate-weighted mean service time of the channel.  Zero when
/// no traffic visits the channel.
pub fn weighted_service(regular: TrafficClass, hot: TrafficClass) -> f64 {
    let (total, s_bar) = rate_and_mean_service(regular, hot);
    crate::select(total == 0.0, 0.0, s_bar)
}

/// Eqs. (26)–(30): mean blocking delay at a channel visited by the two
/// traffic classes, for messages of length `lm` flits.
///
/// The waiting-time denominator is clamped at utilization `rho_cap` (see
/// [`mg1::waiting_time_clamped`]); callers diagnose saturation on the
/// converged state.
pub fn blocking_delay(regular: TrafficClass, hot: TrafficClass, lm: f64, rho_cap: f64) -> f64 {
    blocking_body(regular, hot, lm, rho_cap)
}

/// [`blocking_delay`] of every channel of a row: `out[i]` from the
/// `(regular, hot)` classes `classes(i)`, bit for bit.  `each` sees every
/// delay in row order right after its chunk is written, so a caller's
/// running sums keep their order and run alongside the next chunk's
/// divisions instead of in a second pass over `out`.
///
/// The row runs in chunks of four lanes: the four copies of the body
/// are straight-line code with a select for the guard, which the optimizer
/// packs into two-lane SSE2 `divpd`/`mulpd` on the baseline x86-64
/// target when `classes` reads its rates and services from contiguous
/// rows or constants.  No fused multiply-add and no target feature is
/// used, so every host computes the same bits.  The form is inlined into
/// its caller so that `each`'s accumulators stay in registers.
#[inline(always)]
pub fn blocking_delays(
    out: &mut [f64],
    lm: f64,
    rho_cap: f64,
    classes: impl Fn(usize) -> (TrafficClass, TrafficClass),
    mut each: impl FnMut(f64),
) {
    for (c, chunk) in out.chunks_exact_mut(4).enumerate() {
        let lanes: [_; 4] = std::array::from_fn(|j| classes(4 * c + j));
        let mut delays = [0.0; 4];
        for (delay, (regular, hot)) in delays.iter_mut().zip(lanes) {
            *delay = blocking_body(regular, hot, lm, rho_cap);
        }
        chunk.copy_from_slice(&delays);
        delays.into_iter().for_each(&mut each);
    }
    let done = out.len() - out.len() % 4;
    for (i, out) in out[done..].iter_mut().enumerate() {
        let (regular, hot) = classes(done + i);
        *out = blocking_body(regular, hot, lm, rho_cap);
        each(*out);
    }
}

/// The one body of Eqs. (26)–(30), branch-free.  An idle channel needs
/// no guard of its own: its `S̄ = 0/0` is NaN, the wait's zero-rate
/// select makes `wc = 0` and `Pb = min(NaN, 1) = 1`, so `B = +0`.
#[inline(always)]
fn blocking_body(regular: TrafficClass, hot: TrafficClass, lm: f64, rho_cap: f64) -> f64 {
    let (total_rate, s_bar) = rate_and_mean_service(regular, hot);
    // Eq. (27): blocking probability = channel utilization, capped at 1
    // (it is a probability; the un-capped product can exceed 1 only past
    // saturation, which the solver reports separately).
    let pb = (total_rate * s_bar).min(1.0);
    let wc = mg1::waiting_time_clamped(total_rate, s_bar, lm, rho_cap);
    pb * wc
}

/// The exact (un-clamped) utilization seen by the channel, used by the
/// solver's saturation diagnosis.
pub fn channel_utilization(regular: TrafficClass, hot: TrafficClass) -> f64 {
    regular.rate * regular.service + hot.rate * hot.service
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: f64 = 1.0 - 1e-9;

    #[test]
    fn idle_channel_never_blocks() {
        let b = blocking_delay(TrafficClass::none(), TrafficClass::none(), 32.0, CAP);
        assert_eq!(b, 0.0);
    }

    #[test]
    fn classes_are_symmetric() {
        let a = TrafficClass::new(0.002, 40.0);
        let b = TrafficClass::new(0.004, 55.0);
        let d1 = blocking_delay(a, b, 32.0, CAP);
        let d2 = blocking_delay(b, a, 32.0, CAP);
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn single_class_reduces_to_pb_times_mg1() {
        let reg = TrafficClass::new(0.003, 48.0);
        let d = blocking_delay(reg, TrafficClass::none(), 32.0, CAP);
        let expected =
            (reg.rate * reg.service) * mg1::waiting_time(reg.rate, reg.service, 32.0).unwrap();
        assert!((d - expected).abs() < 1e-12);
    }

    #[test]
    fn weighted_service_interpolates() {
        let a = TrafficClass::new(1.0, 10.0);
        let b = TrafficClass::new(3.0, 50.0);
        let s = weighted_service(a, b);
        assert!((s - (10.0 + 3.0 * 50.0) / 4.0).abs() < 1e-12);
        assert!(s > 10.0 && s < 50.0);
    }

    #[test]
    fn blocking_grows_with_either_rate() {
        let lm = 32.0;
        let base = blocking_delay(
            TrafficClass::new(0.001, 40.0),
            TrafficClass::new(0.001, 40.0),
            lm,
            CAP,
        );
        let more_reg = blocking_delay(
            TrafficClass::new(0.002, 40.0),
            TrafficClass::new(0.001, 40.0),
            lm,
            CAP,
        );
        let more_hot = blocking_delay(
            TrafficClass::new(0.001, 40.0),
            TrafficClass::new(0.002, 40.0),
            lm,
            CAP,
        );
        assert!(more_reg > base);
        assert!(more_hot > base);
    }

    #[test]
    fn utilization_is_rate_service_dot_product() {
        let u = channel_utilization(TrafficClass::new(0.01, 30.0), TrafficClass::new(0.02, 10.0));
        assert!((u - (0.3 + 0.2)).abs() < 1e-12);
    }
}
