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

/// Eq. (30): the rate-weighted mean service time of the channel.  Zero when
/// no traffic visits the channel.
pub fn weighted_service(regular: TrafficClass, hot: TrafficClass) -> f64 {
    let total = regular.rate + hot.rate;
    if total == 0.0 {
        return 0.0;
    }
    (regular.rate * regular.service + hot.rate * hot.service) / total
}

/// Eqs. (26)–(30): mean blocking delay at a channel visited by the two
/// traffic classes, for messages of length `lm` flits.
///
/// The waiting-time denominator is clamped at utilization `rho_cap` (see
/// [`mg1::waiting_time_clamped`]); callers diagnose saturation on the
/// converged state.
pub fn blocking_delay(regular: TrafficClass, hot: TrafficClass, lm: f64, rho_cap: f64) -> f64 {
    let total_rate = regular.rate + hot.rate;
    if total_rate == 0.0 {
        return 0.0;
    }
    let s_bar = weighted_service(regular, hot);
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
