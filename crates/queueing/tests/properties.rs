//! Property-based tests for the queueing primitives.

use kncube_queueing::blocking::{
    blocking_delay, channel_utilization, weighted_service, TrafficClass,
};
use kncube_queueing::mg1;
use kncube_queueing::vc_multiplex::{multiplexing_factor, occupancy_distribution};
use proptest::prelude::*;

const CAP: f64 = 1.0 - 1e-9;

proptest! {
    #[test]
    fn mg1_wait_nonnegative_and_finite_below_saturation(
        lambda in 0.0f64..0.02,
        service in 1.0f64..45.0,
        lm in 1.0f64..40.0,
    ) {
        prop_assume!(lambda * service < 0.95);
        let w = mg1::waiting_time(lambda, service, lm).unwrap();
        prop_assert!(w.is_finite() && w >= 0.0);
        // Waiting can never beat the M/D/1 lower bound scaled to zero
        // variance: w >= λS²/(2(1-ρ)).
        let md1 = lambda * service * service / (2.0 * (1.0 - lambda * service));
        prop_assert!(w + 1e-12 >= md1);
    }

    #[test]
    fn mg1_wait_increases_with_rate(
        service in 1.0f64..40.0,
        lm in 1.0f64..40.0,
        l1 in 0.0f64..0.01,
        l2 in 0.0f64..0.01,
    ) {
        let (lo, hi) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
        prop_assume!(hi * service < 0.95);
        let w_lo = mg1::waiting_time(lo, service, lm).unwrap();
        let w_hi = mg1::waiting_time(hi, service, lm).unwrap();
        prop_assert!(w_hi >= w_lo - 1e-12);
    }

    #[test]
    fn clamped_wait_agrees_below_cap(
        lambda in 0.0f64..0.01,
        service in 1.0f64..40.0,
        lm in 1.0f64..40.0,
    ) {
        prop_assume!(lambda * service < 0.9);
        let exact = mg1::waiting_time(lambda, service, lm).unwrap();
        let clamped = mg1::waiting_time_clamped(lambda, service, lm, CAP);
        prop_assert!((exact - clamped).abs() < 1e-9 * (1.0 + exact));
    }

    #[test]
    fn blocking_is_symmetric(
        r1 in 0.0f64..0.01, s1 in 1.0f64..40.0,
        r2 in 0.0f64..0.01, s2 in 1.0f64..40.0,
        lm in 1.0f64..40.0,
    ) {
        let a = TrafficClass::new(r1, s1);
        let b = TrafficClass::new(r2, s2);
        prop_assume!(channel_utilization(a, b) < 0.9);
        let ab = blocking_delay(a, b, lm, CAP);
        let ba = blocking_delay(b, a, lm, CAP);
        prop_assert!((ab - ba).abs() < 1e-12, "not symmetric: {ab} vs {ba}");
    }

    #[test]
    fn blocking_superadditive_at_equal_service(
        r1 in 0.0f64..0.01,
        r2 in 0.0f64..0.01,
        s in 2.0f64..40.0,
        lm in 1.0f64..40.0,
    ) {
        // With equal service times — the model's situation, every class
        // presents the pipelined Lm+1 — extra traffic can only increase
        // the blocking delay.  (With *unequal* services the paper's
        // Pb·wc form is not monotone: a burst of much faster traffic
        // shrinks the rate-weighted S̄ quadratically inside wc faster
        // than Pb grows.  The model never exercises that regime; proptest
        // found the counterexample, which is preserved here as
        // documentation.)
        let a = TrafficClass::new(r1, s);
        let b = TrafficClass::new(r2, s);
        prop_assume!(channel_utilization(a, b) < 0.9);
        let solo = blocking_delay(a, TrafficClass::none(), lm, CAP);
        let both = blocking_delay(a, b, lm, CAP);
        prop_assert!(both + 1e-12 >= solo, "{both} < {solo}");
    }

    #[test]
    fn weighted_service_between_extremes(
        r1 in 1e-6f64..0.01, s1 in 1.0f64..40.0,
        r2 in 1e-6f64..0.01, s2 in 1.0f64..40.0,
    ) {
        let s = weighted_service(TrafficClass::new(r1, s1), TrafficClass::new(r2, s2));
        prop_assert!(s >= s1.min(s2) - 1e-12 && s <= s1.max(s2) + 1e-12);
    }

    #[test]
    fn occupancy_distribution_normalised(rho in 0.0f64..2.0, v in 1u32..8) {
        let p = occupancy_distribution(rho, v);
        let sum: f64 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
    }

    #[test]
    fn multiplexing_bounded_and_monotone(v in 1u32..8, r1 in 0.0f64..1.0, r2 in 0.0f64..1.0) {
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let f_lo = multiplexing_factor(lo, v);
        let f_hi = multiplexing_factor(hi, v);
        prop_assert!(f_lo >= 1.0 - 1e-12 && f_hi <= v as f64 + 1e-12);
        prop_assert!(f_hi >= f_lo - 1e-9, "not monotone: {f_lo} -> {f_hi}");
    }

    #[test]
    fn multiplexing_is_bitwise_the_mean_of_the_occupancy_distribution(
        rho in 0.0f64..2.0,
        v in 1u32..=8,
    ) {
        // `multiplexing_factor` never collects the Eq. 34 distribution; it
        // must still be Eq. 35 over exactly that distribution, bit for bit.
        let p = occupancy_distribution(rho, v);
        let num: f64 = p.iter().enumerate().map(|(i, &pi)| (i * i) as f64 * pi).sum();
        let den: f64 = p.iter().enumerate().map(|(i, &pi)| i as f64 * pi).sum();
        let want = if rho <= 0.0 || den == 0.0 { 1.0 } else { num / den };
        let got = multiplexing_factor(rho, v);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "ρ={} V={}: {} vs {}", rho, v, got, want);
    }

    #[test]
    fn fixed_point_solves_affine_contractions(
        a in -0.9f64..0.9,
        b in -10.0f64..10.0,
    ) {
        // x = a x + b has the unique fixed point b/(1-a).
        let report = kncube_queueing::fixed_point::solve(
            vec![0.0],
            kncube_queueing::fixed_point::Acceleration::Picard,
            |x, out| out[0] = a * x[0] + b,
        ).unwrap();
        prop_assert!((report.state[0] - b / (1.0 - a)).abs() < 1e-6);
    }

    #[test]
    fn anderson_agrees_with_picard_on_affine_contractions(
        a in -0.9f64..0.9,
        b in -10.0f64..10.0,
        depth in 1usize..6,
    ) {
        use kncube_queueing::fixed_point::{solve, Acceleration};
        let f = |x: &[f64], out: &mut [f64]| out[0] = a * x[0] + b;
        let picard = solve(vec![0.0], Acceleration::Picard, f).unwrap();
        let aa = solve(vec![0.0], Acceleration::Anderson { depth }, f).unwrap();
        let target = b / (1.0 - a);
        prop_assert!((aa.state[0] - target).abs() < 1e-6,
            "AA missed the fixed point: {} vs {target}", aa.state[0]);
        // Acceleration never needs more iterations than the window takes
        // to fill plus Picard's own count (and is usually far fewer).
        prop_assert!(aa.iterations <= picard.iterations + depth + 2,
            "AA {} vs Picard {}", aa.iterations, picard.iterations);
    }

    #[test]
    fn warm_start_at_the_fixed_point_converges_in_one_iteration(
        a in -0.9f64..0.9,
        b in -10.0f64..10.0,
    ) {
        use kncube_queueing::fixed_point::{solve, Acceleration};
        let target = b / (1.0 - a);
        let report = solve(
            vec![target],
            Acceleration::Picard,
            |x, out| out[0] = a * x[0] + b,
        ).unwrap();
        prop_assert_eq!(report.iterations, 1);
    }
}
