//! Property-based tests for the queueing primitives.

use kncube_queueing::blocking::{
    blocking_delay, blocking_delays, channel_utilization, weighted_service, TrafficClass,
};
use kncube_queueing::mg1;
use kncube_queueing::vc_multiplex::{
    multiplexing_factor, multiplexing_factors, occupancy_distribution,
};
use proptest::prelude::*;

const CAP: f64 = 1.0 - 1e-9;

/// The closed-form models' utilization cap.
const RHO_CAP: f64 = 1.0 - 1e-7;

/// Eqs. (26)–(30) as the scalar operator computed them before it had a
/// row form: branches for the guards, every product and quotient in the
/// paper's order.  Both forms must reproduce it bit for bit.
fn reference_blocking(regular: TrafficClass, hot: TrafficClass, lm: f64, rho_cap: f64) -> f64 {
    let total = regular.rate + hot.rate;
    if total == 0.0 {
        return 0.0;
    }
    let s_bar = (regular.rate * regular.service + hot.rate * hot.service) / total;
    let pb = (total * s_bar).min(1.0);
    let wc = if s_bar == 0.0 {
        0.0
    } else {
        let rho = (total * s_bar).min(rho_cap);
        let sigma = s_bar - lm;
        let c2 = (sigma * sigma) / (s_bar * s_bar);
        total * s_bar * s_bar * (1.0 + c2) / (2.0 * (1.0 - rho))
    };
    pb * wc
}

/// Eq. (28) as the scalar wait computed it before it had a row form: the
/// zero guard and the saturation test as branches, `Err(ρ)` when
/// saturated.
fn reference_wait(lambda: f64, service: f64, lm: f64) -> Result<f64, f64> {
    if lambda == 0.0 || service == 0.0 {
        return Ok(0.0);
    }
    let rho = lambda * service;
    if rho >= 1.0 {
        return Err(rho);
    }
    let sigma = service - lm;
    let c2 = (sigma * sigma) / (service * service);
    Ok(lambda * service * service * (1.0 + c2) / (2.0 * (1.0 - rho)))
}

/// Eqs. (33)–(35) written out: the weights collected, summed, then the
/// two moments of the normalised distribution.
fn reference_multiplexing(rho: f64, v: u32) -> f64 {
    if rho <= 0.0 {
        return 1.0;
    }
    let rho = rho.clamp(0.0, 1.0 - 1e-12);
    let mut q = vec![1.0];
    for i in 1..=v {
        let prev = q[i as usize - 1];
        q.push(if i < v {
            prev * rho
        } else {
            prev * rho / (1.0 - rho)
        });
    }
    let total: f64 = q.iter().sum();
    let (mut num, mut den) = (0.0, 0.0);
    for (i, &qi) in q.iter().enumerate() {
        let p = qi / total;
        num += (i * i) as f64 * p;
        den += i as f64 * p;
    }
    if den == 0.0 {
        1.0
    } else {
        num / den
    }
}

/// Bitwise equality, with any NaN equal to any NaN: the lanes of a row
/// may carry another NaN payload than the scalar form, never a number.
fn same_bits(got: f64, want: f64) -> bool {
    if want.is_nan() {
        got.is_nan()
    } else {
        got.to_bits() == want.to_bits()
    }
}

/// One traffic class, weighted towards the guards and the cap: zero
/// rates, zero services, idle classes, utilization at the cap, between
/// the cap and 1 and above 1, and NaN rates and services.
fn traffic_class() -> impl Strategy<Value = TrafficClass> {
    (0u32..12, 0.0f64..1.0, 1.0f64..200.0).prop_map(|(kind, x, s)| match kind {
        0..=3 => TrafficClass::new(0.05 * x, s),
        4 => TrafficClass::new(RHO_CAP / s, s),
        5 => TrafficClass::new((RHO_CAP + (1.0 - RHO_CAP) * x) / s, s),
        6 => TrafficClass::new((1.0 + 3.0 * x) / s, s),
        7 => TrafficClass::new(0.0, s),
        8 => TrafficClass::new(0.05 * x, 0.0),
        9 => TrafficClass::none(),
        10 => TrafficClass::new(f64::NAN, s),
        _ => TrafficClass::new(0.05 * x, f64::NAN),
    })
}

/// One arrival rate for a row of source queues: positive, zero,
/// subnormal or NaN.
fn arrival_rate() -> impl Strategy<Value = f64> {
    (0u32..6, 0.0f64..1.0).prop_map(|(kind, x)| match kind {
        0..=2 => 0.05 * x,
        3 => 0.0,
        4 => f64::MIN_POSITIVE * x,
        _ => f64::NAN,
    })
}

/// One service time at arrival rate `lambda`: ordinary, zero, `Lm`
/// itself, utilization just below, at and above 1, subnormal, or NaN.
fn service_at(lambda: f64, lm: f64, kind: u32, x: f64, s: f64) -> f64 {
    match kind {
        0..=2 => s,
        3 => 0.0,
        4 => lm,
        5 => (1.0 - 1e-9 * x) / lambda,
        6 => 1.0 / lambda,
        7 => (1.0 + 3.0 * x) / lambda,
        8 => f64::MIN_POSITIVE * x,
        _ => f64::NAN,
    }
}

/// One offered load for the multiplexing degree: inside (0, 1), at or
/// below 0, at or past the `1 − 1e-12` clamp, subnormal, or NaN.
fn offered_load() -> impl Strategy<Value = f64> {
    (0u32..14, 0.0f64..1.0).prop_map(|(kind, x)| match kind {
        0..=3 => x,
        4 => 0.0,
        5 => -0.0,
        6 => -2.0 * x,
        7 => f64::NEG_INFINITY,
        8 => 1.0 - 1e-12,
        9 => 1.0 - 1e-12 * x,
        10 => 1.0 + 2.0 * x,
        11 => f64::INFINITY,
        12 => f64::MIN_POSITIVE * x,
        _ => f64::NAN,
    })
}

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
    fn blocking_rows_are_the_scalar_operator_bit_for_bit(
        classes in proptest::collection::vec((traffic_class(), traffic_class()), 9),
        lm in 1.0f64..4000.0,
    ) {
        // Every row length 0..=9, so every chunk count and every
        // remainder lane runs.
        for len in 0..=classes.len() {
            let row = &classes[..len];
            let mut out = vec![f64::NAN; len];
            let mut seen = Vec::new();
            blocking_delays(&mut out, lm, RHO_CAP, |i| row[i], |b| seen.push(b));
            prop_assert_eq!(seen.len(), len);
            for (i, &(regular, hot)) in row.iter().enumerate() {
                let scalar = blocking_delay(regular, hot, lm, RHO_CAP);
                let want = reference_blocking(regular, hot, lm, RHO_CAP);
                prop_assert!(same_bits(scalar, want),
                    "scalar {:?} {:?}: {} vs reference {}", regular, hot, scalar, want);
                prop_assert!(same_bits(out[i], want),
                    "len {} lane {} {:?} {:?}: {} vs {}", len, i, regular, hot, out[i], want);
                prop_assert!(same_bits(seen[i], out[i]));
                let nan_in = [regular.rate, regular.service, hot.rate, hot.service]
                    .iter()
                    .any(|x| x.is_nan());
                if nan_in && regular.rate + hot.rate != 0.0 {
                    prop_assert!(out[i].is_nan(), "NaN in, {} out", out[i]);
                }
            }
        }
    }

    #[test]
    fn wait_rows_are_the_scalar_wait_bit_for_bit(
        lambda in arrival_rate(),
        lanes in proptest::collection::vec((0u32..10, 0.0f64..1.0, 1.0f64..200.0), 9),
        lm in 1.0f64..4000.0,
    ) {
        let services: Vec<f64> = lanes
            .iter()
            .map(|&(kind, x, s)| service_at(lambda, lm, kind, x, s))
            .collect();
        for len in 0..=services.len() {
            let row = &services[..len];
            let mut out = row.to_vec();
            let got = mg1::waiting_times(&mut out, lambda, lm);
            let want: Vec<Result<f64, f64>> =
                row.iter().map(|&s| reference_wait(lambda, s, lm)).collect();
            for (&service, want) in row.iter().zip(&want) {
                // The scalar asserts non-negative inputs in debug builds,
                // which NaN fails; its NaN lanes are the reference's.
                if lambda.is_nan() || service.is_nan() {
                    continue;
                }
                let scalar = mg1::waiting_time(lambda, service, lm);
                let same = match (scalar, *want) {
                    (Ok(a), Ok(b)) => same_bits(a, b),
                    (Err(a), Err(b)) => a.rho.to_bits() == b.to_bits(),
                    _ => false,
                };
                prop_assert!(same, "scalar λ={} S={}: {:?} vs {:?}", lambda, service, scalar, want);
            }
            match want.iter().find_map(|w| w.err()) {
                Some(rho) => {
                    let sat = got.expect_err("a saturated lane");
                    prop_assert_eq!(sat.rho.to_bits(), rho.to_bits(),
                        "len {} λ={}: ρ {} vs the first saturated {}", len, lambda, sat.rho, rho);
                }
                None => {
                    prop_assert!(got.is_ok(), "len {} λ={}: {:?}", len, lambda, got);
                    for (i, (&service, want)) in row.iter().zip(&want).enumerate() {
                        let want = want.expect("no saturated lane");
                        prop_assert!(same_bits(out[i], want),
                            "len {} lane {} λ={} S={}: {} vs {}", len, i, lambda, service, out[i], want);
                        let nan_in = lambda.is_nan() || service.is_nan();
                        if nan_in && lambda != 0.0 && service != 0.0 {
                            prop_assert!(out[i].is_nan(), "NaN in, {} out", out[i]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn multiplexing_rows_are_the_scalar_degree_bit_for_bit(
        loads in proptest::collection::vec(offered_load(), 9),
        v in 1u32..=8,
    ) {
        for len in 0..=loads.len() {
            let mut row = loads[..len].to_vec();
            multiplexing_factors(&mut row, v);
            for (i, &rho) in loads[..len].iter().enumerate() {
                let scalar = multiplexing_factor(rho, v);
                let want = reference_multiplexing(rho, v);
                prop_assert!(same_bits(scalar, want),
                    "scalar ρ={} V={}: {} vs reference {}", rho, v, scalar, want);
                prop_assert!(same_bits(row[i], want),
                    "len {} lane {} ρ={} V={}: {} vs {}", len, i, rho, v, row[i], want);
                if rho.is_nan() {
                    prop_assert!(row[i].is_nan(), "NaN in, {} out", row[i]);
                }
            }
        }
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
