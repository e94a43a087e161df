//! Bitwise oracle for the table-driven closed-form solve.
//!
//! `NCubeModel` evaluates each blocking term, utilization and
//! multiplexing degree once per distinct argument: a hot-rate table, one
//! blocking call shared by the family average and the hot chain, one
//! utilization per hot channel and tail that doubles as its multiplexing
//! load, and entry multiplexing degrees looked up per source profile.
//! This suite keeps the straightforward per-profile `update` and
//! `compose` those tables replaced, with the allocating Eq. 33–35
//! multiplexing degree, as reference code, and holds the production
//! solver to it bit for bit:
//!
//! * every `NCubeOutput` field, the converged state and the iteration
//!   count compare by `to_bits`;
//! * past saturation the `ModelError` payloads are equal, including the
//!   bits of `Saturated { max_utilization }`.
//!
//! Grid: (2, 2..=6), (4, 2..=4), (8, 2..=4), (16, 2..=3), (32, 2), and
//! (2, 13)/(2, 14) on either side of the tail-enumeration cap; both
//! service models × both Eq. 25 variants × both multiplexing models, at
//! {0.05, 0.3, 0.6, 0.9, 0.99, 1.2}·λ* of the service model, cold and
//! warm-started from the previous load's converged state.

use kncube::model::{
    entry_cases, find_saturation_ncube, EntryCase, ModelError, ModelVariant, MultiplexingModel,
    NCubeConfig, NCubeModel, NCubeOutput, NCubeRates, ServiceTimeModel,
};
use kncube::queueing::blocking::{blocking_delay, channel_utilization, TrafficClass};
use kncube::queueing::fixed_point::{self, Acceleration, FixedPointError};
use kncube::queueing::mg1;
use kncube::queueing::vc_multiplex::occupancy_distribution;

/// The solver's utilization cap for the blocking operator.
const RHO_CAP: f64 = 1.0 - 1e-7;
/// The tail-enumeration cap of the path-occupancy ablation.
const TAIL_ENUM_CAP: usize = 4096;

/// Eq. (35) from the collected Eq. (34) distribution.
fn reference_multiplexing_factor(rho: f64, v_channels: u32) -> f64 {
    if rho <= 0.0 {
        return 1.0;
    }
    let p = occupancy_distribution(rho, v_channels);
    let num: f64 = p
        .iter()
        .enumerate()
        .map(|(v, &pv)| (v * v) as f64 * pv)
        .sum();
    let den: f64 = p.iter().enumerate().map(|(v, &pv)| v as f64 * pv).sum();
    if den == 0.0 {
        1.0
    } else {
        num / den
    }
}

/// State-vector layout: `[B_nonhot, B_hot[0..n], C[d][1..=m] per d]`.
#[derive(Clone, Copy)]
struct Layout {
    n: usize,
    m: usize,
}

impl Layout {
    fn len(&self) -> usize {
        1 + self.n + self.n * self.m
    }
    fn b_nonhot(&self) -> usize {
        0
    }
    fn b_hot(&self, d: usize) -> usize {
        1 + d
    }
    fn c(&self, d: usize, j: usize) -> usize {
        debug_assert!((1..=self.m).contains(&j));
        1 + self.n + d * self.m + (j - 1)
    }
    fn c_or_zero(&self, state: &[f64], d: usize, j: usize) -> f64 {
        if j == 0 {
            0.0
        } else {
            state[self.c(d, j)]
        }
    }
}

/// The per-profile solver: every quantity recomputed where it is used.
struct Reference {
    config: NCubeConfig,
    rates: NCubeRates,
}

impl Reference {
    fn new(config: NCubeConfig) -> Self {
        let rates = NCubeRates::new(config.k, config.n, config.lambda, config.hot_fraction);
        Reference { config, rates }
    }

    fn num_nodes(&self) -> f64 {
        (self.config.k as u64).pow(self.config.n) as f64
    }

    fn hold_regular(&self, blocking: f64) -> f64 {
        let lm = self.config.message_length as f64;
        match self.config.service_model {
            ServiceTimeModel::PipelinedTransfer => lm + 1.0,
            ServiceTimeModel::PathOccupancy => {
                let m = (self.config.k - 1) as f64;
                1.0 + lm + (1.0 + blocking) * (m - 1.0) / 2.0
            }
        }
    }

    fn hot_hold(&self, c_before: f64, tail: f64) -> f64 {
        let lm = self.config.message_length as f64;
        match self.config.service_model {
            ServiceTimeModel::PipelinedTransfer => lm + 1.0,
            ServiceTimeModel::PathOccupancy => 1.0 + lm + c_before + tail,
        }
    }

    fn tail_sums(&self, layout: Layout, state: &[f64], d: usize) -> Vec<f64> {
        if self.config.service_model == ServiceTimeModel::PipelinedTransfer {
            return vec![0.0];
        }
        let k = self.config.k as usize;
        let higher = layout.n - d - 1;
        let count = k.checked_pow(higher as u32).unwrap_or(usize::MAX);
        if count > TAIL_ENUM_CAP {
            let mean: f64 = (d + 1..layout.n)
                .map(|d2| {
                    (0..=layout.m)
                        .map(|j| layout.c_or_zero(state, d2, j))
                        .sum::<f64>()
                        / k as f64
                })
                .sum();
            return vec![mean];
        }
        let mut sums = vec![0.0];
        for d2 in d + 1..layout.n {
            let mut next = Vec::with_capacity(sums.len() * k);
            for &s in &sums {
                for j in 0..=layout.m {
                    next.push(s + layout.c_or_zero(state, d2, j));
                }
            }
            sums = next;
        }
        sums
    }

    fn initial_state(&self, layout: Layout) -> Vec<f64> {
        let mut state = vec![0.0; layout.len()];
        for d in 0..layout.n {
            for j in 1..=layout.m {
                state[layout.c(d, j)] = j as f64;
            }
        }
        state
    }

    fn update(&self, layout: Layout, state: &[f64], next: &mut [f64]) {
        let k = self.config.k as usize;
        let lm = self.config.message_length as f64;
        let lr = self.rates.regular_channel_rate();
        let hold_nonhot = self.hold_regular(state[layout.b_nonhot()]);
        let hold_hot: Vec<f64> = (0..layout.n)
            .map(|d| self.hold_regular(state[layout.b_hot(d)]))
            .collect();

        next[layout.b_nonhot()] = blocking_delay(
            TrafficClass::new(lr, hold_nonhot),
            TrafficClass::none(),
            lm,
            RHO_CAP,
        );

        for d in 0..layout.n {
            let tails = self.tail_sums(layout, state, d);
            let inv_tails = 1.0 / tails.len() as f64;

            let mut sum = 0.0;
            for l in 1..=k {
                let rate = self.rates.hot_rate(d as u32, l as u32);
                let c_before = layout.c_or_zero(state, d, l - 1);
                for &tail in &tails {
                    let hot = TrafficClass::new(rate, self.hot_hold(c_before, tail));
                    sum += blocking_delay(TrafficClass::new(lr, hold_hot[d]), hot, lm, RHO_CAP);
                }
            }
            next[layout.b_hot(d)] = sum / k as f64 * inv_tails;

            let reg_hold = match self.config.variant {
                ModelVariant::XRingService => hold_hot[d],
                ModelVariant::HotRingServiceEq25 => hold_hot[layout.n - 1],
            };
            let mut cum = 0.0;
            for j in 1..=layout.m {
                let rate = self.rates.hot_rate(d as u32, j as u32);
                let c_before = layout.c_or_zero(state, d, j - 1);
                let mut bsum = 0.0;
                for &tail in &tails {
                    bsum += blocking_delay(
                        TrafficClass::new(lr, reg_hold),
                        TrafficClass::new(rate, self.hot_hold(c_before, tail)),
                        lm,
                        RHO_CAP,
                    );
                }
                cum += 1.0 + bsum * inv_tails;
                next[layout.c(d, j)] = cum;
            }
        }
    }

    fn layout(&self) -> Layout {
        Layout {
            n: self.config.n as usize,
            m: (self.config.k - 1) as usize,
        }
    }

    fn solve_warm(&self, warm: Option<&[f64]>) -> Result<(NCubeOutput, Vec<f64>), ModelError> {
        let layout = self.layout();
        let initial = match warm {
            Some(w) if w.len() == layout.len() && w.iter().all(|x| x.is_finite() && *x >= 0.0) => {
                w.to_vec()
            }
            _ => self.initial_state(layout),
        };
        // The production driver reads Anderson's extrapolations clamped at
        // zero; the reference drives its own update the same way.
        let report = fixed_point::solve(initial, self.config.acceleration, |state, next| {
            let clamped: Vec<f64> = state.iter().map(|&x| x.max(0.0)).collect();
            self.update(layout, &clamped, next)
        })
        .map_err(|e| match e {
            FixedPointError::NonFinite | FixedPointError::NotConverged => ModelError::NotConverged,
        })?;
        let out = self.compose(layout, &report.state, report.iterations)?;
        Ok((out, report.state))
    }

    fn compose(
        &self,
        layout: Layout,
        state: &[f64],
        iterations: usize,
    ) -> Result<NCubeOutput, ModelError> {
        let k = self.config.k as usize;
        let kf = k as f64;
        let n = layout.n;
        let m = layout.m;
        let lm = self.config.message_length as f64;
        let v = self.config.virtual_channels;
        let h = self.config.hot_fraction;
        let n_nodes = self.num_nodes();
        let lr = self.rates.regular_channel_rate();

        let b_nonhot = state[layout.b_nonhot()];
        let b_hot: Vec<f64> = (0..n).map(|d| state[layout.b_hot(d)]).collect();
        let hold_nonhot = self.hold_regular(b_nonhot);
        let hold_hot: Vec<f64> = b_hot.iter().map(|&b| self.hold_regular(b)).collect();

        let mut max_util: f64 = 0.0;
        if n >= 2 {
            max_util =
                channel_utilization(TrafficClass::new(lr, hold_nonhot), TrafficClass::none());
        }
        let tails: Vec<Vec<f64>> = (0..n).map(|d| self.tail_sums(layout, state, d)).collect();
        for d in 0..n {
            for l in 1..=k {
                let rate = self.rates.hot_rate(d as u32, l as u32);
                let c_before = layout.c_or_zero(state, d, l - 1);
                for &tail in &tails[d] {
                    let util = channel_utilization(
                        TrafficClass::new(lr, hold_hot[d]),
                        TrafficClass::new(rate, self.hot_hold(c_before, tail)),
                    );
                    max_util = max_util.max(util);
                }
            }
        }
        if max_util >= 1.0 {
            return Err(ModelError::Saturated {
                max_utilization: max_util,
            });
        }

        let vbar_of = |rho: f64| -> f64 {
            match self.config.multiplexing {
                MultiplexingModel::DallyMarkov => reference_multiplexing_factor(rho, v),
                MultiplexingModel::ClassAware => 1.0 + rho.clamp(0.0, (v - 1).max(1) as f64),
            }
        };
        let vbar_nonhot = vbar_of(lr * hold_nonhot);
        let vbar_hot: Vec<f64> = (0..n)
            .map(|d| {
                let mut sum = 0.0;
                for l in 1..=k {
                    let rate = self.rates.hot_rate(d as u32, l as u32);
                    let c_before = layout.c_or_zero(state, d, l - 1);
                    for &tail in &tails[d] {
                        sum += vbar_of(lr * hold_hot[d] + rate * self.hot_hold(c_before, tail));
                    }
                }
                sum / (k * tails[d].len()) as f64
            })
            .collect();

        let cases = entry_cases(self.config.k, self.config.n);
        let family_latency = |case: &EntryCase| -> f64 {
            let d0 = case.dim as usize;
            let b_first = if case.hot { b_hot[d0] } else { b_nonhot };
            let mut s = lm + (kf / 2.0) * (1.0 + b_first);
            for (d, &b) in b_hot.iter().enumerate().skip(d0 + 1) {
                let p_hot_ring = if case.hot {
                    kf.powi(-((d - d0) as i32))
                } else {
                    0.0
                };
                s += ((kf - 1.0) / 2.0)
                    * (p_hot_ring * (1.0 + b) + (1.0 - p_hot_ring) * (1.0 + b_nonhot));
            }
            s
        };
        let s_r_network: f64 = cases
            .iter()
            .map(|case| case.probability * family_latency(case))
            .sum();

        let vc_rate = self.config.lambda / v as f64;
        let wait = |service: f64| -> Result<f64, ModelError> {
            mg1::waiting_time(vc_rate, service, lm).map_err(|sat| ModelError::Saturated {
                max_utilization: sat.rho,
            })
        };
        let mut ws_sum = 0.0;
        let mut s_h_sum = 0.0;
        let mut profile = vec![0usize; n];
        'profiles: loop {
            let mut d = 0;
            loop {
                if d == n {
                    break 'profiles;
                }
                profile[d] += 1;
                if profile[d] <= m {
                    break;
                }
                profile[d] = 0;
                d += 1;
            }
            let s_h_net = lm
                + profile
                    .iter()
                    .enumerate()
                    .map(|(dd, &t)| layout.c_or_zero(state, dd, t))
                    .sum::<f64>();
            let d0 = profile.iter().position(|&t| t > 0).expect("non-zero");
            let entry_tail: f64 = (d0 + 1..n)
                .map(|dd| layout.c_or_zero(state, dd, profile[dd]))
                .sum();
            let entry_rho = lr * hold_hot[d0]
                + self.rates.hot_rate(d0 as u32, profile[d0] as u32)
                    * self.hot_hold(layout.c_or_zero(state, d0, profile[d0] - 1), entry_tail);
            let w = wait((1.0 - h) * s_r_network + h * s_h_net)?;
            ws_sum += w;
            s_h_sum += (s_h_net + w) * vbar_of(entry_rho);
        }
        let ws_r = (ws_sum + wait(s_r_network)?) / n_nodes;
        let s_h = s_h_sum / (n_nodes - 1.0);

        let s_r: f64 = cases
            .iter()
            .map(|case| {
                let vbar = if case.hot {
                    vbar_hot[case.dim as usize]
                } else {
                    vbar_nonhot
                };
                case.probability * (family_latency(case) + ws_r) * vbar
            })
            .sum();

        let latency = (1.0 - h) * s_r + h * s_h;

        let hot_path_services = (0..n)
            .map(|d| (1..=m).map(|j| lm + state[layout.c(d, j)]).collect())
            .collect();
        Ok(NCubeOutput {
            latency,
            regular_latency: s_r,
            hot_latency: s_h,
            mean_network_latency_regular: s_r_network,
            source_wait_regular: ws_r,
            vbar_hot,
            vbar_nonhot,
            blocking_hot: b_hot,
            blocking_nonhot: b_nonhot,
            hot_path_services,
            max_utilization: max_util,
            iterations,
        })
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_output(got: &NCubeOutput, want: &NCubeOutput, ctx: &str) {
    let scalars = [
        ("latency", got.latency, want.latency),
        ("regular_latency", got.regular_latency, want.regular_latency),
        ("hot_latency", got.hot_latency, want.hot_latency),
        (
            "mean_network_latency_regular",
            got.mean_network_latency_regular,
            want.mean_network_latency_regular,
        ),
        (
            "source_wait_regular",
            got.source_wait_regular,
            want.source_wait_regular,
        ),
        ("vbar_nonhot", got.vbar_nonhot, want.vbar_nonhot),
        ("blocking_nonhot", got.blocking_nonhot, want.blocking_nonhot),
        ("max_utilization", got.max_utilization, want.max_utilization),
    ];
    for (name, g, w) in scalars {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: {name} {g} vs {w}");
    }
    assert_eq!(bits(&got.vbar_hot), bits(&want.vbar_hot), "{ctx}: vbar_hot");
    assert_eq!(
        bits(&got.blocking_hot),
        bits(&want.blocking_hot),
        "{ctx}: blocking_hot"
    );
    assert_eq!(
        got.hot_path_services.len(),
        want.hot_path_services.len(),
        "{ctx}: hot_path_services"
    );
    for (d, (g, w)) in got
        .hot_path_services
        .iter()
        .zip(&want.hot_path_services)
        .enumerate()
    {
        assert_eq!(bits(g), bits(w), "{ctx}: hot_path_services[{d}]");
    }
    assert_eq!(got.iterations, want.iterations, "{ctx}: iterations");
}

type Solved = Result<(NCubeOutput, Vec<f64>), ModelError>;

/// How a grid's points ended, so a grid that never reaches one of the
/// solver's exits fails loudly.
#[derive(Default)]
struct Coverage {
    solved: usize,
    saturated: usize,
    other_errors: usize,
}

/// Compare one production solve with the reference solve; returns the
/// converged state for the next warm start.
fn assert_same(got: Solved, want: Solved, ctx: &str, seen: &mut Coverage) -> Option<Vec<f64>> {
    match (got, want) {
        (Ok((g, gs)), Ok((w, ws))) => {
            assert_same_output(&g, &w, ctx);
            assert_eq!(bits(&gs), bits(&ws), "{ctx}: converged state");
            seen.solved += 1;
            Some(gs)
        }
        (
            Err(ModelError::Saturated { max_utilization: g }),
            Err(ModelError::Saturated { max_utilization: w }),
        ) => {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{ctx}: Saturated payload {g} vs {w}"
            );
            seen.saturated += 1;
            None
        }
        (Err(g), Err(w)) => {
            assert_eq!(g, w, "{ctx}: error");
            seen.other_errors += 1;
            None
        }
        (g, w) => panic!(
            "{ctx}: production {:?} vs reference {:?}",
            g.map(|(o, _)| o.latency),
            w.map(|(o, _)| o.latency)
        ),
    }
}

const LOADS: [f64; 6] = [0.05, 0.3, 0.6, 0.9, 0.99, 1.2];

/// Hold every option combination of one geometry to the reference along
/// the load grid, cold and warm.
fn grid(k: u32, n: u32) {
    for service_model in [
        ServiceTimeModel::PipelinedTransfer,
        ServiceTimeModel::PathOccupancy,
    ] {
        let mut base = NCubeConfig::new(k, n, 2, 16, 0.0, 0.3);
        base.service_model = service_model;
        if service_model == ServiceTimeModel::PathOccupancy {
            // The ablation iterates; Anderson keeps near-saturation
            // probes short, as the query engine runs them.
            base.acceleration = Acceleration::Anderson { depth: 3 };
        }
        let lambda_star = find_saturation_ncube(base, 1e-9, 1e-1, 1e-3)
            .expect("hot-spot n-cubes saturate inside the bracket");
        let mut seen = Coverage::default();
        for variant in [ModelVariant::XRingService, ModelVariant::HotRingServiceEq25] {
            for multiplexing in [
                MultiplexingModel::DallyMarkov,
                MultiplexingModel::ClassAware,
            ] {
                let mut warm: Option<Vec<f64>> = None;
                for frac in LOADS {
                    let config = NCubeConfig {
                        lambda: frac * lambda_star,
                        variant,
                        multiplexing,
                        ..base
                    };
                    let ctx = format!(
                        "k={k} n={n} {service_model:?} {variant:?} {multiplexing:?} {frac}·λ*"
                    );
                    let model = NCubeModel::new(config).expect("valid config");
                    let reference = Reference::new(config);
                    assert_same(
                        model.solve_warm(None),
                        reference.solve_warm(None),
                        &format!("{ctx} cold"),
                        &mut seen,
                    );
                    let state = assert_same(
                        model.solve_warm(warm.as_deref()),
                        reference.solve_warm(warm.as_deref()),
                        &format!("{ctx} warm"),
                        &mut seen,
                    );
                    if state.is_some() {
                        warm = state;
                    }
                }
            }
        }
        // Past λ* the pipelined composition reports the saturated
        // channel; the path-occupancy fixed point stops converging first.
        let past_lambda_star = match service_model {
            ServiceTimeModel::PipelinedTransfer => seen.saturated,
            ServiceTimeModel::PathOccupancy => seen.saturated + seen.other_errors,
        };
        assert!(
            seen.solved > 0 && past_lambda_star > 0,
            "k={k} n={n} {service_model:?}: {} solved, {} saturated, {} other errors",
            seen.solved,
            seen.saturated,
            seen.other_errors
        );
    }
}

#[test]
fn binary_hypercubes_match_the_reference() {
    for n in 2..=6 {
        grid(2, n);
    }
}

#[test]
fn radix_4_matches_the_reference() {
    for n in 2..=4 {
        grid(4, n);
    }
}

#[test]
fn radix_8_matches_the_reference() {
    for n in 2..=4 {
        grid(8, n);
    }
}

#[test]
fn radix_16_and_32_match_the_reference() {
    grid(16, 2);
    grid(16, 3);
    grid(32, 2);
}

#[test]
fn tail_enumeration_cap_matches_the_reference() {
    // 2^12 tails past dimension 0 are enumerated; 2^13 fall back to their
    // mean, which the composition evaluates per source profile.
    grid(2, 13);
    grid(2, 14);
}
