//! The faulty-network model-vs-simulator protocol, shared by the
//! `faulty_model` binary and the `tests/model_vs_sim_faults.rs` suite.
//!
//! Per fault density the protocol:
//!
//! * draws **one** deterministic fault set that model and simulator share
//!   (same [`FaultSpec`], same seed), preferring a sample that carries the
//!   wormhole-deadlock-freedom certificate ([`FaultRouter::deadlock_free`]);
//! * finds the model's saturation rate `λ*` and its delivered-traffic
//!   fraction at zero load, which sizes every simulation run;
//! * calibrates the simulator's constant instrumentation offset
//!   (injection-port crossing plus end-of-cycle completion observation)
//!   once at `0.05·λ*`, where the model is exact (delivered-weighted hops
//!   + `Lm`);
//! * holds each calibrated prediction to the load-dependent agreement
//!   factor ([`agreement_factor`]) with the batch-means 95% CI band as an
//!   absolute override, and requires the reachability censuses of model
//!   and simulator to agree exactly (they share the fault-aware router).
//!
//! Uncertified samples are only driven through `0.7·λ*`: near-saturation
//! occupancy is what completes a paper dependency cycle, and a deadlocked
//! run measures nothing.  The sweep prints nothing; callers print its
//! rows and notes and gate on its violations.

use crate::{SATURATION_BRACKET, SATURATION_REL_TOL};
use kncube_core::{FaultyNCubeConfig, FaultyNCubeModel};
use kncube_sim::{SimConfig, SimReport, Simulator};
use kncube_topology::{FaultRouter, FaultSet, KAryNCube};
use kncube_traffic::{sample_fault_set, FaultSpec};

/// Virtual channels per physical channel.
pub const V: u32 = 2;
/// Message length in flits.
pub const LM: u32 = 16;
/// Hot-spot fraction.
pub const H: f64 = 0.2;
/// Seeds scanned per density for a connected fault sample.
const SEED_SCAN: u64 = 64;
/// Highest load fraction of `λ*` an uncertified sample is driven to.
const UNCERTIFIED_MAX_FRAC: f64 = 0.7;

/// The stated error envelope, as an agreement factor on the calibrated
/// prediction: `(model + offset) / sim` must lie within `[1/f, f]` with
/// `f = 1.2` through 0.5·λ*, `f = 1.35` through 0.7·λ*, and `f = 2`
/// beyond.  The widening mirrors the paper's own claim ("reasonable
/// accuracy in the light and moderate load regions", §4): near
/// saturation the latency curve is steep, so a small λ* estimation error
/// swings the predicted ordinate far more than the model/simulator
/// disagreement at matched load.
pub fn agreement_factor(frac: f64) -> f64 {
    if frac <= 0.5 {
        1.2
    } else if frac <= 0.7 {
        1.35
    } else {
        2.0
    }
}

/// A fault set drawn for one density, shared by model and simulator.
#[derive(Clone, Debug)]
pub struct FaultSample {
    /// The sampled fault set.
    pub faults: FaultSet,
    /// The spec the simulator re-samples it from (`None` when fault-free).
    pub spec: Option<FaultSpec>,
    /// The seed it was drawn with.
    pub seed: u64,
    /// Whether its route set carries the deadlock-freedom certificate.
    pub certified: bool,
}

/// Deterministically pick a fault sample at `density`: scan seeds
/// `base..base + 64`, take the first sample whose surviving route set is
/// certified deadlock-free, and fall back to the first *connected* one.
/// Density 0 is the empty set at seed `base`, certified by construction.
/// `None` when no sample in the window is connected.
///
/// The certificate is sufficient but not necessary: on a bidirectional
/// torus almost any detour breaks strict dimension order and closes a
/// channel-dependency cycle on paper, yet the actual occupancy pattern
/// rarely completes the cycle.  Uncertified samples therefore stay
/// admissible, and the simulation's own deadlock detector is the gate
/// that catches the real thing.
pub fn select_fault_sample(topo: KAryNCube, density: f64, base: u64) -> Option<FaultSample> {
    if density == 0.0 {
        return Some(FaultSample {
            faults: FaultSet::none(topo),
            spec: None,
            seed: base,
            certified: true,
        });
    }
    let spec = FaultSpec {
        router_failure_prob: density,
        link_failure_prob: density,
    };
    let mut connected = None;
    for seed in base..base + SEED_SCAN {
        let faults = sample_fault_set(topo, spec, seed);
        let router = FaultRouter::new(faults.clone());
        if router.reachable_pairs() == 0 {
            continue;
        }
        let certified = router.deadlock_free();
        if certified || connected.is_none() {
            connected = Some(FaultSample {
                faults,
                spec: Some(spec),
                seed,
                certified,
            });
        }
        if certified {
            break;
        }
    }
    connected
}

/// A caller's grid for one geometry.
#[derive(Clone, Copy, Debug)]
pub struct Grid<'a> {
    /// Element-failure densities (routers and links alike).
    pub densities: &'a [f64],
    /// Load points as fractions of each sample's `λ*`.
    pub fracs: &'a [f64],
    /// Density `i` scans fault seeds from `seed_base + 100·i`.
    pub seed_base: u64,
    /// Measured messages targeted by the calibration run.
    pub cal_target: u64,
    /// Measured messages targeted by each point's run.
    pub target: u64,
    /// Warm-up cycles of every run.
    pub warmup: u64,
    /// Fewest measured messages a point may report.
    pub min_completed: u64,
}

/// One model-vs-sim comparison point.
#[derive(Clone, Debug)]
pub struct Row {
    /// Element-failure density.
    pub density: f64,
    /// Load as a fraction of `λ*`.
    pub frac: f64,
    /// Offered load.
    pub lambda: f64,
    /// Calibrated model latency, `model + offset`.
    pub predicted: f64,
    /// Simulated mean latency.
    pub sim: f64,
    /// The model's reachable fraction of ordered pairs.
    pub reachable: f64,
    /// Measured messages of the simulation.
    pub completed: u64,
}

/// What one geometry's sweep found.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every simulated point, in grid order.
    pub rows: Vec<Row>,
    /// Informational lines (uncertified samples, skipped points).
    pub notes: Vec<String>,
    /// Violated checks; empty when the model stays inside the envelope.
    pub violations: Vec<String>,
}

/// Run one simulation sized so ~`target` delivered messages are measured
/// (`delivered` is the model's delivered-traffic fraction, which discounts
/// sources and destinations lost to faults).
fn run_sim(
    topo: KAryNCube,
    sample: &FaultSample,
    lambda: f64,
    delivered: f64,
    target: u64,
    warmup: u64,
) -> SimReport {
    let rate = (topo.num_nodes() as f64 * lambda * delivered.max(0.05)).max(1e-9);
    let max_cycles = warmup + (1.6 * target as f64 / rate) as u64;
    let mut cfg = SimConfig::ncube(topo.k(), topo.n(), V, LM, lambda, H, sample.seed)
        .with_topology(topo.link_kind(), topo.boundary())
        .with_limits(max_cycles, warmup, target);
    if let Some(spec) = sample.spec {
        cfg = cfg.with_faults(spec);
    }
    Simulator::new(cfg).expect("valid sim config").run()
}

/// Sweep one geometry across the grid's densities and load fractions.
pub fn sweep(name: &str, topo: KAryNCube, grid: &Grid) -> Outcome {
    let mut out = Outcome::default();
    for (idx, &density) in grid.densities.iter().enumerate() {
        let ctx = format!("{name} p={density:.2}");
        let Some(sample) = select_fault_sample(topo, density, grid.seed_base + 100 * idx as u64)
        else {
            out.violations
                .push(format!("{ctx}: no connected fault sample in the seed scan"));
            continue;
        };
        if !sample.certified {
            out.notes.push(format!(
                "{ctx}: seed {:#x} sample is connected but carries no deadlock-freedom \
                 certificate; relying on the simulator's detector",
                sample.seed
            ));
        }
        sweep_sample(&ctx, topo, &sample, density, grid, &mut out);
    }
    out
}

/// The calibration and load points of one fault sample.
fn sweep_sample(
    ctx: &str,
    topo: KAryNCube,
    sample: &FaultSample,
    density: f64,
    grid: &Grid,
    out: &mut Outcome,
) {
    let model = FaultyNCubeModel::new(FaultyNCubeConfig::new(sample.faults.clone(), V, LM, 0.0, H))
        .expect("valid faulty config");
    let (lo, hi) = SATURATION_BRACKET;
    let sat = match model.saturation(lo, hi, SATURATION_REL_TOL) {
        Ok(report) => report.lambda_star,
        Err(e) => {
            out.violations
                .push(format!("{ctx}: no saturation rate: {e:?}"));
            return;
        }
    };
    let delivered = model
        .solve_at(0.0)
        .expect("zero load cannot saturate")
        .delivered_fraction;
    let solve = |lambda: f64, ctx: &str, violations: &mut Vec<String>| match model.solve_at(lambda)
    {
        Ok(solved) => Some(solved),
        Err(e) => {
            violations.push(format!(
                "{ctx}: model saturated below its own λ* estimate: {e:?}"
            ));
            None
        }
    };

    // Calibrate the simulator's instrumentation offset at 5% of λ*.
    let cal_lambda = 0.05 * sat;
    let cal = run_sim(
        topo,
        sample,
        cal_lambda,
        delivered,
        grid.cal_target,
        grid.warmup,
    );
    if cal.deadlocked {
        out.violations
            .push(format!("{ctx}: calibration run deadlocked"));
        return;
    }
    let Some(cal_model) = solve(
        cal_lambda,
        &format!("{ctx} calibration"),
        &mut out.violations,
    ) else {
        return;
    };
    let offset = cal.mean_latency - cal_model.latency;
    if !(0.0..3.0).contains(&offset) {
        out.violations.push(format!(
            "{ctx}: calibration offset {offset:.3} outside the plausible injection \
             overhead [0, 3)"
        ));
    }
    let Some(cal_ci) = cal.ci_half_width else {
        out.violations
            .push(format!("{ctx}: calibration run has no batch-means CI"));
        return;
    };

    for &frac in grid.fracs {
        let ctx = format!("{ctx} frac={frac:.2}");
        if !sample.certified && frac > UNCERTIFIED_MAX_FRAC {
            out.notes.push(format!(
                "{ctx}: skipped (near-saturation load needs the deadlock-freedom certificate)"
            ));
            continue;
        }
        let lambda = frac * sat;
        let Some(solved) = solve(lambda, &ctx, &mut out.violations) else {
            continue;
        };
        let sim = run_sim(topo, sample, lambda, delivered, grid.target, grid.warmup);
        let predicted = solved.latency + offset;
        out.rows.push(Row {
            density,
            frac,
            lambda,
            predicted,
            sim: sim.mean_latency,
            reachable: solved.reachable_fraction,
            completed: sim.completed,
        });
        if sim.deadlocked {
            out.violations.push(format!("{ctx}: simulation deadlocked"));
            continue;
        }
        if sim.saturated {
            out.violations
                .push(format!("{ctx}: simulation saturated at λ={lambda}"));
            continue;
        }
        if sim.completed < grid.min_completed {
            out.violations.push(format!(
                "{ctx}: too few measured messages ({} < {})",
                sim.completed, grid.min_completed
            ));
            continue;
        }
        if (solved.reachable_fraction - sim.reachable_fraction).abs() > 1e-12 {
            out.violations.push(format!(
                "{ctx}: reachability disagrees — model {:.6} vs sim {:.6}",
                solved.reachable_fraction, sim.reachable_fraction
            ));
        }
        let Some(sim_ci) = sim.ci_half_width else {
            out.violations
                .push(format!("{ctx}: simulation has no batch-means CI"));
            continue;
        };
        let ci = sim_ci + cal_ci;
        let residual = (predicted - sim.mean_latency).abs();
        let f = agreement_factor(frac);
        let ratio = predicted / sim.mean_latency;
        let within = residual <= ci || (ratio.is_finite() && ratio >= 1.0 / f && ratio <= f);
        if !within {
            out.violations.push(format!(
                "{ctx}: model {:.2}+{offset:.2} vs sim {:.2} — ratio {ratio:.3} outside \
                 [1/{f}, {f}] and residual {residual:.3} outside the CI band {ci:.3}",
                solved.latency, sim.mean_latency,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kncube_topology::{Boundary, LinkKind};

    fn bitorus_8x8() -> KAryNCube {
        KAryNCube::with_boundary(8, 2, LinkKind::Bidirectional, Boundary::Torus).unwrap()
    }

    #[test]
    fn agreement_factor_widens_at_the_stated_load_fractions() {
        assert_eq!(agreement_factor(0.5), 1.2);
        assert_eq!(agreement_factor(0.7), 1.35);
        assert_eq!(agreement_factor(0.71), 2.0);
    }

    #[test]
    fn density_zero_is_the_empty_certified_set_at_the_base_seed() {
        let topo = bitorus_8x8();
        let sample = select_fault_sample(topo, 0.0, 0x1234).unwrap();
        assert_eq!(sample.faults, FaultSet::none(topo));
        assert!(sample.spec.is_none());
        assert_eq!(sample.seed, 0x1234);
        assert!(sample.certified);
    }

    #[test]
    fn bitorus_at_five_percent_falls_back_to_the_first_connected_sample() {
        // Pins the `faulty_model --quick` note for p = 0.05: no seed in
        // the scan window is certified, so the first connected one is kept.
        let sample = select_fault_sample(bitorus_8x8(), 0.05, 0xFA7B).unwrap();
        assert_eq!(sample.seed, 0xFA7B);
        assert!(!sample.certified);
        assert!(sample.spec.is_some());
    }
}
