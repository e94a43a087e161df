//! `sim_validate`: the closed loop behind `figure1`/`validation`/`ncube`.
//! Each point solves the model, builds the simulator and runs it to a
//! fixed number of measured messages; the flit engine does nearly all of
//! the work.  The faulty leg drives the same engine through `FaultRouter`
//! routing and drops.

use crate::gen::{self, Leg, SimPoint};
use crate::trace::Tracer;
use crate::{timed, Round};
use kncube_core::{
    find_saturation_ncube_report, FaultyNCubeConfig, FaultyNCubeModel, NCubeConfig, NCubeModel,
};
use kncube_sim::{SimConfig, SimReport, Simulator};
use kncube_topology::{Boundary, KAryNCube, LinkKind};
use kncube_traffic::{sample_fault_set, FaultSpec};

/// Measured messages each point runs to.
const TARGET_MESSAGES: u64 = 12_000;
const WARMUP_CYCLES: u64 = 20_000;
/// Relative width of the λ* bisections.
const SATURATION_REL_TOL: f64 = 1e-3;

pub struct SimValidate {
    points: Vec<SimPoint>,
}

/// The stated model-vs-sim agreement factor at a load fraction of λ*,
/// the same envelope the `faulty_model` binary and the fault suite use.
fn agreement_factor(frac: f64) -> f64 {
    if frac <= 0.5 {
        1.2
    } else if frac <= 0.7 {
        1.35
    } else {
        2.0
    }
}

fn fault_spec() -> FaultSpec {
    FaultSpec {
        router_failure_prob: gen::FAULTY_DENSITY,
        link_failure_prob: gen::FAULTY_DENSITY,
    }
}

fn sim_config(point: &SimPoint, lambda: f64, delivered: f64) -> SimConfig {
    let (k, n) = match point.leg {
        Leg::Uni => gen::UNI_KN,
        Leg::Faulty => gen::FAULTY_KN,
    };
    let nodes = f64::from(k).powi(n as i32);
    let rate = nodes * lambda * delivered.max(0.05);
    let max_cycles = WARMUP_CYCLES + (1.6 * TARGET_MESSAGES as f64 / rate) as u64;
    let cfg = SimConfig::ncube(
        k,
        n,
        gen::SIM_V,
        gen::SIM_LM,
        lambda,
        gen::SIM_H,
        point.seed,
    )
    .with_limits(max_cycles, WARMUP_CYCLES, TARGET_MESSAGES);
    match point.leg {
        Leg::Uni => cfg,
        Leg::Faulty => cfg
            .with_topology(LinkKind::Bidirectional, Boundary::Torus)
            .with_faults(fault_spec()),
    }
}

/// What a point produced, kept for the checks after the round.
struct PointResult {
    leg: Leg,
    frac: f64,
    model: f64,
    model_reachable: f64,
    sim: SimReport,
}

impl SimValidate {
    pub fn new(seed: u64) -> Self {
        SimValidate {
            points: gen::sim_points(seed),
        }
    }

    pub fn round(&self, tr: &mut Tracer) -> Round {
        let mut r = Round::default();
        let round_start = std::time::Instant::now();
        tr.next_op();

        // Set-up: both λ* searches.
        let (k, n) = gen::UNI_KN;
        let uni_base = NCubeConfig::new(k, n, gen::SIM_V, gen::SIM_LM, 0.0, gen::SIM_H);
        let (uni_sat, s) = timed(tr, "ncube.saturation", || {
            find_saturation_ncube_report(uni_base, 1e-9, 1e-1, SATURATION_REL_TOL)
        });
        r.setup_s += s;
        let uni_sat = uni_sat.expect("hot-spot cubes saturate");

        let fault_seed = self
            .points
            .iter()
            .find(|p| p.leg == Leg::Faulty)
            .expect("the point list has a faulty leg")
            .seed;
        let topo =
            KAryNCube::bidirectional(gen::FAULTY_KN.0, gen::FAULTY_KN.1).expect("valid topology");
        let (faults, s) = timed(tr, "traffic.sample", || {
            sample_fault_set(topo, fault_spec(), fault_seed)
        });
        r.setup_s += s;
        let (model, s) = timed(tr, "faulty.new", || {
            FaultyNCubeModel::new(FaultyNCubeConfig::new(
                faults,
                gen::SIM_V,
                gen::SIM_LM,
                0.0,
                gen::SIM_H,
            ))
        });
        r.setup_s += s;
        let model = model.expect("valid faulty config");
        let (faulty_sat, s) = timed(tr, "faulty.saturation", || {
            model.saturation(1e-9, 1e-1, SATURATION_REL_TOL)
        });
        r.setup_s += s;
        let faulty_sat = faulty_sat.expect("hot-spot networks saturate");
        r.digest.num(uni_sat.lambda_star);
        r.digest.num(faulty_sat.lambda_star);

        let mut results = Vec::new();
        let mut solve_calls = 0.0;
        for (kind, point) in self.points.iter().enumerate() {
            tr.next_op();
            let op = tr.enter("op.point");
            let request_start = std::time::Instant::now();
            let (lambda, model_out) = match point.leg {
                Leg::Uni => {
                    let lambda = point.frac * uni_sat.lambda_star;
                    let (out, _) = timed(tr, "ncube.solve", || {
                        NCubeModel::new(NCubeConfig { lambda, ..uni_base }).and_then(|m| m.solve())
                    });
                    (lambda, out.map(|o| (o.latency, 1.0, 1.0)))
                }
                Leg::Faulty => {
                    let lambda = point.frac * faulty_sat.lambda_star;
                    let (out, _) = timed(tr, "faulty.solve_at", || model.solve_at(lambda));
                    solve_calls += 1.0;
                    (
                        lambda,
                        out.map(|o| (o.latency, o.reachable_fraction, o.delivered_fraction)),
                    )
                }
            };
            r.attempted += 1;
            let Ok((model_latency, model_reachable, delivered)) = model_out else {
                r.failed += 1;
                r.violations.push(format!(
                    "{:?} point at {}·λ*: model does not solve below λ*",
                    point.leg, point.frac
                ));
                tr.exit(op);
                continue;
            };
            let (sim, s) = timed(tr, "sim.new", || {
                Simulator::new(sim_config(point, lambda, delivered))
            });
            r.setup_s += s;
            let sim = sim.expect("valid sim config");
            let (report, s) = timed(tr, "sim.run", || sim.run());
            r.items += report.completed as f64;
            r.item_s += s;
            r.requests
                .push((kind, request_start.elapsed().as_secs_f64() * 1e3));
            tr.exit(op);

            r.add("sim.cycles", report.cycles as f64);
            r.add("sim.msgs", report.completed as f64);
            r.add("sim.dropped", report.dropped_unreachable as f64);
            r.add("sim.saturated", f64::from(u8::from(report.saturated)));
            r.add("sim.deadlocked", f64::from(u8::from(report.deadlocked)));
            if report.saturated || report.deadlocked || report.completed < TARGET_MESSAGES {
                r.failed += 1;
            }
            for x in [
                model_latency,
                report.mean_latency,
                report.ci_half_width.unwrap_or(-1.0),
                report.completed as f64,
                report.generated as f64,
                report.dropped_unreachable as f64,
                report.cycles as f64,
                report.reachable_fraction,
            ] {
                r.digest.num(x);
            }
            results.push(PointResult {
                leg: point.leg,
                frac: point.frac,
                model: model_latency,
                model_reachable,
                sim: report,
            });
        }
        r.wall_s = round_start.elapsed().as_secs_f64();

        r.set("ncube.sat_probes", uni_sat.probes as f64);
        r.set("ncube.iterations_mean", uni_sat.mean_iterations());
        r.set("faulty.sat_probes", faulty_sat.probes as f64);
        r.set("faulty.solve_calls", solve_calls);
        let err_max = check_envelope(&results, &mut r.violations);
        r.set("sim.model_err_max", err_max);
        r
    }
}

/// Check every point against the calibrated envelope and return the
/// largest relative error at loads up to 0.6·λ*.
fn check_envelope(results: &[PointResult], violations: &mut Vec<String>) -> f64 {
    let mut err_max: f64 = 0.0;
    for leg in [Leg::Uni, Leg::Faulty] {
        let mut points = results.iter().filter(|p| p.leg == leg);
        let Some(cal) = points.next() else { continue };
        let offset = cal.sim.mean_latency - cal.model;
        if !(0.0..3.0).contains(&offset) {
            violations.push(format!(
                "{leg:?}: calibration offset {offset:.3} outside the injection overhead"
            ));
        }
        let cal_ci = cal.sim.ci_half_width.unwrap_or(0.0);
        for p in std::iter::once(cal).chain(points) {
            let ctx = format!("{leg:?} point at {}·λ*", p.frac);
            if p.sim.deadlocked {
                violations.push(format!("{ctx}: simulation deadlocked"));
                continue;
            }
            if p.sim.saturated {
                violations.push(format!("{ctx}: simulation saturated"));
                continue;
            }
            if (p.model_reachable - p.sim.reachable_fraction).abs() > 1e-12 {
                violations.push(format!(
                    "{ctx}: reachability model {} vs sim {}",
                    p.model_reachable, p.sim.reachable_fraction
                ));
            }
            if std::ptr::eq(p, cal) {
                continue;
            }
            let predicted = p.model + offset;
            let residual = (predicted - p.sim.mean_latency).abs();
            let ci = p.sim.ci_half_width.unwrap_or(0.0) + cal_ci;
            let ratio = predicted / p.sim.mean_latency;
            let f = agreement_factor(p.frac);
            if !(residual <= ci || (ratio >= 1.0 / f && ratio <= f)) {
                violations.push(format!(
                    "{ctx}: model {:.2}+{offset:.2} vs sim {:.2} outside [1/{f}, {f}]",
                    p.model, p.sim.mean_latency
                ));
            }
            if p.frac <= 0.6 {
                err_max = err_max.max(residual / p.sim.mean_latency);
            }
        }
    }
    err_max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_fault_seeds_run_the_faulty_leg_without_deadlock() {
        let topo = KAryNCube::bidirectional(gen::FAULTY_KN.0, gen::FAULTY_KN.1).unwrap();
        for seed in gen::SIM_FAULT_SEEDS {
            let faults = sample_fault_set(topo, fault_spec(), seed);
            let model = FaultyNCubeModel::new(FaultyNCubeConfig::new(
                faults,
                gen::SIM_V,
                gen::SIM_LM,
                0.0,
                gen::SIM_H,
            ))
            .unwrap();
            let sat = model.saturation(1e-9, 1e-1, SATURATION_REL_TOL).unwrap();
            for frac in std::iter::once(gen::CALIBRATION_FRAC).chain(gen::FAULTY_FRACS) {
                let point = SimPoint {
                    leg: Leg::Faulty,
                    frac,
                    seed,
                };
                let lambda = frac * sat.lambda_star;
                let delivered = model.solve_at(lambda).unwrap().delivered_fraction;
                let report = Simulator::new(sim_config(&point, lambda, delivered))
                    .unwrap()
                    .run();
                assert!(
                    !report.deadlocked && !report.saturated && report.completed >= TARGET_MESSAGES,
                    "fault seed {seed} at {frac}·λ*: {report:?}"
                );
            }
        }
    }
}
