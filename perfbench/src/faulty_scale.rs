//! `faulty_scale`: the analytical faulty-network pipeline on 256- and
//! 512-node bidirectional tori.  Per fault set: sample it, build the
//! `FaultRouter` and its deadlock certificate, build the per-channel
//! model (the rate walk), find λ*, trace a latency curve, and ask the
//! `SolveCache` at new loads (each miss rebuilds the model).  The
//! simulator does nothing here.

use crate::gen::{self, FaultCase};
use crate::trace::Tracer;
use crate::{timed, Round};
use kncube_core::{FaultyNCubeConfig, FaultyNCubeModel, FaultyNCubeOutput, SolveCache};
use kncube_topology::{FaultRouter, KAryNCube};
use kncube_traffic::{sample_fault_set, FaultSpec};
use std::time::Instant;

/// Relative width of the λ* bisection.
const SATURATION_REL_TOL: f64 = 1e-3;

pub struct FaultyScale {
    cases: Vec<FaultCase>,
}

fn fold_output(r: &mut Round, out: &FaultyNCubeOutput) {
    for x in [
        out.latency,
        out.regular_latency,
        out.hot_latency,
        out.source_wait_regular,
        out.max_utilization,
        out.reachable_pairs as f64,
        out.mean_detour_hops,
        out.delivered_fraction,
    ] {
        r.digest.num(x);
    }
}

impl FaultyScale {
    pub fn new(seed: u64) -> Self {
        FaultyScale {
            cases: gen::fault_cases(seed),
        }
    }

    pub fn round(&self, tr: &mut Tracer) -> Round {
        let mut r = Round::default();
        let round_start = Instant::now();
        for (index, case) in self.cases.iter().enumerate() {
            tr.next_op();
            let op = tr.enter("op.fault_set");
            self.fault_set(index, case, tr, &mut r);
            tr.exit(op);
        }
        r.wall_s = round_start.elapsed().as_secs_f64();
        let hits = r.get("cache.hits");
        let lookups = hits + r.get("cache.misses");
        r.set(
            "cache.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        );
        r.set("cache.faulty_misses", r.get("cache.misses"));
        r
    }

    fn fault_set(&self, case_index: usize, case: &FaultCase, tr: &mut Tracer, r: &mut Round) {
        let ctx = format!(
            "({}, {}) at {}% faults",
            case.k,
            case.n,
            case.density * 100.0
        );
        let topo = KAryNCube::bidirectional(case.k, case.n).expect("valid topology");
        let spec = FaultSpec {
            router_failure_prob: case.density,
            link_failure_prob: case.density,
        };
        let (faults, _) = timed(tr, "traffic.sample", || {
            sample_fault_set(topo, spec, case.seed)
        });
        let (router, s) = timed(tr, "router.new", || FaultRouter::new(faults.clone()));
        r.setup_s += s;
        let (certified, _) = timed(tr, "router.deadlock_free", || router.deadlock_free());
        r.add("router.certified", f64::from(u8::from(certified)));
        let base =
            FaultyNCubeConfig::new(faults, gen::FAULTY_V, gen::FAULTY_LM, 0.0, gen::FAULTY_H);
        let (model, s) = timed(tr, "faulty.new", || FaultyNCubeModel::new(base.clone()));
        r.setup_s += s;
        let model = model.expect("valid faulty config");

        r.attempted += 1;
        let (sat, _) = timed(tr, "faulty.saturation", || {
            model.saturation(1e-9, 1e-1, SATURATION_REL_TOL)
        });
        let Ok(sat) = sat else {
            r.failed += 1;
            r.violations.push(format!("{ctx}: no λ*"));
            return;
        };
        r.add("faulty.sat_probes", sat.probes as f64);
        r.digest.num(sat.lambda_star);

        let mut previous = f64::NEG_INFINITY;
        for (point, frac) in gen::CURVE_FRACS.into_iter().enumerate() {
            r.attempted += 1;
            let (out, s) = timed(tr, "faulty.solve_at", || {
                model.solve_at(frac * sat.lambda_star)
            });
            r.items += 1.0;
            r.item_s += s;
            r.requests
                .push((case_index * gen::CURVE_FRACS.len() + point, s * 1e3));
            r.add("faulty.solve_calls", 1.0);
            let Ok(out) = out else {
                r.failed += 1;
                r.violations
                    .push(format!("{ctx}: solve_at({frac}·λ*) failed below λ*"));
                continue;
            };
            fold_output(r, &out);
            if out.latency < previous {
                r.violations
                    .push(format!("{ctx}: latency falls at {frac}·λ*"));
            }
            previous = out.latency;
            if out.reachable_pairs != router.reachable_pairs() {
                r.violations.push(format!(
                    "{ctx}: model reaches {} pairs, router {}",
                    out.reachable_pairs,
                    router.reachable_pairs()
                ));
            }
        }

        let cache = SolveCache::new();
        for frac in gen::CACHE_FRACS {
            r.attempted += 1;
            let cfg = FaultyNCubeConfig {
                lambda: frac * sat.lambda_star,
                ..base.clone()
            };
            let (out, _) = timed(tr, "cache.solve_faulty", || cache.solve_faulty(&cfg));
            match out {
                Ok(out) => fold_output(r, &out),
                Err(e) => {
                    r.failed += 1;
                    r.violations
                        .push(format!("{ctx}: cached solve at {frac}·λ*: {e}"));
                }
            }
        }
        r.add("cache.hits", cache.hits() as f64);
        r.add("cache.misses", cache.misses() as f64);
    }
}
