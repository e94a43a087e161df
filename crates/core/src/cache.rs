//! The quantization lattice of batched model queries, and a memo of
//! faulty-network solves over it.
//!
//! Design-space exploration revisits configurations that differ only in
//! the last few bits of `λ` or `h`.  [`SolveCache::quantize`] snaps a
//! configuration onto a lattice: it zeroes the low [`QUANT_DROP_BITS`]
//! mantissa bits of `λ` and `h`, a relative perturbation below
//! `2⁻²⁰ ≈ 10⁻⁶`.  Two requests that snap to the same configuration are
//! the *same* lattice point, so one exact solve answers both.  The
//! fault-free query engine (`kncube_bench::queries`) shares such repeats
//! along its continuation chains; [`SolveCache`] memoises
//! [`FaultyNCubeModel`] solves behind the snapped faulty config.
//!
//! # Never stale by construction
//!
//! The memo does **not** return "the solution of a nearby config".  What
//! is solved — and stored — is exactly the snapped configuration, so an
//! entry is the exact solution of every request that collides on its key;
//! there is no approximation radius to go stale.  The key is the snapped
//! configuration itself — every field, floats by bit pattern, the fault
//! set whole — so two different fault sets never share an entry.
//!
//! Failures are stored too, so a repeated probe past `λ*` costs one
//! lookup.
//!
//! The memo is shared across threads (`&SolveCache` is `Sync`); its locks
//! are held only for lookups and inserts, never across a solve.

use crate::faulty::{FaultyNCubeConfig, FaultyNCubeModel, FaultyNCubeOutput};
use crate::ncube::{ModelError, NCubeConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Low mantissa bits of `λ` and `h` dropped by key quantization.  An f64
/// mantissa has 52 bits; dropping 32 keeps 20, for a worst-case relative
/// snap of `2⁻²⁰ ≈ 9.5 × 10⁻⁷` — far below the model's physical fidelity
/// and above the bit-noise that would otherwise fragment the cache.
pub const QUANT_DROP_BITS: u32 = 32;

fn quantize_f64(x: f64) -> f64 {
    if x == 0.0 {
        // Collapse -0.0 onto +0.0 so the two zero keys coincide.
        return 0.0;
    }
    let snapped = f64::from_bits(x.to_bits() & !((1u64 << QUANT_DROP_BITS) - 1));
    // A negative value with no mantissa bit above the dropped ones would
    // snap to -0.0, which range checks accept as zero: it stays as it is,
    // so the model rejects it as it rejects any negative value.
    if snapped == 0.0 && x < 0.0 {
        x
    } else {
        snapped
    }
}

/// A thread-safe memo of [`FaultyNCubeModel`] solves over the
/// quantization lattice, keyed by the snapped faulty config (fault set
/// included), with hit/miss accounting.
#[derive(Default)]
pub struct SolveCache {
    map: Mutex<HashMap<FaultyNCubeConfig, Result<FaultyNCubeOutput, ModelError>>>,
    /// The most recently built faulty model, keyed by its config with
    /// `λ = 0` and reused by misses that differ from it only in `λ`.  A
    /// new model finds its router's tables in [`FaultRouter::new`]'s
    /// registry while any holder of the fault set lives, so the slot
    /// saves only the rate walk; each miss then costs one packed tree
    /// sweep ([`FaultyNCubeModel::solve_at`]).  One slot keeps memory
    /// bounded: its model keeps the router's `N²` tables alive.
    ///
    /// [`FaultRouter::new`]: kncube_topology::FaultRouter::new
    faulty_model: Mutex<Option<(FaultyNCubeConfig, Arc<FaultyNCubeModel>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SolveCache {
    /// An empty cache.
    pub fn new() -> Self {
        SolveCache::default()
    }

    /// Snap a configuration onto the quantization lattice: the returned
    /// config is what the query engine actually solves.  Idempotent; only
    /// `lambda` and `hot_fraction` change, each by a relative amount below
    /// `2⁻²⁰`.
    pub fn quantize(cfg: &NCubeConfig) -> NCubeConfig {
        NCubeConfig {
            lambda: quantize_f64(cfg.lambda),
            hot_fraction: quantize_f64(cfg.hot_fraction),
            ..*cfg
        }
    }

    /// Snap a faulty configuration onto the quantization lattice, the
    /// faulty counterpart of [`SolveCache::quantize`]: only `lambda` and
    /// `hot_fraction` move, by a relative amount below `2⁻²⁰`; the fault
    /// set is carried verbatim (it is exact, not a continuum knob).
    pub fn quantize_faulty(cfg: &FaultyNCubeConfig) -> FaultyNCubeConfig {
        FaultyNCubeConfig {
            lambda: quantize_f64(cfg.lambda),
            hot_fraction: quantize_f64(cfg.hot_fraction),
            ..cfg.clone()
        }
    }

    /// Solve the quantized image of a faulty-network configuration,
    /// consulting the memo first.  The key includes the fault set, so two
    /// different [`FaultSet`](kncube_topology::FaultSet)s never share an
    /// entry even when every scalar knob coincides.
    ///
    /// A miss that differs from the last built model only in `λ` re-solves
    /// that model ([`FaultyNCubeModel::solve_at`], bit-identical to a fresh
    /// build) instead of rebuilding its router and rates.
    pub fn solve_faulty(&self, cfg: &FaultyNCubeConfig) -> Result<FaultyNCubeOutput, ModelError> {
        let poisoned = "solve cache map poisoned";
        let key = Self::quantize_faulty(cfg);
        if let Some(value) = self.map.lock().expect(poisoned).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return value.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = self
            .faulty_model(&key)
            .and_then(|model| model.solve_at(key.lambda));
        // Racing threads may both have missed; keep the first insert so
        // concurrent readers of the same key always see one entry.
        self.map
            .lock()
            .expect(poisoned)
            .entry(key)
            .or_insert_with(|| value.clone());
        value
    }

    /// The built model for `snapped`: the slot's when only `λ` differs,
    /// else a new one, which takes the slot.
    fn faulty_model(
        &self,
        snapped: &FaultyNCubeConfig,
    ) -> Result<Arc<FaultyNCubeModel>, ModelError> {
        let key = FaultyNCubeConfig {
            lambda: 0.0,
            ..snapped.clone()
        };
        let poisoned = "faulty model slot poisoned";
        if let Some((k, model)) = &*self.faulty_model.lock().expect(poisoned) {
            if *k == key {
                return Ok(Arc::clone(model));
            }
        }
        let model = Arc::new(FaultyNCubeModel::new(snapped.clone())?);
        *self.faulty_model.lock().expect(poisoned) = Some((key, Arc::clone(&model)));
        Ok(model)
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to solve.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct faulty-network lattice configurations stored.
    pub fn faulty_len(&self) -> usize {
        self.map.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ncube::{
        ModelVariant, MultiplexingModel, NCubeModel, NCubeOutput, ServiceTimeModel,
    };
    use kncube_queueing::fixed_point::Acceleration;
    use kncube_topology::{FaultSet, KAryNCube, NodeId};

    /// One single-field change of a config, named for the failure message.
    type Change<C> = (&'static str, fn(&mut C));

    /// A bidirectional 8-ary 2-cube with one failed router.
    fn one_fault() -> FaultSet {
        let mut faults = FaultSet::none(KAryNCube::bidirectional(8, 2).unwrap());
        faults.fail_node(NodeId(9));
        faults
    }

    #[test]
    fn hit_returns_the_exact_solution_of_the_quantized_config() {
        let cache = SolveCache::new();
        let cfg = FaultyNCubeConfig::new(one_fault(), 2, 16, 1.234_567_89e-4, 0.3);
        let via_cache = cache.solve_faulty(&cfg).unwrap();
        let direct = FaultyNCubeModel::new(SolveCache::quantize_faulty(&cfg))
            .unwrap()
            .solve()
            .unwrap();
        assert_eq!(via_cache.latency.to_bits(), direct.latency.to_bits());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // Asking again is a hit with the identical answer.
        let again = cache.solve_faulty(&cfg).unwrap();
        assert_eq!(again.latency.to_bits(), via_cache.latency.to_bits());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.faulty_len(), 1);
    }

    #[test]
    fn tiny_negative_rates_keep_their_sign_through_the_snap() {
        assert_eq!(quantize_f64(-0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(quantize_f64(5e-324).to_bits(), 0.0f64.to_bits());
        assert_eq!(quantize_f64(-5e-324).to_bits(), (-5e-324f64).to_bits());
        let cache = SolveCache::new();
        for lambda in [-5e-324, -1e-5] {
            let cfg = FaultyNCubeConfig::new(one_fault(), 2, 16, lambda, 0.3);
            let err = cache.solve_faulty(&cfg).unwrap_err();
            assert!(
                matches!(err, ModelError::BadConfig(_)),
                "λ={lambda}: {err:?}"
            );
        }
        let zero = FaultyNCubeConfig::new(one_fault(), 2, 16, 5e-324, 0.3);
        assert!(cache.solve_faulty(&zero).is_ok());
    }

    #[test]
    fn failures_are_cached_as_failures() {
        let cache = SolveCache::new();
        // Far past saturation for this network.
        let cfg = FaultyNCubeConfig::new(one_fault(), 2, 16, 5e-2, 0.2);
        let first = cache.solve_faulty(&cfg).unwrap_err();
        let second = cache.solve_faulty(&cfg).unwrap_err();
        assert!(matches!(first, ModelError::Saturated { .. }), "{first:?}");
        assert_eq!(first, second);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.faulty_len(), 1);
    }

    #[test]
    fn quantization_is_idempotent_and_small() {
        for x in [0.0, -0.0, 1e-5, 0.3, 0.999_999, 123.456e-7] {
            let q = quantize_f64(x);
            assert_eq!(q.to_bits(), quantize_f64(q).to_bits());
            if x != 0.0 {
                assert!(((x - q) / x).abs() < 1e-6, "{x} vs {q}");
            } else {
                assert_eq!(q.to_bits(), 0.0f64.to_bits());
            }
        }
    }

    #[test]
    fn faulty_entries_never_alias_across_distinct_fault_sets() {
        // Regression: with the fault set missing from the key,
        // two *different* fault sets with identical scalar knobs (same
        // topology, counts, λ, h, V, Lm) would silently share one entry —
        // the second lookup would return the first set's latency.  Both
        // sets here fail exactly one router, at different distances from
        // the hot node, so their correct latencies differ.
        let topo = KAryNCube::bidirectional(4, 2).unwrap();
        let mut near = FaultSet::none(topo);
        near.fail_node(NodeId(1));
        let mut far = FaultSet::none(topo);
        far.fail_node(NodeId(10));
        let lambda = 2e-3;
        let cfg_near = FaultyNCubeConfig::new(near, 2, 16, lambda, 0.2);
        let cfg_far = FaultyNCubeConfig::new(far, 2, 16, lambda, 0.2);

        let cache = SolveCache::new();
        let first = cache.solve_faulty(&cfg_near).unwrap();
        let second = cache.solve_faulty(&cfg_far).unwrap();
        // Two entries, two misses: no aliasing.
        assert_eq!(cache.faulty_len(), 2);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        // Each cached answer is the exact solution of its own fault set.
        for (cfg, got) in [(&cfg_near, &first), (&cfg_far, &second)] {
            let direct = FaultyNCubeModel::new(SolveCache::quantize_faulty(cfg))
                .unwrap()
                .solve()
                .unwrap();
            assert_eq!(got.latency.to_bits(), direct.latency.to_bits());
        }
        assert_ne!(first.latency.to_bits(), second.latency.to_bits());
        // And re-asking hits the right entry.
        let again = cache.solve_faulty(&cfg_near).unwrap();
        assert_eq!(again.latency.to_bits(), first.latency.to_bits());
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn faulty_and_fault_free_keyspaces_are_disjoint() {
        let cache = SolveCache::new();
        // A faulty solve of the empty set on a uni torus delegates to the
        // closed-form model; the memo keys it by the faulty config alone,
        // and a fault-free solve of the same configuration never reads or
        // fills it.
        let topo = KAryNCube::unidirectional(8, 2).unwrap();
        let fcfg = FaultyNCubeConfig::new(FaultSet::none(topo), 2, 16, 1e-4, 0.2);
        let via_faulty = cache.solve_faulty(&fcfg).unwrap();
        assert!(via_faulty.delegated);
        assert_eq!(cache.faulty_len(), 1);
        let ncfg = NCubeConfig::new(8, 2, 2, 16, 1e-4, 0.2);
        let via_plain = NCubeModel::new(SolveCache::quantize(&ncfg))
            .unwrap()
            .solve()
            .unwrap();
        // Same physical configuration: the answers agree bit-for-bit
        // (the bit-exact reduction).
        assert_eq!(via_faulty.latency.to_bits(), via_plain.latency.to_bits());
        assert_eq!(
            (cache.hits(), cache.misses(), cache.faulty_len()),
            (0, 1, 1)
        );
    }

    #[test]
    fn faulty_quantization_collapses_nearby_lambdas() {
        use kncube_topology::{Channel, Direction};
        let topo = KAryNCube::mesh(4, 2).unwrap();
        let mut faults = FaultSet::none(topo);
        faults.fail_link(Channel {
            from: NodeId(5),
            dim: 0,
            direction: Direction::Plus,
        });
        let a = FaultyNCubeConfig::new(faults, 2, 16, 1e-3, 0.2);
        let mut b = a.clone();
        b.lambda = f64::from_bits(a.lambda.to_bits() + 3);
        let cache = SolveCache::new();
        let ra = cache.solve_faulty(&a).unwrap();
        let rb = cache.solve_faulty(&b).unwrap();
        assert_eq!(ra.latency.to_bits(), rb.latency.to_bits());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.faulty_len(), 1);
    }

    #[test]
    fn faulty_misses_reuse_the_built_model_bit_for_bit() {
        // Misses that change only λ re-solve the last built model; a change
        // of fault set, h or hot node rebuilds it.  Either way the counts
        // are those of a plain memo and every answer is bitwise that of a
        // freshly built model.
        let topo = KAryNCube::bidirectional(4, 2).unwrap();
        let mut a = FaultSet::none(topo);
        a.fail_node(NodeId(5));
        let mut b = FaultSet::none(topo);
        b.fail_node(NodeId(9));
        let cfg =
            |faults: &FaultSet, lambda, h| FaultyNCubeConfig::new(faults.clone(), 2, 16, lambda, h);
        let sequence = [
            (cfg(&a, 1e-3, 0.2), false),
            (cfg(&a, 2e-3, 0.2), false),
            (cfg(&a, 1e-3, 0.2), true),
            (cfg(&b, 2e-3, 0.2), false),
            (cfg(&a, 3e-3, 0.2), false),
            (cfg(&a, 3e-3, 0.3), false),
            (cfg(&a, 4e-3, 0.3).with_hot_node(NodeId(3)), false),
            (cfg(&a, 4e-3, 0.3).with_hot_node(NodeId(3)), true),
            (cfg(&a, f64::NAN, 0.3), false),
            (cfg(&a, 1.0, 0.3), false),
        ];
        let cache = SolveCache::new();
        let (mut hits, mut misses) = (0, 0);
        for (cfg, hit) in &sequence {
            let got = cache.solve_faulty(cfg);
            let fresh =
                FaultyNCubeModel::new(SolveCache::quantize_faulty(cfg)).and_then(|m| m.solve());
            match (&got, &fresh) {
                (Ok(g), Ok(f)) => {
                    assert_eq!(g, f);
                    assert_eq!(g.latency.to_bits(), f.latency.to_bits());
                    assert_eq!(
                        g.source_wait_regular.to_bits(),
                        f.source_wait_regular.to_bits()
                    );
                }
                _ => assert_eq!(got, fresh),
            }
            if *hit {
                hits += 1;
            } else {
                misses += 1;
            }
            assert_eq!((cache.hits(), cache.misses()), (hits, misses));
        }
        assert!(sequence
            .last()
            .map(|(c, _)| cache.solve_faulty(c).is_err())
            .unwrap());
    }

    #[test]
    fn warm_chaining_through_the_cache_matches_cold_answers() {
        let mut base = NCubeConfig::new(8, 3, 2, 16, 0.0, 0.3);
        base.service_model = ServiceTimeModel::PathOccupancy;
        let configs: Vec<NCubeConfig> = (1..=10)
            .map(|i| NCubeConfig {
                lambda: i as f64 * 2e-6,
                ..base
            })
            .collect();
        for (i, (cfg, warm)) in configs.iter().zip(chained(&configs)).enumerate() {
            let warm = warm.unwrap();
            let cold = NCubeModel::new(SolveCache::quantize(cfg))
                .unwrap()
                .solve()
                .unwrap();
            assert!(
                (warm.latency - cold.latency).abs() <= 1e-6 * cold.latency,
                "λ index {i}: warm {} vs cold {}",
                warm.latency,
                cold.latency
            );
        }
    }

    /// Solve `configs` in order, each snapped onto the lattice and started
    /// from the previous solve's converged state (none after a failure),
    /// the way the query engine walks a chain.
    fn chained(configs: &[NCubeConfig]) -> Vec<Result<NCubeOutput, ModelError>> {
        let mut warm: Option<Vec<f64>> = None;
        configs
            .iter()
            .map(|cfg| {
                let solved = NCubeModel::new(SolveCache::quantize(cfg))
                    .and_then(|model| model.solve_warm(warm.as_deref()));
                warm = solved.as_ref().ok().map(|(_, state)| state.clone());
                solved.map(|(out, _)| out)
            })
            .collect()
    }

    #[test]
    fn continuation_cuts_iterations_under_the_iterative_ablation() {
        // The payoff regime is the near-saturation band: Picard's
        // contraction rate degrades towards 1 as λ → λ*, so cold solves
        // there cost hundreds of iterations while the accelerated warm
        // chain stays flat.  (Far below saturation Picard converges in a
        // handful of iterations and continuation saves only ~20%.)
        let mut base = NCubeConfig::new(8, 3, 2, 16, 0.0, 0.3);
        base.service_model = ServiceTimeModel::PathOccupancy;
        let sat = crate::find_saturation_ncube(base, 1e-9, 1e-1, 1e-6).unwrap();
        let points = 32usize;
        let configs: Vec<NCubeConfig> = (0..points)
            .map(|i| NCubeConfig {
                lambda: sat * (0.98 + (0.9999 - 0.98) * i as f64 / (points - 1) as f64),
                ..base
            })
            .collect();
        let cold: usize = configs
            .iter()
            .map(|c| {
                NCubeModel::new(SolveCache::quantize(c))
                    .unwrap()
                    .solve()
                    .unwrap()
                    .iterations
            })
            .sum();
        // Plain continuation helps, but acceleration is what collapses the
        // slow near-saturation modes; together they are the query engine's
        // batch path.
        let iterations = |results: Vec<Result<NCubeOutput, ModelError>>| -> usize {
            results.into_iter().map(|r| r.unwrap().iterations).sum()
        };
        let warm_plain = iterations(chained(&configs));
        assert!(
            warm_plain < cold,
            "continuation alone regressed: {warm_plain} vs {cold} iterations"
        );
        let mut accel = configs.clone();
        for c in &mut accel {
            c.acceleration = Acceleration::Anderson { depth: 4 };
        }
        let warm = iterations(chained(&accel));
        assert!(
            warm * 3 < cold,
            "accelerated continuation saved too little: {warm} vs {cold} iterations"
        );
    }

    #[test]
    fn continuation_restarts_across_geometry_changes() {
        // A chain that changes (k, n) mid-way must still solve every point
        // correctly: the warm state is dropped when its shape changes.
        let configs = [
            NCubeConfig::new(8, 3, 2, 16, 2e-5, 0.3),
            NCubeConfig::new(8, 3, 2, 16, 3e-5, 0.3),
            NCubeConfig::new(4, 4, 2, 16, 2e-5, 0.3),
            NCubeConfig::new(4, 4, 2, 16, 3e-5, 0.3),
        ];
        for (cfg, got) in configs.iter().zip(chained(&configs)) {
            let cold = NCubeModel::new(SolveCache::quantize(cfg))
                .unwrap()
                .solve()
                .unwrap();
            let got = got.expect("all points solvable");
            assert_eq!(cold.latency.to_bits(), got.latency.to_bits());
        }
    }

    #[test]
    fn continued_curve_matches_the_cold_curve() {
        // The default service model's fixed point is reached exactly from
        // any start, so a warm chain over 40 rates agrees bitwise with cold
        // solves of the same (quantized) points.
        let base = NCubeConfig::new(8, 3, 2, 16, 0.0, 0.3);
        let configs: Vec<NCubeConfig> = (1..=40)
            .map(|i| NCubeConfig {
                lambda: i as f64 * 2e-6,
                ..base
            })
            .collect();
        for (cfg, warm) in configs.iter().zip(chained(&configs)) {
            let cold = NCubeModel::new(SolveCache::quantize(cfg)).unwrap().solve();
            match (cold, warm) {
                (Ok(a), Ok(b)) => assert_eq!(a.latency.to_bits(), b.latency.to_bits()),
                (Err(_), Err(_)) => {}
                other => panic!("solvability mismatch at λ={}: {other:?}", cfg.lambda),
            }
        }
    }

    #[test]
    fn faulty_entries_never_alias_across_topologies() {
        // The same failed router on two geometries with identical scalar
        // knobs: distinct fault sets, so distinct entries and answers.
        let cache = SolveCache::new();
        let mut answers = Vec::new();
        for topo in [
            KAryNCube::bidirectional(4, 2).unwrap(),
            KAryNCube::mesh(4, 2).unwrap(),
        ] {
            let mut faults = FaultSet::none(topo);
            faults.fail_node(NodeId(5));
            let cfg = FaultyNCubeConfig::new(faults, 2, 16, 2e-3, 0.2);
            let got = cache.solve_faulty(&cfg).unwrap();
            let direct = FaultyNCubeModel::new(SolveCache::quantize_faulty(&cfg))
                .unwrap()
                .solve()
                .unwrap();
            assert_eq!(got.latency.to_bits(), direct.latency.to_bits());
            answers.push(got.latency);
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(cache.faulty_len(), 2);
        assert_ne!(answers[0].to_bits(), answers[1].to_bits());
    }

    #[test]
    fn every_identity_field_keys_its_own_entry() {
        // The query engine keys its chains by the snapped config at λ = 0
        // and shares a solve only between equal snapped configs.  Changing
        // any one field (λ by more than the lattice spacing) must make the
        // snapped configs unequal, or one config would be served the
        // other's answer; changing any field but λ must also move the
        // config to another chain.
        let base = NCubeConfig::new(8, 3, 2, 16, 1e-5, 0.3);
        let changes: [Change<NCubeConfig>; 10] = [
            ("k", |c| c.k = 4),
            ("n", |c| c.n = 2),
            ("v", |c| c.virtual_channels = 3),
            ("lm", |c| c.message_length = 8),
            ("h", |c| c.hot_fraction = 0.2),
            ("λ", |c| c.lambda *= 1.001),
            ("variant", |c| c.variant = ModelVariant::HotRingServiceEq25),
            ("service_model", |c| {
                c.service_model = ServiceTimeModel::PathOccupancy
            }),
            ("multiplexing", |c| {
                c.multiplexing = MultiplexingModel::ClassAware
            }),
            ("acceleration", |c| {
                c.acceleration = Acceleration::Anderson { depth: 4 }
            }),
        ];
        let geometry = |cfg: &NCubeConfig| {
            SolveCache::quantize(&NCubeConfig {
                lambda: 0.0,
                ..*cfg
            })
        };
        let snapped = SolveCache::quantize(&base);
        assert_eq!(snapped, SolveCache::quantize(&snapped));
        for (field, change) in changes {
            let mut cfg = base;
            change(&mut cfg);
            assert_ne!(SolveCache::quantize(&cfg), snapped, "{field}");
            assert_eq!(geometry(&cfg) == geometry(&base), field == "λ", "{field}");
        }
    }

    #[test]
    fn faulty_identity_fields_key_entries_and_only_lambda_shares_the_model() {
        let topo = KAryNCube::bidirectional(4, 2).unwrap();
        let mut faults = FaultSet::none(topo);
        faults.fail_node(NodeId(5));
        let base = FaultyNCubeConfig::new(faults, 2, 16, 1e-3, 0.2);
        let slot = |cache: &SolveCache| {
            let slot = cache.faulty_model.lock().unwrap();
            Arc::clone(&slot.as_ref().expect("a model was built").1)
        };
        let changes: [Change<FaultyNCubeConfig>; 6] = [
            ("fault set", |c| c.faults.fail_node(NodeId(9))),
            ("hot node", |c| c.hot_node = NodeId(3)),
            ("v", |c| c.virtual_channels = 3),
            ("lm", |c| c.message_length = 8),
            ("h", |c| c.hot_fraction = 0.3),
            ("λ", |c| c.lambda = 2e-3),
        ];
        for (field, change) in changes {
            let mut cfg = base.clone();
            change(&mut cfg);
            assert_ne!(
                SolveCache::quantize_faulty(&cfg),
                SolveCache::quantize_faulty(&base)
            );
            let cache = SolveCache::new();
            cache.solve_faulty(&base).unwrap();
            let before = slot(&cache);
            cache.solve_faulty(&cfg).unwrap();
            assert_eq!(
                (cache.hits(), cache.misses(), cache.faulty_len()),
                (0, 2, 2),
                "changing {field} reused an entry"
            );
            let reused = Arc::ptr_eq(&before, &slot(&cache));
            assert_eq!(reused, field == "λ", "{field}: model reused = {reused}");
        }
    }
}
