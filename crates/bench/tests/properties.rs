//! Property-based tests of the batched query engine.

use kncube_bench::json::{parse, Json};
use kncube_bench::queries::run_batch;
use kncube_core::{NCubeConfig, NCubeModel, SolveCache};
use proptest::prelude::*;

/// [`NCubeModel::flit_bound`] of the configuration at any rate.
fn flit_bound(cfg: NCubeConfig) -> f64 {
    NCubeModel::new(NCubeConfig { lambda: 0.0, ..cfg })
        .unwrap()
        .flit_bound()
}

/// A latency query for `cfg` (default knobs, `V = 2`), every float
/// written so that it parses back to the same bits.
fn latency_query(cfg: &NCubeConfig) -> String {
    format!(
        r#"{{"type": "latency", "k": {}, "n": {}, "v": 2, "lm": {}, "h": {:?}, "lambda": {:?}}}"#,
        cfg.k, cfg.n, cfg.message_length, cfg.hot_fraction, cfg.lambda
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_never_returns_a_stale_entry_after_quantization(
        k in 4u32..=8,
        n in 2u32..=3,
        lm in 8u32..=32,
        h in 0.05f64..=0.7,
        frac in 0.05f64..=0.5,
        nudge_ulps in 0u64..=2000,
    ) {
        // Ask for λ and for a perturbed λ′ a few thousand ulps away in one
        // batch — sometimes inside the same lattice cell (the engine
        // shares one solve), sometimes not (two solves).  Either way each
        // answer must be the *exact* solution of its own snapped config:
        // sharing is only legal because both snapped to the same lattice
        // configuration.
        let a = NCubeConfig::new(k, n, 2, lm, 0.0, h);
        let a = NCubeConfig { lambda: frac * flit_bound(a), ..a };
        let b = NCubeConfig {
            lambda: f64::from_bits(a.lambda.to_bits() + nudge_ulps),
            ..a
        };
        let text = format!(r#"{{"queries": [{}, {}]}}"#, latency_query(&a), latency_query(&b));
        let out = run_batch(&parse(&text).unwrap()).unwrap();
        let results = out.get("results").and_then(Json::as_arr).unwrap();
        let num = |r: &Json, key| r.get(key).and_then(Json::as_f64).map(f64::to_bits);
        for (cfg, r) in [(&a, &results[0]), (&b, &results[1])] {
            let snapped = SolveCache::quantize(cfg);
            match NCubeModel::new(snapped).unwrap().solve() {
                Ok(d) => {
                    prop_assert_eq!(num(r, "latency"), Some(d.latency.to_bits()),
                        "engine answer differs from the quantized config's exact solve");
                    prop_assert_eq!(num(r, "lambda"), Some(snapped.lambda.to_bits()));
                }
                Err(e) => prop_assert_eq!(
                    r.get("error").and_then(Json::as_str).map(str::to_string), Some(e.to_string())),
            }
        }
        let shared = u32::from(SolveCache::quantize(&a) == SolveCache::quantize(&b));
        let footer = out.get("cache").unwrap();
        for (key, count) in [("hits", shared), ("misses", 2 - shared), ("entries", 2 - shared)] {
            prop_assert_eq!(footer.get(key).and_then(Json::as_f64), Some(f64::from(count)), "{}", key);
        }
    }
}
