//! `query_mix`: one client sending the generated JSON batches in a closed
//! loop — parse, `run_batch` (grouping, warm-start chains, the shared
//! cache and the rayon fan-out) and emit — the query path of the
//! `queries` binary.  Neither the simulator nor the faulty model runs.

use crate::gen::{self, Batch};
use crate::stats::{self, Digest};
use crate::trace::Tracer;
use crate::{timed, Round};
use kncube_bench::json::{self, Json};
use kncube_bench::queries;
use std::time::Instant;

pub struct QueryMix {
    warmup: Vec<Batch>,
    batches: Vec<Batch>,
    /// Emitted text of the first round, which later rounds must repeat.
    first_outputs: Vec<String>,
}

/// One batch through the query path; `None` when parse or `run_batch`
/// rejects it.
fn answer(tr: &mut Tracer, text: &str) -> Option<(Json, String)> {
    let (doc, _) = timed(tr, "json.parse", || json::parse(text));
    let doc = doc.ok()?;
    let (out, _) = timed(tr, "queries.run_batch", || queries::run_batch(&doc));
    let out = out.ok()?;
    let (emitted, _) = timed(tr, "json.emit", || out.pretty());
    Some((out, emitted))
}

fn fold(digest: &mut Digest, value: &Json) {
    match value {
        Json::Null => digest.word(0),
        Json::Bool(b) => digest.word(1 + u64::from(*b)),
        Json::Num(x) => digest.num(*x),
        Json::Str(s) => digest.text(s),
        Json::Arr(items) => items.iter().for_each(|v| fold(digest, v)),
        Json::Obj(pairs) => pairs.iter().for_each(|(k, v)| {
            digest.text(k);
            fold(digest, v);
        }),
    }
}

impl QueryMix {
    pub fn new(seed: u64) -> Self {
        let (warmup, batches) = gen::query_batches(seed);
        QueryMix {
            warmup,
            batches,
            first_outputs: Vec::new(),
        }
    }

    pub fn round(&mut self, tr: &mut Tracer) -> Round {
        let mut r = Round::default();
        let round_start = Instant::now();

        // Set-up: one pass over the warm-up batches, which no per-batch
        // figure counts.
        tr.next_op();
        let op = tr.enter("op.setup");
        for batch in &self.warmup {
            let answered = answer(tr, &batch.text);
            assert!(answered.is_some(), "warm-up batches must be answerable");
        }
        tr.exit(op);
        r.setup_s = round_start.elapsed().as_secs_f64();

        let mut outputs = Vec::with_capacity(self.batches.len());
        for batch in &self.batches {
            tr.next_op();
            let op = tr.enter("op.batch");
            let start = Instant::now();
            let answered = answer(tr, &batch.text);
            let elapsed = start.elapsed().as_secs_f64();
            tr.exit(op);
            r.requests.push((0, elapsed * 1e3));
            r.items += batch.queries as f64;
            r.item_s += elapsed;
            r.attempted += batch.queries as u64;
            outputs.push(answered);
        }
        r.wall_s = round_start.elapsed().as_secs_f64();

        // Everything below is outside the timed region.
        let first_round = self.first_outputs.is_empty();
        let (mut iterations, mut converged) = (0.0, 0.0);
        for (i, (batch, answered)) in self.batches.iter().zip(&outputs).enumerate() {
            let Some((out, emitted)) = answered else {
                r.failed += batch.queries as u64;
                r.violations
                    .push(format!("batch {i}: rejected by parse or run_batch"));
                continue;
            };
            fold(&mut r.digest, out);
            r.add("json.bytes_in", batch.text.len() as f64);
            r.add("json.bytes_out", emitted.len() as f64);
            let cache = out.get("cache");
            let counter = |key| cache.and_then(|c| c.get(key)).and_then(Json::as_f64);
            r.add("cache.hits", counter("hits").unwrap_or(0.0));
            r.add("cache.misses", counter("misses").unwrap_or(0.0));
            let results = out.get("results").and_then(Json::as_arr).unwrap_or(&[]);
            for (j, res) in results.iter().enumerate() {
                let ok = res.get("ok") == Some(&Json::Bool(true));
                r.add(
                    if ok {
                        "queries.ok"
                    } else {
                        "queries.typed_err"
                    },
                    1.0,
                );
                if !ok && res.get("error").and_then(Json::as_str).is_none() {
                    r.violations
                        .push(format!("batch {i} query {j}: error without a message"));
                }
                if ok && batch.past_saturation.contains(&j) {
                    r.violations
                        .push(format!("batch {i} query {j}: answered past λ*"));
                }
                let kind = res.get("type").and_then(Json::as_str);
                if ok && kind == Some("latency") {
                    iterations += res.get("iterations").and_then(Json::as_f64).unwrap_or(0.0);
                    converged += 1.0;
                }
                if ok && kind == Some("saturation") {
                    let probes = res.get("probes").and_then(Json::as_f64).unwrap_or(0.0);
                    r.add("ncube.sat_probes", probes);
                }
            }
            if first_round {
                // The cold cross-check re-solves every latency answer; later
                // rounds must then reproduce the checked text exactly.
                let input = json::parse(&batch.text).expect("answered batches parse");
                match queries::check_cold(&input, out) {
                    Ok(found) => {
                        r.failed += found.len() as u64;
                        r.violations
                            .extend(found.into_iter().map(|v| format!("batch {i}: {v}")));
                    }
                    Err(e) => {
                        r.failed += batch.queries as u64;
                        r.violations.push(format!("batch {i}: check_cold: {e}"));
                    }
                }
            } else if self.first_outputs.get(i) != Some(emitted) {
                r.violations
                    .push(format!("batch {i}: output differs from the first round"));
            }
        }
        if first_round {
            self.first_outputs = outputs
                .into_iter()
                .map(|a| a.map(|(_, e)| e).unwrap_or_default())
                .collect();
        }
        let hits = r.get("cache.hits");
        let lookups = hits + r.get("cache.misses");
        r.set(
            "cache.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        );
        r.set(
            "ncube.iterations_mean",
            if converged > 0.0 {
                iterations / converged
            } else {
                0.0
            },
        );
        let batch_ms: Vec<f64> = r.requests.iter().map(|&(_, ms)| ms).collect();
        r.set("queries.batch_p50_ms", stats::median(&batch_ms));
        // 200 batches leave exactly ten samples beyond p95.
        let tail = stats::tail_percentile(&batch_ms).expect("a round has 200 batches");
        debug_assert_eq!(tail.percentile, 95);
        r.set("queries.batch_p95_ms", tail.value);
        r
    }
}
