//! The `BENCH_*.json` policy shared by the two timing harnesses —
//! `perf` (`BENCH_simulator.json`) and `queries --bench`
//! (`BENCH_model_queries.json`) — so that each of them only measures.
//!
//! One module owns everything around the measurement: the command line
//! (`--quick`, `--out FILE`, `--baseline FILE`), the
//! provenance header every document starts with, the schema check (each
//! document's [`Schema`] is data: [`SIMULATOR`], [`MODEL_QUERIES`]), the
//! per-config throughput comparison against a baseline, and the writer.
//!
//! Exit codes of [`finish`]: a freshly measured document that fails its
//! own schema is a bug (panic); an unwritable `--out` exits 2 (as does a
//! bad flag, in [`parse_args`]); an unreadable, malformed or
//! schema-drifted baseline exits 1; a throughput below
//! `DEFAULT_MIN_RATIO` × the baseline only warns (exit 0), because
//! timing on shared runners is noisy.

use crate::json::{parse, Json};

/// The committed iteration-reduction floor of `BENCH_model_queries.json`:
/// the engine pass (warm continuation + Anderson) must use at least this
/// factor fewer mean fixed-point iterations than cold Picard on the
/// benchmark grids.  Iteration counts are deterministic — unlike
/// wall-clock throughput — so this is a hard schema requirement, not a
/// soft warning.
pub const MIN_ITERATION_REDUCTION: f64 = 5.0;

/// Throughput ratio below which [`compare`] warns.
const DEFAULT_MIN_RATIO: f64 = 0.8;

/// Every config entry is identified by these numbers; a baseline entry
/// matches when all five are equal.
const CONFIG_KEY: [&str; 5] = ["k", "n", "v", "lm", "h"];

/// Keys an object must carry.
pub struct Fields {
    /// Finite, non-negative numbers.
    pub numbers: &'static [&'static str],
    /// Strings.
    pub strings: &'static [&'static str],
}

/// The document-specific part of a BENCH schema.  Every document also
/// carries the [`header`] and a non-empty `configs` array whose entries
/// hold the `(k, n, v, lm, h)` key.
pub struct Schema {
    /// The document's `schema_version`; bump on breaking changes.
    pub version: f64,
    /// Top-level numbers that must be finite and positive.
    pub positive: &'static [&'static str],
    /// Top-level deterministic quantities with a committed floor: below
    /// it the code regressed, not the runner.
    pub floors: &'static [(&'static str, f64)],
    /// What every config entry carries besides its key.
    pub config: Fields,
    /// A per-config non-empty array, and what each of its entries carries.
    pub series: Option<(&'static str, Fields)>,
    /// The per-config throughput held against the baseline by [`finish`].
    pub throughput: &'static str,
}

/// `BENCH_simulator.json`: simulator messages/s and cycles/s at four
/// loads per `(k, n)`, each the median and interquartile range of
/// repeated runs, plus the model's solve time.  Version 2 added the
/// messages/s figures and the repeats; version 3 the `heavy` load at
/// 0.8·λ*, which the per-config messages/s now includes.
pub const SIMULATOR: Schema = Schema {
    version: 3.0,
    positive: &[],
    floors: &[],
    config: Fields {
        numbers: &["messages_per_sec", "cycles_per_sec", "model_solve_us"],
        strings: &[],
    },
    series: Some((
        "loads",
        Fields {
            numbers: &[
                "repeats",
                "messages_per_sec",
                "messages_per_sec_iqr",
                "cycles_per_sec",
                "cycles_per_sec_iqr",
            ],
            strings: &["label"],
        },
    )),
    throughput: "messages_per_sec",
};

/// `BENCH_model_queries.json`: query-engine throughput and the warm-vs-cold
/// iteration reduction on near-saturation λ grids.
pub const MODEL_QUERIES: Schema = Schema {
    version: 1.0,
    positive: &["queries_per_sec", "cached_queries_per_sec"],
    floors: &[("mean_iteration_reduction", MIN_ITERATION_REDUCTION)],
    config: Fields {
        numbers: &[
            "saturation_lambda",
            "points",
            "cold_mean_iterations",
            "warm_mean_iterations",
            "iteration_reduction",
            "queries_per_sec",
            "cached_queries_per_sec",
            "cache_misses",
        ],
        strings: &["service_model"],
    },
    series: None,
    throughput: "queries_per_sec",
};

/// The harness command line: `--quick`, `--out FILE` and
/// `--baseline FILE`.
pub struct Options {
    /// Shrink the measurement for CI smoke runs.
    pub quick: bool,
    /// Where to write the document (stdout when absent).
    pub out: Option<String>,
    /// A previous document to compare against.
    pub baseline: Option<String>,
}

/// The command-line arguments not yet consumed by [`parse_args`].
pub struct Args {
    rest: std::iter::Skip<std::env::Args>,
    usage: &'static str,
}

impl Args {
    /// The value of the flag just read; a missing one is a usage error.
    pub fn value(&mut self) -> String {
        match self.rest.next() {
            Some(value) => value,
            None => self.usage(),
        }
    }

    /// Print the usage text and exit 2.
    fn usage(&self) -> ! {
        eprintln!("{}", self.usage);
        std::process::exit(2);
    }
}

/// Parse the harness command line.  `extra` sees every other flag first,
/// with the remaining arguments to take a value from, and returns whether
/// it consumed the flag; a flag nobody consumes or a missing value
/// prints `usage` and exits 2.
pub fn parse_args(usage: &'static str, mut extra: impl FnMut(&str, &mut Args) -> bool) -> Options {
    let mut opts = Options {
        quick: false,
        out: None,
        baseline: None,
    };
    let mut args = Args {
        rest: std::env::args().skip(1),
        usage,
    };
    while let Some(arg) = args.rest.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--out" => opts.out = Some(args.value()),
            "--baseline" => opts.baseline = Some(args.value()),
            flag => {
                if !extra(flag, &mut args) {
                    args.usage();
                }
            }
        }
    }
    opts
}

/// The header every BENCH document starts with: `schema_version` (the
/// schema's version), `commit`, `date` and `quick`.  The harness appends
/// its measurements.
pub fn header(schema: &Schema, quick: bool) -> Json {
    let mut doc = Json::obj();
    doc.set("schema_version", Json::Num(schema.version));
    doc.set("commit", Json::Str(git_commit()));
    doc.set("date", Json::Str(utc_now_iso8601()));
    doc.set("quick", Json::Bool(quick));
    doc
}

/// Check `doc` against the common header and `schema`.  Returns the list
/// of violations (empty = conforming).
pub fn violations(doc: &Json, schema: &Schema) -> Vec<String> {
    let mut bad = Vec::new();
    match number(doc, "schema_version") {
        Some(v) if v == schema.version => {}
        Some(v) => bad.push(format!("schema_version {v} != {}", schema.version)),
        None => bad.push("missing numeric schema_version".into()),
    }
    for key in ["commit", "date"] {
        if doc.get(key).and_then(Json::as_str).is_none() {
            bad.push(format!("missing string {key}"));
        }
    }
    if !matches!(doc.get("quick"), Some(Json::Bool(_))) {
        bad.push("missing boolean quick".into());
    }
    for key in schema.positive {
        match number(doc, key) {
            Some(v) if v.is_finite() && v > 0.0 => {}
            _ => bad.push(format!("{key} missing or not a positive number")),
        }
    }
    for &(key, floor) in schema.floors {
        match number(doc, key) {
            Some(v) if v >= floor => {}
            Some(v) => bad.push(format!("{key} {v:.2} below the committed floor {floor}")),
            None => bad.push(format!("missing numeric {key}")),
        }
    }
    let Some(configs) = doc.get("configs").and_then(Json::as_arr) else {
        bad.push("missing configs array".into());
        return bad;
    };
    if configs.is_empty() {
        bad.push("configs array is empty".into());
    }
    let key = Fields {
        numbers: &CONFIG_KEY,
        strings: &[],
    };
    for (i, cfg) in configs.iter().enumerate() {
        let at = format!("configs[{i}]");
        check_fields(cfg, &at, &key, &mut bad);
        check_fields(cfg, &at, &schema.config, &mut bad);
        if let Some((series, fields)) = &schema.series {
            match cfg.get(series).and_then(Json::as_arr) {
                Some(items) if !items.is_empty() => {
                    for (j, item) in items.iter().enumerate() {
                        check_fields(item, &format!("{at}.{series}[{j}]"), fields, &mut bad);
                    }
                }
                _ => bad.push(format!("{at}.{series} missing or empty")),
            }
        }
    }
    bad
}

fn check_fields(obj: &Json, at: &str, fields: &Fields, bad: &mut Vec<String>) {
    for key in fields.numbers {
        match number(obj, key) {
            Some(v) if v.is_finite() && v >= 0.0 => {}
            _ => bad.push(format!("{at}.{key} missing or not a finite number")),
        }
    }
    for key in fields.strings {
        if obj.get(key).and_then(Json::as_str).is_none() {
            bad.push(format!("{at}.{key} missing or not a string"));
        }
    }
}

fn number(obj: &Json, key: &str) -> Option<f64> {
    obj.get(key).and_then(Json::as_f64)
}

fn configs(doc: &Json) -> &[Json] {
    doc.get("configs").and_then(Json::as_arr).unwrap_or(&[])
}

/// Compare a fresh document against a baseline, config by config (matched
/// on `(k, n, v, lm, h)`), on the schema's throughput key: a ratio below
/// [`DEFAULT_MIN_RATIO`] warns.  The deterministic floors are reported
/// alongside.  Returns the number of warnings.
fn compare(new: &Json, baseline: &Json, schema: &Schema) -> u32 {
    let key = schema.throughput;
    let id = |cfg: &Json| CONFIG_KEY.map(|k| number(cfg, k));
    let mut warnings = 0;
    for cfg in configs(new) {
        let name = CONFIG_KEY
            .iter()
            .map(|k| format!("{k}={}", number(cfg, k).unwrap_or(f64::NAN)))
            .collect::<Vec<_>>()
            .join(" ");
        let Some(base) = configs(baseline).iter().find(|b| id(b) == id(cfg)) else {
            eprintln!("note: no baseline entry for {name}");
            continue;
        };
        let now = number(cfg, key).unwrap_or(0.0);
        let then = number(base, key).unwrap_or(0.0);
        if then <= 0.0 {
            continue;
        }
        let ratio = now / then;
        if ratio < DEFAULT_MIN_RATIO {
            eprintln!(
                "WARNING: {name}: {key} regressed to {ratio:.2}x of baseline ({now:.4e} vs {then:.4e})"
            );
            warnings += 1;
        } else {
            eprintln!("ok: {name}: {key} at {ratio:.2}x of baseline ({now:.4e} vs {then:.4e})");
        }
    }
    for (key, _) in schema.floors {
        let (now, then) = (number(new, key), number(baseline, key));
        eprintln!(
            "{key}: {:.2} now vs {:.2} at baseline",
            now.unwrap_or(0.0),
            then.unwrap_or(0.0)
        );
    }
    warnings
}

/// Read and check a baseline document; the error says why it is unusable.
fn load_baseline(path: &str, schema: &Schema) -> Result<Json, String> {
    let raw =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let baseline = parse(&raw).map_err(|e| format!("baseline {path} is not valid JSON: {e}"))?;
    let drift = violations(&baseline, schema);
    if drift.is_empty() {
        Ok(baseline)
    } else {
        Err(format!(
            "baseline {path} does not match the schema:\n  - {}",
            drift.join("\n  - ")
        ))
    }
}

/// Write `text` to `out`, or to stdout when `out` is `None`; a failed
/// write exits 2.
pub fn write_output(out: Option<&str>, text: &str) {
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(2);
            }
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
}

/// Everything after the measurement: check `doc` against its own schema,
/// write it, and compare it with `--baseline` if one was given (see the
/// module docs for the exit codes).
pub fn finish(doc: &Json, schema: &Schema, opts: &Options) {
    let bad = violations(doc, schema);
    assert!(
        bad.is_empty(),
        "freshly measured document violates its own schema: {bad:?}"
    );
    write_output(opts.out.as_deref(), &doc.pretty());
    let Some(path) = &opts.baseline else {
        return;
    };
    let baseline = load_baseline(path, schema).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let warnings = compare(doc, &baseline, schema);
    if warnings > 0 {
        eprintln!(
            "{warnings} regression warning(s) — not failing the build; \
             timing on shared runners is noisy"
        );
    }
}

/// The current `HEAD` commit hash, or `"unknown"` outside a git checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Current UTC time as `YYYY-MM-DDTHH:MM:SSZ`, from the Unix clock alone
/// (no date/time dependency; Hinnant's civil-from-days algorithm).
fn utc_now_iso8601() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (h, m, s) = (rem / 3600, rem % 3600 / 60, rem % 60);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { year + 1 } else { year };
    format!("{year:04}-{month:02}-{day:02}T{h:02}:{m:02}:{s:02}Z")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIMULATOR_FILE: &str = include_str!("../../../BENCH_simulator.json");
    const MODEL_QUERIES_FILE: &str = include_str!("../../../BENCH_model_queries.json");

    fn committed(text: &str) -> Json {
        parse(text).expect("committed BENCH files are valid JSON")
    }

    /// Replace the value at `path` (object keys, or array indices as
    /// decimal strings) inside `doc`.
    fn edit(doc: &mut Json, path: &[&str], value: Json) {
        let mut at = doc;
        for step in path {
            at = match at {
                Json::Obj(pairs) => {
                    &mut pairs
                        .iter_mut()
                        .find(|(k, _)| k == step)
                        .expect("path exists")
                        .1
                }
                Json::Arr(items) => &mut items[step.parse::<usize>().expect("index")],
                _ => panic!("path runs through a scalar"),
            };
        }
        *at = value;
    }

    #[test]
    fn committed_bench_files_conform() {
        for (text, schema) in [
            (SIMULATOR_FILE, &SIMULATOR),
            (MODEL_QUERIES_FILE, &MODEL_QUERIES),
        ] {
            assert_eq!(violations(&committed(text), schema), Vec::<String>::new());
        }
    }

    #[test]
    fn each_file_fails_the_other_schema() {
        assert!(!violations(&committed(SIMULATOR_FILE), &MODEL_QUERIES).is_empty());
        assert!(!violations(&committed(MODEL_QUERIES_FILE), &SIMULATOR).is_empty());
    }

    #[test]
    fn a_malformed_load_point_is_rejected() {
        let mut doc = committed(SIMULATOR_FILE);
        edit(
            &mut doc,
            &["configs", "1", "loads", "2", "label"],
            Json::Num(3.0),
        );
        assert_eq!(
            violations(&doc, &SIMULATOR),
            vec!["configs[1].loads[2].label missing or not a string".to_string()]
        );
        edit(&mut doc, &["configs", "0", "loads"], Json::Arr(Vec::new()));
        assert!(violations(&doc, &SIMULATOR).contains(&"configs[0].loads missing or empty".into()));
    }

    #[test]
    fn an_iteration_reduction_below_the_floor_is_rejected() {
        let mut doc = committed(MODEL_QUERIES_FILE);
        edit(&mut doc, &["mean_iteration_reduction"], Json::Num(4.9));
        assert_eq!(
            violations(&doc, &MODEL_QUERIES),
            vec!["mean_iteration_reduction 4.90 below the committed floor 5".to_string()]
        );
        edit(
            &mut doc,
            &["mean_iteration_reduction"],
            Json::Num(MIN_ITERATION_REDUCTION),
        );
        assert!(violations(&doc, &MODEL_QUERIES).is_empty());
    }

    #[test]
    fn header_drift_is_rejected() {
        let mut doc = committed(SIMULATOR_FILE);
        edit(&mut doc, &["schema_version"], Json::Num(1.0));
        edit(&mut doc, &["commit"], Json::Null);
        edit(&mut doc, &["quick"], Json::Str("no".into()));
        assert_eq!(
            violations(&doc, &SIMULATOR),
            vec![
                "schema_version 1 != 3".to_string(),
                "missing string commit".to_string(),
                "missing boolean quick".to_string(),
            ]
        );
    }

    #[test]
    fn the_header_is_the_documents_prefix() {
        let doc = header(&SIMULATOR, true);
        let Json::Obj(pairs) = &doc else {
            panic!("the header is an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["schema_version", "commit", "date", "quick"]);
        assert_eq!(doc.get("quick"), Some(&Json::Bool(true)));
        for text in [SIMULATOR_FILE, MODEL_QUERIES_FILE] {
            let Json::Obj(committed_pairs) = committed(text) else {
                panic!("BENCH files are objects")
            };
            let committed_keys: Vec<&str> = committed_pairs[..4]
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(committed_keys, keys);
        }
    }

    #[test]
    fn compare_matches_configs_on_the_full_key() {
        // The query file has two (16, 2) configs that differ in (lm, h):
        // each must be held to its own baseline entry.
        let base = committed(MODEL_QUERIES_FILE);
        assert_eq!(compare(&base, &base, &MODEL_QUERIES), 0);
        let mut slow = base.clone();
        edit(
            &mut slow,
            &["configs", "1", "queries_per_sec"],
            Json::Num(1.0),
        );
        assert_eq!(compare(&slow, &base, &MODEL_QUERIES), 1);
        // Every simulator config finds its baseline entry.
        let sim = committed(SIMULATOR_FILE);
        assert_eq!(compare(&sim, &sim, &SIMULATOR), 0);
        let mut fast = sim.clone();
        for i in ["0", "1", "2"] {
            edit(
                &mut fast,
                &["configs", i, "messages_per_sec"],
                Json::Num(1e300),
            );
        }
        assert_eq!(compare(&sim, &fast, &SIMULATOR), 3);
    }

    #[test]
    fn timestamp_has_the_iso8601_shape() {
        let t = utc_now_iso8601();
        assert_eq!(t.len(), 20, "{t}");
        assert!(t.ends_with('Z'));
        assert_eq!(&t[4..5], "-");
        assert_eq!(&t[10..11], "T");
        // The repo's clock is past the paper's publication year.
        let year: i32 = t[..4].parse().unwrap();
        assert!(year >= 2005, "{t}");
    }
}
