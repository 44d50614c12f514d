//! Metric definitions, statistics over job samples, and the result JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric: its name, unit, better direction, and what it measures or
/// (for a layer) which end-to-end metric it should move on which workload.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
    }
}

/// The end-to-end metrics in the result JSON of an untraced run. Must match
/// `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower", "source text -> compiled plan"),
    m("simulate_s", "s", "lower", "timing-only run after setup"),
    m(
        "points_per_s",
        "iter/s",
        "higher",
        "Full-mode run incl. gather",
    ),
    m("verify_s", "s", "lower", "sequential oracle + bitwise diff"),
    m("tune_s", "s", "lower", "one tilecc::tune call"),
    m(
        "peak_rss_mb",
        "MiB",
        "lower",
        "VmHWM of a job process, mean over jobs",
    ),
];

/// End-to-end figures printed in the table but kept out of the result
/// JSON: the modelled makespan reads the same on every run, and the
/// failure share is `failed / attempted` of the JSON itself.
pub const PRINTED_ONLY: &[Metric] = &[
    m(
        "virtual_makespan_s",
        "virtual_s",
        "lower",
        "modelled makespan, deterministic",
    ),
    m("fail_rate", "share", "lower", "failed / attempted jobs"),
];

/// The per-layer metrics of a traced run. Must match `per_layer` in
/// `BENCHMARK.json`.
pub const PER_LAYER: &[Metric] = &[
    m("frontend.compile_kernel_s", "s", "lower", "setup_s @ all"),
    m("tiling.transform_s", "s", "lower", "setup_s @ all"),
    m("tiling.validate_s", "s", "lower", "setup_s @ all"),
    m(
        "tiling.tiled_space_s",
        "s",
        "lower",
        "setup_s @ adi-chatty-tcp; tune_s @ sor-tune",
    ),
    m("tiling.distribution_s", "s", "lower", "setup_s @ all"),
    m("tiling.comm_plan_s", "s", "lower", "setup_s @ jacobi-bulk"),
    m("tiling.lds_geometry_s", "s", "lower", "setup_s @ all"),
    m(
        "tiling.tiles_valid",
        "count",
        "lower",
        "explains compute/gather paths",
    ),
    m(
        "tiling.boundary_tile_share",
        "share",
        "lower",
        "explains compute/gather paths",
    ),
    m(
        "parcode.compile_chain_s",
        "s",
        "lower",
        "setup_s @ jacobi-bulk; flat @ adi-chatty-tcp",
    ),
    m(
        "parcode.chain_lengths",
        "count",
        "lower",
        "peak_rss_mb @ jacobi-bulk",
    ),
    m(
        "parcode.plan_rss_mb",
        "MiB",
        "lower",
        "peak_rss_mb @ jacobi-bulk",
    ),
    m(
        "core.compile_self_s",
        "s",
        "lower",
        "setup_s: plan time no span covers",
    ),
    m(
        "trace.setup_coverage",
        "share",
        "higher",
        "checked >= 0.9 on every traced job",
    ),
    m(
        "parcode.compute_s",
        "s",
        "lower",
        "points_per_s @ jacobi-bulk, adi-chatty-tcp",
    ),
    m(
        "parcode.compute_calls",
        "count",
        "lower",
        "points_per_s @ adi-chatty-tcp",
    ),
    m(
        "parcode.batched_share",
        "share",
        "higher",
        "points_per_s @ jacobi-bulk",
    ),
    m(
        "parcode.pack_s",
        "s",
        "lower",
        "points_per_s @ adi-chatty-tcp",
    ),
    m(
        "parcode.unpack_s",
        "s",
        "lower",
        "points_per_s @ adi-chatty-tcp",
    ),
    m(
        "parcode.gather_s",
        "s",
        "lower",
        "points_per_s @ jacobi-bulk, adi-chatty-tcp; flat @ sor-tune",
    ),
    m(
        "cluster.run_self_s",
        "s",
        "lower",
        "points_per_s: engine wall outside gather",
    ),
    m("cluster.messages", "count", "lower", "count"),
    m("cluster.bytes", "B", "lower", "count"),
    m("cluster.retransmits", "count", "lower", "count"),
    m(
        "cluster.send_s",
        "s",
        "lower",
        "points_per_s @ adi-chatty-tcp; flat @ jacobi-bulk",
    ),
    m(
        "cluster.recv_wait_s",
        "s",
        "lower",
        "points_per_s @ adi-chatty-tcp; flat @ jacobi-bulk",
    ),
    m(
        "cluster.rank_threads",
        "count",
        "lower",
        "simulate_s @ all; tune_s @ sor-tune",
    ),
    m(
        "loopnest.sequential_s",
        "s",
        "lower",
        "verify_s @ jacobi-bulk, adi-chatty-tcp",
    ),
    m(
        "loopnest.diff_s",
        "s",
        "lower",
        "verify_s @ jacobi-bulk, adi-chatty-tcp",
    ),
    m("core.tune.enumerate_s", "s", "lower", "tune_s @ sor-tune"),
    m("core.tune.filter_s", "s", "lower", "tune_s @ sor-tune"),
    m("core.tune.generated", "count", "lower", "tune_s @ sor-tune"),
    m("core.tune.deduped", "count", "lower", "tune_s @ sor-tune"),
    m("core.tune.evaluated", "count", "lower", "tune_s @ sor-tune"),
    m("core.tune.compile_s", "s", "lower", "tune_s @ sor-tune"),
    m("core.tune.simulate_s", "s", "lower", "tune_s @ sor-tune"),
    m(
        "core.tune.mean_ranks",
        "count",
        "lower",
        "tune_s @ sor-tune",
    ),
    m(
        "core.tune.rank_threads",
        "count",
        "lower",
        "tune_s @ sor-tune",
    ),
    m(
        "core.virtual_makespan",
        "virtual_s",
        "lower",
        "the paper's reproduction metric",
    ),
    m(
        "trace.overhead_s",
        "s",
        "lower",
        "traced minus untraced job total",
    ),
];

/// Median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A run with fewer samples of a timed metric than this reports their mean;
/// one with more reports the fastest.
pub const MANY_SAMPLES: usize = 100;

/// The figure a timed end-to-end metric reports for a run. Interference
/// from the rest of a shared host slows calls down in bursts that come and
/// go over seconds to minutes. A call of a second or so averages the bursts
/// over its own length, and over the dozens of such samples a run has, the
/// mean is the steadiest figure. A call of a few milliseconds either misses
/// a burst or is slowed by it, and a burst can cover most of a run, so over
/// a thousand such samples the fastest (best of N: the lowest time, the
/// highest throughput) follows the program while the median and even the
/// 10th percentile follow the host.
pub fn run_figure(xs: &[f64], higher_is_better: bool) -> f64 {
    let v = sorted(xs);
    match (v.len() < MANY_SAMPLES, higher_is_better) {
        (true, _) => v.iter().sum::<f64>() / v.len() as f64,
        (false, true) => v[v.len() - 1],
        (false, false) => v[0],
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`; `None` below eleven samples.
pub fn tail(xs: &[f64], higher_is_better: bool) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let v = sorted(xs);
    let pct = 100.0 * (n - 10) as f64 / n as f64;
    // The tail is the bad side: slow times, low throughput.
    let value = if higher_is_better { v[10] } else { v[n - 11] };
    Some((pct, value))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        );
    }
    s.push_str("}}");
    s
}

/// A JSON number with every digit of the `f64` (non-finite values, which
/// JSON cannot carry, become `null`).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// A JSON object of sample lists.
pub fn json_samples(m: &BTreeMap<String, Vec<f64>>) -> String {
    let fields: Vec<String> = m
        .iter()
        .map(|(k, v)| {
            let xs: Vec<String> = v.iter().map(|x| json_num(*x)).collect();
            format!("{}: [{}]", json_str(k), xs.join(", "))
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A JSON object of numbers.
pub fn json_obj(m: &BTreeMap<String, f64>) -> String {
    let fields: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilecc::cluster::obs::json::{parse, Json};

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_use_the_allowed_alphabet_once() {
        let all: Vec<&Metric> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .chain(PRINTED_ONLY)
            .collect();
        for m in &all {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
    }

    #[test]
    fn result_json_round_trips() {
        let metrics = [
            ("setup_s", 0.612_345_678_901_234_5, "s"),
            ("points_per_s", 1_234_567.891_011, "iter/s"),
            ("peak_rss_mb", 96.0, "MiB"),
            ("tiny", 5e-324, "s"),
        ];
        let text = result_json(true, 7, 0, &metrics);
        let j = parse(&text).unwrap();
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(j.get("attempted").and_then(Json::as_u64), Some(7));
        assert_eq!(j.get("failed").and_then(Json::as_u64), Some(0));
        let m = j.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(m.len(), metrics.len());
        for ((name, value, unit), (k, v)) in metrics.iter().zip(m) {
            assert_eq!(name, k);
            let got = v.get("value").and_then(Json::as_f64).unwrap();
            assert_eq!(got.to_bits(), value.to_bits(), "{name}");
            assert_eq!(v.get("unit").and_then(Json::as_str), Some(*unit));
        }
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn strings_and_objects_round_trip() {
        let s = "a \"q\" \\ \n tab\t";
        assert_eq!(parse(&json_str(s)).unwrap(), Json::Str(s.to_string()));
        let m: BTreeMap<String, f64> = [("x".to_string(), 0.1), ("y".to_string(), 3.0)].into();
        let j = parse(&json_obj(&m)).unwrap();
        assert_eq!(j.get("x").and_then(Json::as_f64), Some(0.1));
        assert_eq!(j.get("y").and_then(Json::as_f64), Some(3.0));
        let m: BTreeMap<String, Vec<f64>> = [("x".to_string(), vec![0.1, 2.0])].into();
        let j = parse(&json_samples(&m)).unwrap();
        let x = j.get("x").and_then(Json::as_arr).unwrap();
        assert_eq!(
            x.iter().filter_map(Json::as_f64).collect::<Vec<_>>(),
            [0.1, 2.0]
        );
    }

    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let j = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            j.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let f = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (f("name"), f("unit"), f("better"))
                })
                .collect()
        };
        let own = |t: &[Metric]| -> Vec<(String, String, String)> {
            t.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = j
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let own_w: Vec<String> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, own_w);
    }

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let xs: Vec<f64> = (0..=10).map(f64::from).collect();
        // Few samples: their mean.
        assert_eq!(run_figure(&xs, false), 5.0);
        assert_eq!(run_figure(&[1.0, 2.0, 6.0], true), 3.0);
        // Many samples: the fastest.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(run_figure(&xs, false), 1.0);
        assert_eq!(run_figure(&xs, true), 100.0);
        assert_eq!(tail(&[1.0; 10], false), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        // Ten samples lie beyond the p50 value 10 on the slow side.
        assert_eq!(tail(&xs, false), Some((50.0, 10.0)));
        assert_eq!(tail(&xs, true), Some((50.0, 11.0)));
    }
}
