//! Summaries and the result line: percentiles, `/metrics` deltas, and the
//! JSON object the benchmark prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (tracing off), as named in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("ok_frac", "ratio"),
    ("peak_heap_mb", "MB"),
];

/// The ViT-Tiny B=1 GEMM shapes the tensor probes time, `(name, m, k, n)`.
pub const GEMM_SHAPES: &[(&str, usize, usize, usize)] = &[
    ("qkv", 257, 192, 576),
    ("proj", 257, 192, 192),
    ("mlp_up", 257, 192, 768),
    ("mlp_down", 257, 768, 192),
];

/// The per-head attention matmul shapes, `(name, m, k, n)`.
pub const ATTN_SHAPES: &[(&str, usize, usize, usize)] =
    &[("qk", 257, 64, 257), ("av", 257, 257, 64)];

/// Per-layer metrics (traced run), as named in `BENCHMARK.json`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("net.parse_us", "us"),
        ("net.residual_ms", "ms"),
        ("serving.batch_size_mean", "count"),
        ("serving.worker_share_max", "ratio"),
        ("serving.refused_frac", "ratio"),
        ("serving.batch_size_mean_sat", "count"),
        ("serving.worker_share_max_sat", "ratio"),
        ("imaging.decode_ms", "ms"),
        ("imaging.decode_mb_s", "MB/s"),
        ("preproc.transform_ms", "ms"),
        ("engine.build_ms", "ms"),
        ("engine.forward_ms.b1", "ms"),
        ("engine.forward_ms.b2", "ms"),
        ("engine.forward_ms.b4", "ms"),
        ("engine.gflops.b1", "GFLOP/s"),
        ("engine.artifact_verify_ms", "ms"),
        ("engine.scratch_hit_ratio", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for (name, ..) in GEMM_SHAPES {
        v.push((format!("tensor.gemm_gflops.{name}"), "GFLOP/s"));
        v.push((format!("tensor.gemm_us.{name}"), "us"));
    }
    for (name, ..) in ATTN_SHAPES {
        v.push((format!("tensor.attn_gflops.{name}"), "GFLOP/s"));
        v.push((format!("tensor.attn_us.{name}"), "us"));
    }
    for (n, u) in [
        ("tensor.layernorm_us", "us"),
        ("tensor.gelu_us", "us"),
        ("tensor.softmax_us", "us"),
        ("trace.untraced_p50_ms", "ms"),
        ("trace.replay_p50_ms", "ms"),
        ("trace.forward_self_ms", "ms"),
        ("trace.overhead_ms", "ms"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Parse the `/metrics` text exposition (`name value` per line).
pub fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            let value = match value.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok()? as f64,
                None => value.parse().ok()?,
            };
            Some((name.to_string(), value))
        })
        .collect()
}

/// Serving-layer figures from two `/metrics` snapshots around a phase.
pub struct ServingDelta {
    pub batch_size_mean: f64,
    pub worker_share_max: f64,
    pub refused_frac: f64,
}

pub fn serving_delta(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> ServingDelta {
    let d = |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    let batches = d("executed_batches_full");
    let workers = after.get("pool_workers").copied().unwrap_or(0.0) as usize;
    let busiest = (0..workers)
        .map(|w| d(&format!("pool_worker_{w}_batches")))
        .fold(0.0, f64::max);
    ServingDelta {
        batch_size_mean: d("executed_requests_full") / batches.max(1.0),
        worker_share_max: busiest / batches.max(1.0),
        refused_frac: (d("wire_rejected") + d("wire_shed")) / d("wire_accepted").max(1.0),
    }
}

/// Metrics collected for the result line, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// Names and units that differ from `want`, in either direction.
    pub fn mismatches(&self, want: &[(String, &'static str)]) -> Vec<String> {
        let have: BTreeMap<&str, &str> = self.0.iter().map(|(n, _, u)| (n.as_str(), *u)).collect();
        let want_map: BTreeMap<&str, &str> = want.iter().map(|(n, u)| (n.as_str(), *u)).collect();
        let mut out: Vec<String> = want_map
            .iter()
            .filter(|(n, u)| have.get(*n) != Some(*u))
            .map(|(n, u)| format!("missing {n} [{u}]"))
            .collect();
        out.extend(
            have.keys()
                .filter(|n| !want_map.contains_key(*n))
                .map(|n| format!("unexpected {n}")),
        );
        out
    }

    /// The last line of the run's output.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
            attempted.max(1)
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            // JSON has no infinities or NaN; an undefined figure reads as
            // the largest finite number so it can never pass for a good one.
            let v = if value.is_finite() { *value } else { f64::MAX };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names and units of one section of `BENCHMARK.json`, read with a
    /// plain text scan (the file is flat and machine-written).
    fn declared(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\"")).expect("field") + key.len() + 2;
                    let rest = &entry[at..];
                    let open = rest.find('"').expect("value opens") + 1;
                    let len = rest[open..].find('"').expect("value closes");
                    rest[open..open + len].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_the_metrics_printed() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layer);
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        for (i, (name, unit)) in END_TO_END.iter().enumerate() {
            m.put(name, 1.5 + i as f64, unit);
        }
        let want: Vec<(String, &'static str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        assert!(m.mismatches(&want).is_empty());
        let line = m.result_line(true, 10, 0);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": "))
                    && line.contains(&format!("\"unit\": \"{unit}\"")),
                "{name} missing from {line}"
            );
        }
        m.put("extra", 1.0, "ms");
        assert_eq!(m.mismatches(&want), vec!["unexpected extra".to_string()]);
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn serving_delta_reads_batch_and_worker_counters() {
        let before = parse_metrics("executed_batches_full 2\nexecuted_requests_full 2\npool_workers 2\npool_worker_0_batches 1\npool_worker_1_batches 1\nwire_accepted 3\n");
        let after = parse_metrics("executed_batches_full 6\nexecuted_requests_full 14\npool_workers 2\npool_worker_0_batches 4\npool_worker_1_batches 2\nwire_accepted 15\nwire_rejected 3\ngeneration_current_fingerprint 0x10\n");
        assert_eq!(after["generation_current_fingerprint"], 16.0);
        let d = serving_delta(&before, &after);
        assert_eq!(d.batch_size_mean, 3.0);
        assert_eq!(d.worker_share_max, 0.75);
        assert_eq!(d.refused_frac, 0.25);
    }
}
