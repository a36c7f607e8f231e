//! The traced run's layer probes. Spans are recorded around calls into
//! each layer's public functions, in the wire's order, and kept in memory
//! until the run ends; kernel and engine probes time single calls.

use crate::report::{median, ATTN_SHAPES, GEMM_SHAPES};
use crate::workload::Body;
use harvest_engine::{decode_artifact_staged, Executor};
use harvest_imaging::decode_auto;
use harvest_models::{analytics, Graph};
use harvest_net::{parse_request, HttpLimits, Parsed};
use harvest_preproc::preprocess_decoded;
use harvest_simkit::SimRng;
use harvest_tensor::{gelu, gemm_v, layernorm, softmax_rows, KernelVariant, Tensor};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

/// One timed interval at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span in the trace, if any.
    pub parent: Option<usize>,
    pub request: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Record an interval measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) {
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent,
            request,
        });
    }

    /// Self time of every span, in ms, grouped by span name: its duration
    /// minus the part of its interval that its children cover.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let own = (s.end - s.start).saturating_sub(covered);
            out.entry(s.name).or_default().push(own.as_secs_f64() * 1e3);
        }
        out
    }

    /// Write the spans as tab-separated lines: id, parent, request, name,
    /// start and end in microseconds from the trace origin.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tparent\trequest\tname\tstart_us\tend_us")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{:.3}\t{:.3}",
                s.request,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            )?;
        }
        Ok(())
    }
}

/// Replay bodies through the layers in the wire's order: parse → decode →
/// preprocess per request, then one forward per `batch` requests. Every
/// group runs twice, once plain and once with each call recorded as a span
/// under its request's root span, alternating which goes first so both
/// see the same drift. Returns the per-request times in ms, plain and
/// traced, paired by position.
pub fn replay(
    pool: &[Body],
    exec: &Executor<'_>,
    out_res: usize,
    limits: &HttpLimits,
    batch: usize,
    requests: usize,
    tracer: &mut Tracer,
) -> (Vec<f64>, Vec<f64>) {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut sink = Vec::new();
    for (g, first) in (0..requests).step_by(batch).enumerate() {
        let group: Vec<usize> = (first..(first + batch).min(requests)).collect();
        let mut run = |t: Option<&mut Tracer>| {
            replay_group(pool, exec, out_res, limits, &group, &mut sink, t)
        };
        if g % 2 == 0 {
            plain.extend(run(None));
            traced.extend(run(Some(&mut *tracer)));
        } else {
            traced.extend(run(Some(&mut *tracer)));
            plain.extend(run(None));
        }
    }
    (plain, traced)
}

fn replay_group(
    pool: &[Body],
    exec: &Executor<'_>,
    out_res: usize,
    limits: &HttpLimits,
    group: &[usize],
    sink: &mut Vec<f32>,
    mut tracer: Option<&mut Tracer>,
) -> Vec<f64> {
    let mut roots = Vec::new();
    let mut inputs = Vec::new();
    for &r in group {
        let body = &pool[r % pool.len()];
        let start = Instant::now();
        let root = tracer
            .as_deref_mut()
            .map(|t| t.open("request", None, r as u64));
        let mut step = |name, a: Instant| {
            if let Some(t) = tracer.as_deref_mut() {
                t.record(name, a, Instant::now(), root, r as u64);
            }
        };
        let a = Instant::now();
        let request = match parse_request(&body.request, limits) {
            Ok(Parsed::Complete { request, .. }) => request,
            other => panic!("generated request does not parse: {other:?}"),
        };
        step("net.parse", a);
        let a = Instant::now();
        let img = decode_auto(&request.body).expect("generated body decodes");
        step("imaging.decode", a);
        let a = Instant::now();
        inputs.push(preprocess_decoded(&img, out_res));
        step("preproc.transform", a);
        roots.push((r, root, start, Instant::now()));
    }
    let a = Instant::now();
    harvest_threads::with_threads(1, || black_box(exec.forward_batch_into(&inputs, sink)));
    let b = Instant::now();
    roots
        .into_iter()
        .map(|(r, root, start, ready)| {
            if let Some(t) = tracer.as_deref_mut() {
                t.record("serving.batch_wait", ready, a, root, r as u64);
                t.record("engine.forward", a, b, root, r as u64);
                if let Some(root) = root {
                    t.close(root);
                }
            }
            (b - start).as_secs_f64() * 1e3
        })
        .collect()
}

/// Median time of `f` in ms over `reps` calls after one warm-up call.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t: Vec<f64> = (0..reps)
        .map(|_| {
            let a = Instant::now();
            f();
            a.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&t)
}

/// Repetitions that fit `budget` for a call of about `once_ms`, within
/// `[lo, hi]`.
fn reps_for(budget: Duration, once_ms: f64, lo: usize, hi: usize) -> usize {
    ((budget.as_secs_f64() * 1e3 / once_ms.max(1e-3)) as usize).clamp(lo, hi)
}

/// `engine.forward_ms.b{1,2,4}` and `engine.gflops.b1`, single-threaded
/// as in a pool worker. Returns `(batch, ms per call)` and GFLOP/s at B=1.
pub fn forward_probes(
    exec: &Executor<'_>,
    inputs: &[Tensor],
    budget: Duration,
) -> (Vec<(usize, f64)>, f64) {
    harvest_threads::with_threads(1, || {
        let mut sink = Vec::new();
        let batch = |b: usize| -> Vec<Tensor> {
            (0..b).map(|i| inputs[i % inputs.len()].clone()).collect()
        };
        // Size the scratch arena for the largest batch before timing.
        let b4 = batch(4);
        let a = Instant::now();
        black_box(exec.forward_batch_into(&b4, &mut sink));
        let b4_ms = a.elapsed().as_secs_f64() * 1e3;
        let per_batch = budget / 3;
        let mut out = Vec::new();
        for b in [1usize, 2, 4] {
            let inp = batch(b);
            let reps = reps_for(per_batch, b4_ms * b as f64 / 4.0, 3, 50);
            out.push((
                b,
                time_ms(reps, || {
                    black_box(exec.forward_batch_into(&inp, &mut sink));
                }),
            ));
        }
        let macs = analytics::stats(exec.graph()).macs_with_attention;
        let gflops = 2.0 * macs / (out[0].1 / 1e3) / 1e9;
        (out, gflops)
    })
}

/// `engine.build_ms` and `engine.artifact_verify_ms`.
pub fn engine_setup_probes(graph: &Graph, seed: u64, artifact: &[u8]) -> (f64, f64) {
    let build = time_ms(3, || {
        black_box(Executor::new(graph, seed));
    });
    let verify = time_ms(3, || {
        black_box(
            decode_artifact_staged(artifact, graph, false, None).expect("fresh artifact verifies"),
        );
    });
    (build, verify)
}

/// One kernel probe: time per call, operations per call, and bytes moved
/// per call (computed from tensor shapes, not measured).
pub struct KernelProbe {
    pub name: String,
    pub us: f64,
    pub flops: f64,
    pub bytes: f64,
}

fn uniform_vec(rng: &mut SimRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.uniform(-1.0, 1.0) as f32).collect()
}

/// The kernels at ViT-Tiny's B=1 shapes through `gemm_v` with `variant`,
/// plus LayerNorm, GELU and softmax, single-threaded as in a pool worker.
pub fn kernel_probes(variant: KernelVariant, budget: Duration) -> Vec<KernelProbe> {
    let mut rng = SimRng::new(0x007e_750a);
    let shapes: Vec<(String, usize, usize, usize)> = GEMM_SHAPES
        .iter()
        .map(|&(n, m, k, nn)| (format!("gemm.{n}"), m, k, nn))
        .chain(
            ATTN_SHAPES
                .iter()
                .map(|&(n, m, k, nn)| (format!("attn.{n}"), m, k, nn)),
        )
        .collect();
    let per = budget / (shapes.len() as u32 + 3);
    harvest_threads::with_threads(1, || {
        let mut out: Vec<KernelProbe> = shapes
            .into_iter()
            .map(|(name, m, k, n)| {
                let a = uniform_vec(&mut rng, m * k);
                let b = uniform_vec(&mut rng, k * n);
                let mut c = vec![0f32; m * n];
                let flops = 2.0 * (m * k * n) as f64;
                let reps = reps_for(per, flops / 20e6, 5, 200);
                let ms = time_ms(reps, || {
                    gemm_v(variant, black_box(&a), black_box(&b), &mut c, m, k, n);
                    black_box(&c);
                });
                KernelProbe {
                    name,
                    us: ms * 1e3,
                    flops,
                    bytes: 4.0 * (m * k + k * n + m * n) as f64,
                }
            })
            .collect();
        let (s, d, hidden) = (257usize, 192usize, 768usize);
        let mut x = uniform_vec(&mut rng, s * d);
        let (gamma, beta) = (uniform_vec(&mut rng, d), uniform_vec(&mut rng, d));
        let ms = time_ms(reps_for(per, 0.05, 5, 500), || {
            layernorm(black_box(&mut x), d, &gamma, &beta, 1e-6)
        });
        out.push(KernelProbe {
            name: "layernorm".into(),
            us: ms * 1e3,
            flops: 8.0 * (s * d) as f64,
            bytes: 4.0 * (2 * s * d + 2 * d) as f64,
        });
        let mut h = uniform_vec(&mut rng, s * hidden);
        let ms = time_ms(reps_for(per, 0.5, 5, 500), || gelu(black_box(&mut h)));
        out.push(KernelProbe {
            name: "gelu".into(),
            us: ms * 1e3,
            flops: 10.0 * (s * hidden) as f64,
            bytes: 4.0 * (2 * s * hidden) as f64,
        });
        let mut scores = uniform_vec(&mut rng, s * s);
        let ms = time_ms(reps_for(per, 0.3, 5, 500), || {
            softmax_rows(black_box(&mut scores), s)
        });
        out.push(KernelProbe {
            name: "softmax".into(),
            us: ms * 1e3,
            flops: 5.0 * (s * s) as f64,
            bytes: 4.0 * (2 * s * s) as f64,
        });
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mut t = Tracer::new();
        let ms = Duration::from_millis;
        t.spans.push(Span {
            name: "request",
            start: ms(0),
            end: ms(10),
            parent: None,
            request: 0,
        });
        t.spans.push(Span {
            name: "a",
            start: ms(1),
            end: ms(4),
            parent: Some(0),
            request: 0,
        });
        t.spans.push(Span {
            name: "b",
            start: ms(3),
            end: ms(6),
            parent: Some(0),
            request: 0,
        });
        let s = t.self_times_ms();
        assert!((s["request"][0] - 5.0).abs() < 1e-9, "{s:?}");
        assert!((s["a"][0] - 3.0).abs() < 1e-9);
    }
}
