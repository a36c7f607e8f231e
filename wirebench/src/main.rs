//! Wire-serving benchmark.
//!
//! Boots a real `harvest_net::WireServer` in this process, drives it over
//! loopback with one of four seeded traffic mixes, checks every answer,
//! and prints the metrics as one JSON object on the last line:
//!
//! ```text
//! wirebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs a short
//! wire phase, then replays the workload's bodies through each layer's
//! public functions under spans and prints the per-layer metrics. See
//! `README.md` beside this crate for what each workload exercises.

mod check;
mod client;
mod heap;
mod report;
mod trace;
mod workload;

use check::{Checker, Expected, Tally};
use client::{closed_loop, open_loop, open_schedule, operator_ops, Conn, Op, Payloads, Sample};
use harvest_net::{HttpLimits, WireConfig, WireServer};
use report::{median, parse_metrics, percentile, serving_delta, Metrics};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Body, Workload};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Servers booted per untraced run: at least the first figure, and more,
/// up to the second, while the boots stay within `SETUP_BUDGET`.
/// `setup_s` is their median.
const SETUP_BOOTS: (usize, usize) = (3, 41);
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing {k}"));
    let name = get("--workload")?;
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    Ok(Args {
        workload: workload::find(name)
            .ok_or(format!("unknown workload {name}; one of {names:?}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| *s >= 1.0)
            .ok_or("--seconds must be a number ≥ 1")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wirebench: {e}\nusage: wirebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("wirebench: {e}");
            ExitCode::from(3)
        }
    }
}

/// Everything generated before the server boots.
struct Inputs {
    config: WireConfig,
    graph: harvest_models::Graph,
    pool: Vec<Body>,
    /// `POST /admin/swap` requests, one per swap weight seed, each with
    /// the offset of its artifact bytes.
    swaps: Vec<(Vec<u8>, usize)>,
    expected: Expected,
}

impl Inputs {
    fn payloads(&self) -> Payloads<'_> {
        Payloads {
            classify: self.pool.iter().map(|b| b.request.as_slice()).collect(),
            swap: self.swaps.iter().map(|(r, _)| r.as_slice()).collect(),
        }
    }
}

fn generate(w: &Workload, seed: u64, nproc: usize) -> Inputs {
    let t = Instant::now();
    let config = w.config();
    let graph = harvest_models::vit("wire-served", &config.model);
    let pool = workload::body_pool(w, seed);
    // Expected classes run the same kernels the workers run; the
    // harvest-threads determinism contract makes them bit-identical at
    // any thread count, so they are computed on every core.
    let (expected, swaps) = harvest_threads::with_threads(nproc, || {
        let boot = workload::expected_classes(&pool, &graph, config.model_seed, config.out_res);
        let mut expected = Expected::new(config.model_seed, boot);
        let mut swaps = Vec::new();
        for s in w.swap_seeds(seed) {
            let (bytes, fp) = workload::artifact(&graph, s);
            // Classes under a swapped generation matter only when classify
            // traffic runs after the swap.
            let classes = match w.swap_every_s {
                Some(_) if s != config.model_seed => {
                    Some(workload::expected_classes(&pool, &graph, s, config.out_res))
                }
                _ => None,
            };
            expected.add_artifact(s, fp, classes);
            swaps.push(workload::post_request("/admin/swap", &bytes));
        }
        (expected, swaps)
    });
    let mb = pool.iter().map(|b| b.image().len()).sum::<usize>() as f64 / 1e6;
    let mut mix: BTreeMap<String, usize> = BTreeMap::new();
    for b in &pool {
        *mix.entry(format!("{:?}", b.dataset)).or_default() += 1;
    }
    println!(
        "inputs: {} bodies ({mb:.2} MB, {mix:?}), {} swap artifacts of {:.1} MB, generated in {:.2} s (outside setup_s)",
        pool.len(),
        swaps.len(),
        swaps.first().map_or(0, |(r, at)| r.len() - at) as f64 / 1e6,
        t.elapsed().as_secs_f64()
    );
    Inputs {
        config,
        graph,
        pool,
        swaps,
        expected,
    }
}

/// Reset the process's peak-RSS mark so `VmHWM` measures from here on.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// A running server, its client connections, and every exchange with it.
struct Live {
    server: WireServer,
    conns: Vec<Conn>,
    samples: Vec<Sample>,
}

impl Live {
    /// Start a server and send `/classify` until the first 200; returns the
    /// seconds from `WireServer::start` to that answer.
    fn boot(inputs: &Inputs, clients: usize) -> Result<(Live, f64), String> {
        let p = inputs.payloads();
        let t = Instant::now();
        let server = WireServer::start(inputs.config.clone()).map_err(|e| format!("start: {e}"))?;
        let mut conns: Vec<Conn> = (0..clients).map(|_| Conn::new(server.addr())).collect();
        let mut samples = Vec::new();
        loop {
            let s = client::run(
                &mut conns[0],
                &p,
                Op::Classify(0),
                Instant::now(),
                Duration::ZERO,
                Duration::ZERO,
            );
            let ok = s.status == 200;
            samples.push(s);
            if ok {
                break;
            }
            if t.elapsed() > Duration::from_secs(60) {
                return Err("no 200 on /classify within 60 s of start".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let secs = t.elapsed().as_secs_f64();
        Ok((
            Live {
                server,
                conns,
                samples,
            },
            secs,
        ))
    }

    fn scrape(&mut self, p: &Payloads<'_>) -> BTreeMap<String, f64> {
        let s = client::run(
            &mut self.conns[0],
            p,
            Op::Scrape,
            Instant::now(),
            Duration::ZERO,
            Duration::ZERO,
        );
        let m = parse_metrics(&s.body);
        self.samples.push(s);
        m
    }

    /// Drain the server and check its answers and its ledger.
    fn finish(self, inputs: &Inputs, checker: &mut Checker) {
        let mut tally = Tally::default();
        for s in &self.samples {
            tally.add(s.status);
        }
        checker.check_samples(&self.samples, &inputs.expected, inputs.config.model_seed);
        drop(self.conns);
        let report = self.server.shutdown();
        checker.check_ledger(&report, inputs.config.accept_threads, &tally);
    }
}

/// Print one phase's counts and return its generator lag p99 in ms.
fn phase_line(name: &str, samples: &[Sample], reconnects: u64) -> f64 {
    let mut t = Tally::default();
    samples.iter().for_each(|s| t.add(s.status));
    let lags: Vec<f64> = samples.iter().map(|s| s.lag.as_secs_f64() * 1e3).collect();
    let lag = if lags.is_empty() {
        0.0
    } else {
        percentile(&lags, 99.0)
    };
    println!(
        "phase {name}: sent {} succeeded {} failed {} (refused {}, errors {}, transport {}) reconnects {reconnects} gen_lag_p99_ms {lag:.3}",
        t.sent,
        t.ok,
        t.failed(),
        t.refused,
        t.error,
        t.transport
    );
    lag
}

fn reconnects(conns: &[Conn]) -> u64 {
    conns.iter().map(|c| c.reconnects).sum()
}

/// Latencies of one op kind in ms; a failed request never met any limit.
fn latencies(samples: &[Sample], pick: impl Fn(Op) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| pick(s.op))
        .map(|s| {
            if s.status == 200 {
                s.latency_ms()
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

fn is_classify(op: Op) -> bool {
    matches!(op, Op::Classify(_))
}

/// Open-loop classify traffic at the workload's rate, with its operator
/// ops on the same connections.
fn open_phase(
    w: &Workload,
    seed: u64,
    inputs: &Inputs,
    live: &mut Live,
    len: Duration,
    checker: &mut Checker,
) -> Vec<Sample> {
    let mut schedule = open_schedule(seed, w.rate_rps, len, inputs.pool.len());
    schedule.extend(operator_ops(
        len,
        w.swap_every_s,
        inputs.swaps.len(),
        w.scrape_every_s,
    ));
    schedule.sort_by_key(|(t, _)| *t);
    let r0 = reconnects(&live.conns);
    let conns = w.open_conns.min(live.conns.len());
    let open = open_loop(&mut live.conns[..conns], &inputs.payloads(), &schedule);
    let lag = phase_line("open-loop", &open, reconnects(&live.conns) - r0);
    checker.check_lag("open-loop", lag, w.rate_rps);
    live.samples.extend(open.iter().cloned());
    open
}

/// Closed-loop saturation, with the workload's operator ops.
fn closed_phase(
    w: &Workload,
    seed: u64,
    inputs: &Inputs,
    live: &mut Live,
    len: Duration,
) -> Vec<Sample> {
    let ops = operator_ops(len, w.swap_every_s, inputs.swaps.len(), w.scrape_every_s);
    let r0 = reconnects(&live.conns);
    let first = seed as usize % inputs.pool.len();
    let closed = closed_loop(&mut live.conns, &inputs.payloads(), len, &ops, first);
    phase_line("closed-loop", &closed, reconnects(&live.conns) - r0);
    live.samples.extend(closed.iter().cloned());
    closed
}

fn run(args: &Args) -> Result<bool, String> {
    let w = &args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = nproc.min(2);
    println!(
        "wirebench workload={} seed={} seconds={} trace={} nproc={nproc} clients={clients} rate={}/s limit={} ms",
        w.name, args.seed, args.seconds, args.trace as u8, w.rate_rps, w.limit_ms
    );
    let inputs = generate(w, args.seed, nproc);
    let mut checker = Checker::default();
    let metrics = if args.trace {
        traced(args, &inputs, clients, &mut checker)?
    } else {
        untraced(args, &inputs, clients, &mut checker)?
    };

    let want: Vec<(String, &'static str)> = if args.trace {
        report::per_layer()
    } else {
        report::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for m in metrics.mismatches(&want) {
        checker.findings.push(format!("result line: {m}"));
    }
    for f in &checker.findings {
        println!("FAIL: {f}");
    }
    println!(
        "checked: {} requests, {} failed, {} wrong classes",
        checker.attempted, checker.failed, checker.wrong_classes
    );
    println!(
        "{}",
        metrics.result_line(checker.ok(), checker.attempted, checker.failed)
    );
    Ok(checker.ok())
}

fn untraced(
    args: &Args,
    inputs: &Inputs,
    clients: usize,
    checker: &mut Checker,
) -> Result<Metrics, String> {
    let w = &args.workload;
    // Memory counts from here on: the inputs are already allocated.
    reset_peak_rss();
    let heap_base = heap::live_bytes();
    heap::take_peak_bytes();
    let mut setups = Vec::new();
    let t = Instant::now();
    let mut live = loop {
        let (l, secs) = Live::boot(inputs, clients)?;
        setups.push(secs);
        let n = setups.len();
        if n >= SETUP_BOOTS.0 && (n >= SETUP_BOOTS.1 || t.elapsed() > SETUP_BUDGET) {
            break l;
        }
        l.finish(inputs, checker);
    };
    println!("phase setup: {} boots, setup_s {setups:.3?}", setups.len());

    let total = Duration::from_secs_f64(args.seconds);
    let open = open_phase(w, args.seed, inputs, &mut live, total.mul_f64(0.6), checker);
    let closed = closed_phase(w, args.seed, inputs, &mut live, total.mul_f64(0.4));

    let peak_heap = heap::take_peak_bytes().saturating_sub(heap_base) as f64 / 1e6;
    let rss = peak_rss_mb();
    live.finish(inputs, checker);

    let lat = latencies(&open, is_classify);
    let good = closed
        .iter()
        .filter(|s| is_classify(s.op) && s.status == 200 && s.latency_ms() <= w.limit_ms)
        .count();
    let closed_n = closed.iter().filter(|s| is_classify(s.op)).count();
    let elapsed = closed
        .iter()
        .map(|s| s.done)
        .max()
        .unwrap_or_default()
        .as_secs_f64();
    let ok_frac = 1.0 - checker.failed as f64 / checker.attempted.max(1) as f64;

    let mut m = Metrics::default();
    let mut put = |name: &str, value: f64, unit: &'static str, n: String| {
        println!("metric {name} {value:.4} {unit} ({n})");
        m.put(name, value, unit);
    };
    put(
        "setup_s",
        median(&setups),
        "s",
        format!("median of n={}", setups.len()),
    );
    put(
        "latency_p50_ms",
        percentile(&lat, 50.0),
        "ms",
        format!("n={}", lat.len()),
    );
    put(
        "latency_p90_ms",
        percentile(&lat, 90.0),
        "ms",
        format!("n={}", lat.len()),
    );
    put(
        "goodput_rps",
        good as f64 / elapsed.max(1e-9),
        "1/s",
        format!(
            "{good} of n={closed_n} within {} ms over {elapsed:.2} s",
            w.limit_ms
        ),
    );
    put(
        "ok_frac",
        ok_frac,
        "ratio",
        format!(
            "failed_frac {:.4} of n={}",
            1.0 - ok_frac,
            checker.attempted
        ),
    );
    put(
        "peak_heap_mb",
        peak_heap,
        "MB",
        format!("live-heap high-water mark since inputs; process VmHWM {rss:.1} MB, not gated"),
    );
    // `swap_p50_ms` is not a gated metric (see README.md); print it where
    // swaps ran under load.
    let mut swaps = latencies(&open, |op| matches!(op, Op::Swap(_)));
    swaps.extend(latencies(&closed, |op| matches!(op, Op::Swap(_))));
    if !swaps.is_empty() {
        println!(
            "info swap_p50_ms {:.4} ms (n={}, not in BENCHMARK.json)",
            median(&swaps),
            swaps.len()
        );
    }
    Ok(m)
}

fn traced(
    args: &Args,
    inputs: &Inputs,
    clients: usize,
    checker: &mut Checker,
) -> Result<Metrics, String> {
    let w = &args.workload;
    let total = Duration::from_secs_f64(args.seconds);
    let p = inputs.payloads();
    let (mut live, setup) = Live::boot(inputs, clients)?;
    println!("phase setup: setup_s {setup:.3}");
    let before = live.scrape(&p);
    let open = open_phase(w, args.seed, inputs, &mut live, total.mul_f64(0.4), checker);
    let mid = live.scrape(&p);
    closed_phase(w, args.seed, inputs, &mut live, total.mul_f64(0.15));
    let after = live.scrape(&p);
    live.finish(inputs, checker);

    let untraced_p50 = percentile(&latencies(&open, is_classify), 50.0);
    let open_d = serving_delta(&before, &mid);
    let sat_d = serving_delta(&mid, &after);
    let hit_ratio = after
        .get("scratch_arena_hits_total")
        .copied()
        .unwrap_or(0.0)
        / after
            .get("scratch_arena_takes_total")
            .copied()
            .unwrap_or(0.0)
            .max(1.0);

    // Layer probes, in-process, with the served graph and boot weights.
    let cfg = &inputs.config;
    let exec = harvest_engine::Executor::new(&inputs.graph, cfg.model_seed);
    let limits = HttpLimits::from_serving(&cfg.limits);
    let batch = (open_d.batch_size_mean.round() as usize).clamp(1, cfg.preferred_batch as usize);
    let budget = total.mul_f64(0.1);
    let first = Instant::now();
    trace::replay(
        &inputs.pool,
        &exec,
        cfg.out_res,
        &limits,
        batch,
        batch,
        &mut trace::Tracer::new(),
    );
    let once = first.elapsed().as_secs_f64() / (2 * batch) as f64;
    let requests = ((budget.as_secs_f64() / once.max(1e-6)) as usize)
        .clamp(4, 4096)
        .max(batch);
    let mut tracer = trace::Tracer::new();
    let (plain, traced_e2e) = trace::replay(
        &inputs.pool,
        &exec,
        cfg.out_res,
        &limits,
        batch,
        requests,
        &mut tracer,
    );
    let selfs = tracer.self_times_ms();
    let self_p50 = |name: &str| selfs.get(name).map_or(0.0, |v| median(v));
    let decode_s: f64 = selfs
        .get("imaging.decode")
        .map_or(0.0, |v| v.iter().sum::<f64>())
        / 1e3;
    let decoded_mb: f64 = (0..requests)
        .map(|r| inputs.pool[r % inputs.pool.len()].image().len())
        .sum::<usize>() as f64
        / 1e6;

    let inputs_t: Vec<_> = inputs
        .pool
        .iter()
        .take(4)
        .map(|b| {
            let img = harvest_imaging::decode_auto(b.image()).expect("generated body decodes");
            harvest_preproc::preprocess_decoded(&img, cfg.out_res)
        })
        .collect();
    let (fwd, gflops) = trace::forward_probes(&exec, &inputs_t, total.mul_f64(0.15));
    let (swap_request, at) = &inputs.swaps[0];
    let (build_ms, verify_ms) =
        trace::engine_setup_probes(&inputs.graph, cfg.model_seed, &swap_request[*at..]);
    let kernels = trace::kernel_probes(exec.kernel_variant(), total.mul_f64(0.05));

    let dir = std::path::Path::new(".wirebench");
    let path = dir.join(format!("spans-{}-seed{}.tsv", w.name, args.seed));
    std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::File::create(&path))
        .and_then(|f| tracer.write_tsv(&mut std::io::BufWriter::new(f)))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    let blocking = [
        "net.parse",
        "imaging.decode",
        "preproc.transform",
        "engine.forward",
    ];
    let blocking_sum: f64 = blocking.iter().map(|n| self_p50(n)).sum();
    let residual = untraced_p50 - blocking_sum;
    let replay_p50 = median(&traced_e2e);
    let paired: Vec<f64> = traced_e2e.iter().zip(&plain).map(|(t, p)| t - p).collect();
    let overhead = median(&paired);
    println!(
        "trace: {} spans for {requests} replayed requests at batch {batch} -> {}",
        tracer.spans.len(),
        path.display()
    );
    println!("trace: self-time p50 per layer along the blocking path (ms):");
    for n in blocking
        .iter()
        .chain(["serving.batch_wait", "request"].iter())
    {
        println!("trace:   {n:<20} {:>10.4}", self_p50(n));
    }
    println!(
        "trace:   {:<20} {residual:>10.4}  (untraced wire p50 minus the blocking self times)",
        "net.residual"
    );
    println!(
        "trace: untraced wire p50 {untraced_p50:.4} ms = blocking self times {blocking_sum:.4} + residual {residual:.4}; traced replay p50 {replay_p50:.4} ms vs plain replay {:.4} ms: tracing overhead {overhead:.4} ms (median of {} paired differences)",
        median(&plain),
        paired.len()
    );
    println!("trace: kernels at ViT-Tiny B=1 shapes, variant {:?}; bytes are computed from tensor shapes, not measured", exec.kernel_variant());
    for k in &kernels {
        println!(
            "trace:   {:<14} {:>10.2} us/call {:>12.0} flop/call {:>12.0} B/call  {:>8.2} GFLOP/s  {:>8.2} GB/s",
            k.name,
            k.us,
            k.flops,
            k.bytes,
            k.flops / k.us / 1e3,
            k.bytes / k.us / 1e3
        );
    }

    let mut m = Metrics::default();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        println!("metric {name} {value:.4} {unit}");
        m.put(name, value, unit);
    };
    put("net.parse_us", self_p50("net.parse") * 1e3, "us");
    put("net.residual_ms", residual, "ms");
    put("serving.batch_size_mean", open_d.batch_size_mean, "count");
    put("serving.worker_share_max", open_d.worker_share_max, "ratio");
    put("serving.refused_frac", open_d.refused_frac, "ratio");
    put(
        "serving.batch_size_mean_sat",
        sat_d.batch_size_mean,
        "count",
    );
    put(
        "serving.worker_share_max_sat",
        sat_d.worker_share_max,
        "ratio",
    );
    put("imaging.decode_ms", self_p50("imaging.decode"), "ms");
    put(
        "imaging.decode_mb_s",
        decoded_mb / decode_s.max(1e-12),
        "MB/s",
    );
    put("preproc.transform_ms", self_p50("preproc.transform"), "ms");
    put("engine.build_ms", build_ms, "ms");
    for (b, ms) in &fwd {
        put(&format!("engine.forward_ms.b{b}"), *ms, "ms");
    }
    put("engine.gflops.b1", gflops, "GFLOP/s");
    put("engine.artifact_verify_ms", verify_ms, "ms");
    put("engine.scratch_hit_ratio", hit_ratio, "ratio");
    for k in &kernels {
        let gf = k.flops / k.us / 1e3;
        match k.name.split_once('.') {
            Some((kind, shape)) => {
                put(&format!("tensor.{kind}_gflops.{shape}"), gf, "GFLOP/s");
                put(&format!("tensor.{kind}_us.{shape}"), k.us, "us");
            }
            None => put(&format!("tensor.{}_us", k.name), k.us, "us"),
        }
    }
    put("trace.untraced_p50_ms", untraced_p50, "ms");
    put("trace.replay_p50_ms", replay_p50, "ms");
    put("trace.forward_self_ms", self_p50("engine.forward"), "ms");
    put("trace.overhead_ms", overhead, "ms");
    Ok(m)
}
