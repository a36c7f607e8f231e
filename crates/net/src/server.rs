//! The wire server: hardened HTTP/1.1 serving over the real batch engine.
//!
//! Architecture: `accept_threads` accept loops share one
//! `std::net::TcpListener`, each handling its accepted connection to
//! completion (parse → decode → preprocess → submit). Inference runs on a
//! **data-parallel engine worker pool**: an engine thread drives the
//! serving layer's sans-IO batch/swap core ([`BatchCore`]) at width
//! `engine_workers`, and that many replica executors each serve whole
//! batches. The core owns batching, the weight-generation cell, worker
//! assignment (`seq % engine_workers`) and the submission-order merge, so
//! logits, completion order, and wire fingerprints are bit-identical at
//! every pool width; this module only moves the core's events over
//! channels. Connections talk to the engine over an mpsc channel and block
//! on a per-request reply channel, so batches form across connections
//! while the pool overlaps their execution. The breaker's degraded rung is
//! a [`RealBatchServer`]: the same core at width 1, executing inline on the
//! engine thread.
//!
//! Hardening contract:
//!
//! * every connection runs under read/write deadlines (slowloris defense)
//!   and the parser's byte caps (oversize defense) — a hostile peer can
//!   cost at most one bounded buffer and one deadline tick;
//! * every fully parsed request gets **exactly one** response: a
//!   classification, a typed error, or an explicit `503 Retry-After`.
//!   [`WireSnapshot::conserved`] checks the ledger:
//!   `responded_ok + responded_error + rejected + shed == accepted`;
//! * graceful drain ([`WireServer::begin_drain`] /
//!   [`WireServer::shutdown`]): in-flight batches flush to completion, new
//!   work is answered `503` with `Retry-After`, and every spawned thread is
//!   joined — the [`DrainReport`] counts them so leaks are a test failure,
//!   not a mystery;
//! * live operations: `POST /admin/swap` stages a weight artifact through
//!   the engine's integrity-gated load (one staging slot — a concurrent
//!   swap gets `409`; a draining or breaker-open engine gets `503`), and
//!   `GET /metrics` exposes a deterministic text snapshot of the wire
//!   ledger, queue depths, breaker/ladder state, the weight-generation
//!   cell (current/previous fingerprints, swap/rollback/rejected-load
//!   counts), and the pool's per-worker and scratch counters.

use crate::http::{parse_request, write_response, HttpLimits, Method, Parsed, Request};
use harvest_engine::{ActivationGuard, Executor, MaterializedWeights, ScratchStats, WeightStore};
use harvest_imaging::decode_auto;
use harvest_models::{vit, Graph, VitConfig};
use harvest_preproc::preprocess_decoded;
use harvest_serving::{
    BatchCore, BatcherConfig, BreakerConfig, BreakerState, CircuitBreaker, Completion, CoreEvent,
    RealBatchServer, RunBatch, ServeFault, ServingLimits, ShedPolicy, Verdict,
};
use harvest_simkit::SimTime;
use harvest_tensor::Tensor;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything the wire needs to come up.
#[derive(Clone, Debug)]
pub struct WireConfig {
    /// Address to bind; port 0 picks a free one.
    pub addr: String,
    /// Accept loops ("thread per core" on the target edge boxes).
    pub accept_threads: usize,
    /// Batch the engine prefers (size trigger).
    pub preferred_batch: u32,
    /// Delay trigger for partial batches, milliseconds.
    pub max_queue_delay_ms: u64,
    /// Shared serving bounds (body cap, queue bound, in-flight bound) —
    /// the single source of truth the HTTP layer and batcher both obey.
    pub limits: ServingLimits,
    /// Shed the oldest queued request instead of rejecting new ones.
    pub drop_oldest: bool,
    /// Per-connection read deadline, milliseconds.
    pub read_timeout_ms: u64,
    /// Per-connection write deadline, milliseconds.
    pub write_timeout_ms: u64,
    /// Model input resolution (decoded images are resized to this).
    pub out_res: usize,
    /// The model the engine serves.
    pub model: VitConfig,
    /// Weight seed for the served model.
    pub model_seed: u64,
    /// Admission breaker in front of the engine: engine faults feed its
    /// error EWMA, and an open breaker turns `/classify` away with
    /// `503 Retry-After` instead of queueing doomed work.
    pub breaker: BreakerConfig,
    /// Degradation ladder rung: while the breaker is half-open, requests
    /// are served by this cheaper model instead of probing the full one.
    /// Must share `img` and `classes` with `model`. `None` probes the full
    /// model directly.
    pub degraded_model: Option<VitConfig>,
    /// Finite-magnitude ceiling for the swap sentinel that vets a freshly
    /// swapped generation's first batch (a violation rolls the swap back);
    /// `None` still checks for NaN/Inf.
    pub swap_guard_range_limit: Option<f32>,
    /// Width of the data-parallel engine worker pool. Each worker owns a
    /// replica executor over the shared weight generations; batches are
    /// assigned `seq % engine_workers` and completions merge back in
    /// submission order, so serving is bit-identical at every width. The
    /// in-flight and queue bounds in `limits` stay pool-wide. Must be ≥ 1.
    pub engine_workers: usize,
    /// Deterministic per-batch service-time floor, milliseconds (0 = off).
    /// A worker holds each batch at least this long, so pool overlap is
    /// measurable even on hosts with fewer cores than workers — logits and
    /// fingerprints are unaffected. The serve scale-up experiment uses it.
    pub engine_batch_floor_ms: u64,
}

impl Default for WireConfig {
    /// A small-but-real deployment: the tiny ViT the serving tests use,
    /// four accept loops, 4-way batching with a 5 ms delay trigger, and
    /// deadlines tuned for loopback tests.
    fn default() -> Self {
        WireConfig {
            addr: "127.0.0.1:0".to_string(),
            accept_threads: 4,
            preferred_batch: 4,
            max_queue_delay_ms: 5,
            limits: ServingLimits::default(),
            drop_oldest: false,
            read_timeout_ms: 250,
            write_timeout_ms: 1000,
            out_res: 16,
            model: VitConfig {
                dim: 32,
                depth: 1,
                heads: 2,
                patch: 4,
                img: 16,
                mlp_ratio: 2,
                classes: 4,
            },
            model_seed: 7,
            breaker: BreakerConfig::default(),
            degraded_model: Some(VitConfig {
                dim: 16,
                depth: 1,
                heads: 1,
                patch: 4,
                img: 16,
                mlp_ratio: 2,
                classes: 4,
            }),
            swap_guard_range_limit: Some(1e6),
            engine_workers: 2,
            engine_batch_floor_ms: 0,
        }
    }
}

/// Outcome counters, updated live by every connection.
///
/// The conservation classes: `accepted` counts fully parsed requests, and
/// each accepted request lands in exactly one of `responded_ok`,
/// `responded_error`, `rejected`, `shed`. Connection-level failures that
/// never produced a parsed request (`bad_requests`, `timeouts`,
/// `incomplete`, `idle_closes`) sit outside the ledger — nothing was
/// promised for them beyond the error/close they got.
#[derive(Debug, Default)]
pub struct WireStats {
    /// Connections that delivered at least one byte.
    pub connections: AtomicU64,
    /// Fully parsed requests (the conservation base).
    pub accepted: AtomicU64,
    /// 2xx responses.
    pub responded_ok: AtomicU64,
    /// 4xx/5xx responses to accepted requests (404/405/422/500).
    pub responded_error: AtomicU64,
    /// Explicit 503s: queue full, in-flight cap, or draining.
    pub rejected: AtomicU64,
    /// Explicit 503s for requests shed from the queue by DropOldest.
    pub shed: AtomicU64,
    /// Malformed requests answered with the parser's typed status.
    pub bad_requests: AtomicU64,
    /// Connections that died mid-request (reset/EOF with bytes pending).
    pub incomplete: AtomicU64,
    /// Read deadlines that fired with a partial request (answered 408).
    pub timeouts: AtomicU64,
    /// Clean closes with no partial request pending.
    pub idle_closes: AtomicU64,
    /// Responses the peer was gone for (diagnostic; the outcome above
    /// still counts — the server kept its side of the ledger).
    pub write_failures: AtomicU64,
    /// Diagnostic overlap counter: 503s issued because the admission
    /// breaker was open (every one is also counted in `rejected`).
    pub breaker_open: AtomicU64,
    /// Diagnostic overlap counter: 2xx responses served by the degraded
    /// ladder rung (every one is also counted in `responded_ok`).
    pub degraded_ok: AtomicU64,
}

/// A point-in-time copy of [`WireStats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireSnapshot {
    /// See [`WireStats::connections`].
    pub connections: u64,
    /// See [`WireStats::accepted`].
    pub accepted: u64,
    /// See [`WireStats::responded_ok`].
    pub responded_ok: u64,
    /// See [`WireStats::responded_error`].
    pub responded_error: u64,
    /// See [`WireStats::rejected`].
    pub rejected: u64,
    /// See [`WireStats::shed`].
    pub shed: u64,
    /// See [`WireStats::bad_requests`].
    pub bad_requests: u64,
    /// See [`WireStats::incomplete`].
    pub incomplete: u64,
    /// See [`WireStats::timeouts`].
    pub timeouts: u64,
    /// See [`WireStats::idle_closes`].
    pub idle_closes: u64,
    /// See [`WireStats::write_failures`].
    pub write_failures: u64,
    /// See [`WireStats::breaker_open`].
    pub breaker_open: u64,
    /// See [`WireStats::degraded_ok`].
    pub degraded_ok: u64,
}

impl WireSnapshot {
    /// Does the outcome ledger balance? Every accepted request must be in
    /// exactly one outcome class — none lost, none double-counted.
    pub fn conserved(&self) -> bool {
        self.responded_ok + self.responded_error + self.rejected + self.shed == self.accepted
    }
}

impl WireStats {
    fn snapshot(&self) -> WireSnapshot {
        WireSnapshot {
            connections: self.connections.load(Ordering::SeqCst),
            accepted: self.accepted.load(Ordering::SeqCst),
            responded_ok: self.responded_ok.load(Ordering::SeqCst),
            responded_error: self.responded_error.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            shed: self.shed.load(Ordering::SeqCst),
            bad_requests: self.bad_requests.load(Ordering::SeqCst),
            incomplete: self.incomplete.load(Ordering::SeqCst),
            timeouts: self.timeouts.load(Ordering::SeqCst),
            idle_closes: self.idle_closes.load(Ordering::SeqCst),
            write_failures: self.write_failures.load(Ordering::SeqCst),
            breaker_open: self.breaker_open.load(Ordering::SeqCst),
            degraded_ok: self.degraded_ok.load(Ordering::SeqCst),
        }
    }
}

/// What shutdown left behind.
#[derive(Debug)]
pub struct DrainReport {
    /// Final counters.
    pub stats: WireSnapshot,
    /// Threads joined on the way down (accept loops + engine). A value
    /// short of `accept_threads + 1` means something leaked.
    pub threads_joined: usize,
}

/// One request's resolution, sent back from the engine thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WireOutcome {
    /// Inference ran; argmax class, the batch the request rode in, whether
    /// the degraded ladder rung served it, and the weight generation that
    /// produced the logits.
    Done {
        class: usize,
        batch: usize,
        degraded: bool,
        generation: u64,
    },
    /// Bounded queue (or drain) turned the request away.
    Rejected,
    /// The admission breaker is open; answered 503 with Retry-After.
    BreakerOpen,
    /// DropOldest evicted the request to admit newer work.
    Shed,
    /// Internal fault ([`ServeFault`]); answered 500.
    Failed,
}

enum EngineMsg {
    Submit {
        id: u64,
        input: Tensor,
        reply: mpsc::Sender<WireOutcome>,
    },
    /// Force the admission breaker open (operator hook; also what the
    /// deterministic wire tests use to stage an outage).
    TripBreaker,
    /// Flush every queued request and refuse new ones.
    Drain,
    /// Stage a weight artifact: verify, publish, install — or reject with
    /// a typed error and keep serving the current generation.
    Swap {
        body: Vec<u8>,
        reply: mpsc::Sender<SwapOutcome>,
    },
    /// Snapshot the engine-side metrics (queues, breaker, generations).
    Metrics { reply: mpsc::Sender<String> },
    /// A pool worker's verdict on a dispatched batch (internal: workers
    /// share the engine's channel so one blocking receive drives both
    /// external traffic and the core's merge). The worker's scratch
    /// counters ride along so `/metrics` never has to stop the pool.
    WorkerDone {
        seq: u64,
        worker: usize,
        verdict: Verdict<usize>,
        scratch: ScratchStats,
    },
    /// Shut the engine down once the drain has settled (sent by
    /// [`WireServer::shutdown`] after the accept loops are joined).
    Stop,
}

/// What the engine sends one pool worker.
enum WorkerMsg {
    /// Run a batch; report argmax classes, or a sentinel violation when
    /// the batch carries a guard.
    Run(RunBatch),
    /// Install a newly published (or rolled-back-to) weight generation.
    Install(Arc<MaterializedWeights>),
    Stop,
}

/// Resolution of one `POST /admin/swap`, sent back from the engine thread.
enum SwapOutcome {
    /// The artifact passed every check and now serves.
    Swapped { generation: u64, fingerprint: u64 },
    /// The integrity gate refused the artifact; the serving generation is
    /// untouched.
    Rejected { error: String },
    /// The admission breaker is open: the engine is not healthy enough to
    /// take a new generation.
    BreakerOpen,
    /// The engine has drained; no further swaps.
    Draining,
}

/// State shared by the accept loops and the shutdown path.
struct Shared {
    stats: WireStats,
    draining: AtomicBool,
    stopping: AtomicBool,
    next_id: AtomicU64,
    in_flight: AtomicU64,
    /// One swap may stage at a time: held from `/admin/swap` admission
    /// until the engine's verdict lands; a concurrent swap gets `409`.
    swap_staging: AtomicBool,
}

/// A running wire front-end. Dropping it without [`WireServer::shutdown`]
/// leaks the serving threads; tests should always drain.
pub struct WireServer {
    addr: SocketAddr,
    config: WireConfig,
    shared: Arc<Shared>,
    engine_tx: Mutex<Option<mpsc::Sender<EngineMsg>>>,
    accept_handles: Vec<JoinHandle<()>>,
    engine_handle: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Bind, spawn the engine pool and the accept loops, and start
    /// serving. Every configuration or startup failure is an `io::Error`.
    pub fn start(config: WireConfig) -> io::Result<WireServer> {
        let mut batcher = config
            .limits
            .batcher_config(
                config.preferred_batch,
                SimTime::from_millis(config.max_queue_delay_ms),
            )
            .map_err(invalid)?;
        if config.drop_oldest {
            batcher.shed = ShedPolicy::DropOldest;
        }
        // The derived config must still agree with the limits it came from.
        config.limits.check_batcher(&batcher).map_err(invalid)?;
        if config.accept_threads == 0 {
            return Err(invalid("accept_threads must be at least 1"));
        }
        // The pool check also documents the contract: queue and in-flight
        // bounds are pool-wide, so widening the pool never widens them.
        config
            .limits
            .check_pool(config.engine_workers)
            .map_err(invalid)?;
        config.breaker.validate().map_err(invalid)?;
        if let Some(d) = &config.degraded_model {
            if d.img != config.model.img || d.classes != config.model.classes {
                return Err(invalid(
                    "degraded_model must share img and classes with model",
                ));
            }
        }

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stats: WireStats::default(),
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            swap_staging: AtomicBool::new(false),
        });

        // The pool: `engine_workers` replica executors over one shared
        // graph. Workers send verdicts back over the engine's own channel,
        // so the engine has one blocking receive.
        let (tx, rx) = mpsc::channel::<EngineMsg>();
        let graph = Arc::new(vit("wire-served", &config.model));
        let floor = Duration::from_millis(config.engine_batch_floor_ms);
        let mut workers = Vec::with_capacity(config.engine_workers);
        for w in 0..config.engine_workers {
            let (wtx, wrx) = mpsc::channel::<WorkerMsg>();
            let graph = Arc::clone(&graph);
            let done = tx.clone();
            let seed = config.model_seed;
            let handle = std::thread::Builder::new()
                .name(format!("wire-exec-{w}"))
                .spawn(move || worker_loop(w, &graph, seed, floor, wrx, done))?;
            workers.push((wtx, handle));
        }

        // The engine thread builds the batch core over the graph and
        // reports back before any connection is accepted.
        let (ready_tx, ready_rx) = mpsc::channel::<Result<(), String>>();
        let engine_handle = {
            let config = config.clone();
            let tick = Duration::from_millis(config.max_queue_delay_ms.div_ceil(2).max(1));
            std::thread::Builder::new()
                .name("wire-engine".to_string())
                .spawn(move || engine_loop(rx, config, batcher, graph, workers, tick, ready_tx))?
        };
        let ready = ready_rx
            .recv()
            .unwrap_or_else(|_| Err("engine thread exited during startup".to_string()));
        if let Err(e) = ready {
            let _ = engine_handle.join();
            return Err(invalid(e));
        }

        let mut accept_handles = Vec::with_capacity(config.accept_threads);
        for worker in 0..config.accept_threads {
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            let config = config.clone();
            accept_handles.push(
                std::thread::Builder::new()
                    .name(format!("wire-accept-{worker}"))
                    .spawn(move || accept_loop(listener, addr, shared, tx, config))?,
            );
        }

        Ok(WireServer {
            addr,
            config,
            shared,
            engine_tx: Mutex::new(Some(tx)),
            accept_handles,
            engine_handle: Some(engine_handle),
        })
    }

    /// Where the server is listening.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The configuration this server was started with.
    pub fn config(&self) -> &WireConfig {
        &self.config
    }

    /// Live counters.
    pub fn stats(&self) -> WireSnapshot {
        self.shared.stats.snapshot()
    }

    /// The engine channel. A thread that panicked while holding the lock
    /// cannot have left the `Option` half-written, so a poisoned lock is
    /// recovered rather than propagated.
    fn engine_tx(&self) -> MutexGuard<'_, Option<mpsc::Sender<EngineMsg>>> {
        self.engine_tx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Force the admission breaker open: `/classify` answers
    /// `503 Retry-After` until the cooldown elapses, then the half-open
    /// probes run through the degradation ladder. Operator hook — also the
    /// deterministic way for tests to stage an engine outage.
    pub fn trip_breaker(&self) {
        if let Some(tx) = self.engine_tx().as_ref() {
            let _ = tx.send(EngineMsg::TripBreaker);
        }
    }

    /// Enter drain mode: flush the queued work, answer everything new with
    /// `503 Retry-After`. Idempotent; the listener stays up so clients get
    /// explicit refusals instead of connection errors.
    pub fn begin_drain(&self) {
        if !self.shared.draining.swap(true, Ordering::SeqCst) {
            if let Some(tx) = self.engine_tx().as_ref() {
                let _ = tx.send(EngineMsg::Drain);
            }
        }
    }

    /// Drain, stop accepting, and join every thread.
    pub fn shutdown(mut self) -> DrainReport {
        self.begin_drain();
        self.shared.stopping.store(true, Ordering::SeqCst);
        // Wake one accept loop; each exiting loop relays the wake-up so a
        // single nudge unwinds all of them regardless of which thread wins
        // each accept race.
        let _ = TcpStream::connect(self.addr);
        let mut joined = 0;
        for handle in self.accept_handles.drain(..) {
            if handle.join().is_ok() {
                joined += 1;
            }
        }
        // The accept loops are joined, so no submission is in flight. The
        // pool workers hold clones of the engine sender (the channel never
        // disconnects on its own), so shutdown is an explicit message: the
        // engine finishes the drain, stops and joins its workers, and exits.
        if let Some(tx) = self.engine_tx().take() {
            let _ = tx.send(EngineMsg::Stop);
        }
        if let Some(handle) = self.engine_handle.take() {
            if handle.join().is_ok() {
                joined += 1;
            }
        }
        DrainReport {
            stats: self.shared.stats.snapshot(),
            threads_joined: joined,
        }
    }
}

/// A configuration the server cannot start with.
fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, e.to_string())
}

/// A request the engine has admitted but not yet resolved.
struct PendingReply {
    tx: mpsc::Sender<WireOutcome>,
    submitted: SimTime,
    degraded: bool,
}

/// One pool worker: a replica executor serving whole batches. Kernels run
/// sequentially inside the worker (`with_threads(1)`) — parallelism comes
/// from the pool itself — and the executor's persistent scratch plus the
/// reusable logit sink make the steady-state batch allocation-free. The
/// `harvest-threads` determinism contract keeps per-request logits
/// bit-identical to every other worker and every pool width.
fn worker_loop(
    worker: usize,
    graph: &Graph,
    seed: u64,
    floor: Duration,
    rx: mpsc::Receiver<WorkerMsg>,
    done: mpsc::Sender<EngineMsg>,
) {
    harvest_threads::with_threads(1, || {
        let mut exec = Executor::new(graph, seed);
        let mut sink: Vec<f32> = Vec::new();
        while let Ok(msg) = rx.recv() {
            match msg {
                WorkerMsg::Run(batch) => {
                    let started = Instant::now();
                    let verdict = match batch.guard {
                        Some(g) => {
                            let run = exec.forward_batch_checked(&batch.inputs, Some(&g), None);
                            match run.violation {
                                Some(_) => Verdict::Violation(batch.inputs),
                                None => Verdict::Outputs(
                                    run.outputs.iter().map(|t| argmax(t.data())).collect(),
                                ),
                            }
                        }
                        None => {
                            let per = exec.forward_batch_into(&batch.inputs, &mut sink).max(1);
                            Verdict::Outputs(sink.chunks_exact(per).map(argmax).collect())
                        }
                    };
                    if floor > Duration::ZERO {
                        let elapsed = started.elapsed();
                        if elapsed < floor {
                            std::thread::sleep(floor - elapsed);
                        }
                    }
                    let msg = EngineMsg::WorkerDone {
                        seq: batch.seq,
                        worker,
                        verdict,
                        scratch: exec.scratch_stats(),
                    };
                    if done.send(msg).is_err() {
                        break;
                    }
                }
                WorkerMsg::Install(w) => exec.install_weights(w),
                WorkerMsg::Stop => break,
            }
        }
    });
}

/// The engine thread's state: the batch core at pool width, the pool's
/// channels, the degraded ladder rung, the admission breaker, and the
/// reply channels of everything unresolved.
struct Engine<'g> {
    core: BatchCore<'g, usize>,
    workers: Vec<mpsc::Sender<WorkerMsg>>,
    worker_scratch: Vec<ScratchStats>,
    degraded: Option<RealBatchServer<'g>>,
    breaker: CircuitBreaker,
    waiting: HashMap<u64, PendingReply>,
    /// Staged `/admin/swap`s awaiting the core's verdict, in order.
    swaps: VecDeque<mpsc::Sender<SwapOutcome>>,
    drain_requested: bool,
    drained: bool,
    start: Instant,
}

impl Engine<'_> {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.start.elapsed().as_nanos() as u64)
    }

    /// The one reply path, for both ladder rungs: resolve a waiting
    /// request exactly once.
    fn answer(&mut self, id: u64, outcome: WireOutcome) {
        if let Some(p) = self.waiting.remove(&id) {
            let _ = p.tx.send(outcome);
        }
    }

    /// A completion from either rung: tagged with the rung that admitted
    /// the request, and fed to the breaker's success EWMA.
    fn served(&mut self, id: u64, class: usize, batch: usize, generation: u64, t: SimTime) {
        let Some(p) = self.waiting.remove(&id) else {
            return;
        };
        self.breaker
            .record_success(t, t.saturating_sub(p.submitted));
        let _ = p.tx.send(WireOutcome::Done {
            class,
            batch,
            degraded: p.degraded,
            generation,
        });
    }

    /// Bookkeeping skew: the request fails with a 500, the breaker hears
    /// about it.
    fn fault(&mut self, fault: ServeFault, t: SimTime) {
        let ServeFault::MissingPayload { id } = fault;
        self.breaker.record_failure(t);
        self.answer(id, WireOutcome::Failed);
    }

    /// Carry out the core's events: runs go to their worker, installs to
    /// every worker, resolutions back to their connections.
    fn route(&mut self, t: SimTime) {
        while let Some(event) = self.core.next_event() {
            match event {
                CoreEvent::Run(batch) => {
                    if let Some(w) = self.workers.get(batch.worker) {
                        let _ = w.send(WorkerMsg::Run(batch));
                    }
                }
                CoreEvent::Install(weights) => {
                    for w in &self.workers {
                        let _ = w.send(WorkerMsg::Install(Arc::clone(&weights)));
                    }
                }
                CoreEvent::Complete(c) => {
                    self.served(c.id, c.output, c.batch_size, c.generation, t)
                }
                CoreEvent::Shed(id) => self.answer(id, WireOutcome::Shed),
                CoreEvent::Fault(fault) => self.fault(fault, t),
                CoreEvent::SwapResolved(verdict) => {
                    let outcome = match verdict {
                        Ok(g) => SwapOutcome::Swapped {
                            generation: g.number(),
                            fingerprint: g.fingerprint(),
                        },
                        Err(e) => SwapOutcome::Rejected {
                            error: e.to_string(),
                        },
                    };
                    if let Some(reply) = self.swaps.pop_front() {
                        let _ = reply.send(outcome);
                    }
                }
            }
        }
    }

    /// Answer what a call on the degraded rung resolved.
    fn absorb_degraded(&mut self, completed: Vec<Completion>, shed: Vec<u64>, t: SimTime) {
        for c in completed {
            self.served(c.id, argmax(c.output.data()), c.batch_size, c.generation, t);
        }
        for id in shed {
            self.answer(id, WireOutcome::Shed);
        }
        let faults = match self.degraded.as_mut() {
            Some(rung) => rung.take_faults(),
            None => Vec::new(),
        };
        for fault in faults {
            self.fault(fault, t);
        }
    }

    /// Fire the delay triggers of both rungs.
    fn poll(&mut self, t: SimTime) {
        self.core.poll(t);
        if let Some(rung) = self.degraded.as_mut() {
            let done = rung.poll(t);
            self.absorb_degraded(done, Vec::new(), t);
        }
    }

    /// Flush both rungs and refuse new work. Stragglers are failed in
    /// [`Engine::settle_drain`] once the dispatched batches come home.
    fn drain(&mut self, t: SimTime) {
        if self.drain_requested {
            return;
        }
        self.core.flush();
        if let Some(rung) = self.degraded.as_mut() {
            let done = rung.flush();
            self.absorb_degraded(done, Vec::new(), t);
        }
        self.drain_requested = true;
    }

    /// Once a requested drain has nothing left in flight, anything still
    /// waiting hit bookkeeping skew: fail it explicitly rather than hang
    /// its connection.
    fn settle_drain(&mut self) {
        if self.drain_requested && !self.drained && self.core.is_idle() {
            for (_, p) in self.waiting.drain() {
                let _ = p.tx.send(WireOutcome::Failed);
            }
            self.drained = true;
        }
    }

    /// Admit one `/classify` through the breaker ladder: closed → the full
    /// model's pool; half-open → admitted probes run on the degraded rung;
    /// open → explicit refusal.
    fn submit(&mut self, id: u64, input: Tensor, reply: mpsc::Sender<WireOutcome>) {
        if self.drain_requested {
            let _ = reply.send(WireOutcome::Rejected);
            return;
        }
        let t = self.now();
        let degraded = match self.breaker.state(t) {
            BreakerState::Closed => false,
            BreakerState::HalfOpen if self.breaker.allow(t) => self.degraded.is_some(),
            BreakerState::HalfOpen | BreakerState::Open => {
                let _ = reply.send(WireOutcome::BreakerOpen);
                return;
            }
        };
        self.waiting.insert(
            id,
            PendingReply {
                tx: reply,
                submitted: t,
                degraded,
            },
        );
        let rung = self.degraded.as_mut().filter(|_| degraded);
        let admitted = match rung {
            // The degraded rung runs inline on the engine thread: cheap
            // capacity while confidence rebuilds does not need the pool.
            Some(rung) => {
                let sub = rung.submit(id, input, t);
                self.absorb_degraded(sub.completed, sub.shed, t);
                sub.admitted
            }
            None => self.core.submit(id, input, t),
        };
        if !admitted {
            self.answer(id, WireOutcome::Rejected);
        }
        // A submission may also have pushed the oldest request past the
        // delay bound.
        let t = self.now();
        if degraded {
            if let Some(rung) = self.degraded.as_mut() {
                let late = rung.poll(t);
                self.absorb_degraded(late, Vec::new(), t);
            }
        } else {
            self.core.poll(t);
        }
    }

    /// The engine-side half of the `/metrics` snapshot: queue depths,
    /// breaker and ladder state, the weight-generation cell, and the pool's
    /// per-worker and scratch counters. One `name value` pair per line,
    /// fixed order, no timestamps — the text is a pure function of the
    /// counters, so identical runs produce identical snapshots.
    fn metrics_text(&mut self, t: SimTime) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let cell = self.core.weights_cell();
        let _ = writeln!(out, "generation_current {}", cell.current().number());
        let _ = writeln!(
            out,
            "generation_current_fingerprint {:#018x}",
            cell.current().fingerprint()
        );
        match cell.previous() {
            Some(p) => {
                let _ = writeln!(out, "generation_previous {}", p.number());
                let _ = writeln!(
                    out,
                    "generation_previous_fingerprint {:#018x}",
                    p.fingerprint()
                );
            }
            None => {
                let _ = writeln!(out, "generation_previous -1");
                let _ = writeln!(out, "generation_previous_fingerprint 0x0000000000000000");
            }
        }
        let _ = writeln!(out, "swaps_total {}", cell.swaps());
        let _ = writeln!(out, "rollbacks_total {}", cell.rollbacks());
        let _ = writeln!(out, "rejected_loads_total {}", cell.rejected_loads());
        let _ = writeln!(out, "quarantined_generations {}", cell.quarantined().len());
        let _ = writeln!(out, "queue_depth_full {}", self.core.queued());
        let _ = writeln!(
            out,
            "executed_batches_full {}",
            self.core.executed_batches()
        );
        let _ = writeln!(
            out,
            "executed_requests_full {}",
            self.core.executed_requests()
        );
        let (queued, executed) = self
            .degraded
            .as_ref()
            .map_or((0, 0), |d| (d.queued(), d.executed_requests()));
        let _ = writeln!(out, "queue_depth_degraded {queued}");
        let _ = writeln!(out, "executed_requests_degraded {executed}");
        // Ladder position doubles as the breaker state: 0 = closed (full
        // model), 1 = half-open (degraded rung), 2 = open (refusing).
        let ladder = match self.breaker.state(t) {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        };
        let _ = writeln!(out, "breaker_state {ladder}");
        let _ = writeln!(
            out,
            "ladder_degraded_configured {}",
            self.degraded.is_some() as u8
        );
        // Pool counters: deterministic per-stage accounting for the worker
        // pool and the allocation-free steady state.
        let _ = writeln!(out, "pool_workers {}", self.core.width());
        let per_worker = self
            .core
            .worker_batches()
            .iter()
            .zip(self.core.worker_requests());
        for (w, (batches, requests)) in per_worker.enumerate() {
            let _ = writeln!(out, "pool_worker_{w}_batches {batches}");
            let _ = writeln!(out, "pool_worker_{w}_requests {requests}");
        }
        let scratch = &self.worker_scratch;
        let passes: u64 = scratch.iter().map(|s| s.passes).sum();
        let takes: u64 = scratch.iter().map(|s| s.arena_takes).sum();
        let hits: u64 = scratch.iter().map(|s| s.arena_hits).sum();
        let high_water = scratch.iter().map(|s| s.high_water_bytes).max();
        let _ = writeln!(out, "scratch_passes_total {passes}");
        let _ = writeln!(out, "scratch_arena_takes_total {takes}");
        let _ = writeln!(out, "scratch_arena_hits_total {hits}");
        let _ = writeln!(out, "scratch_high_water_bytes {}", high_water.unwrap_or(0));
        let (pool_takes, pool_hits) = harvest_tensor::scratch::counters();
        let _ = writeln!(out, "tensor_scratch_takes_total {pool_takes}");
        let _ = writeln!(out, "tensor_scratch_hits_total {pool_hits}");
        out
    }
}

/// The engine thread: drives the [`BatchCore`] at width `engine_workers`
/// from channel messages — submissions, swaps, drain, and the pool
/// workers' verdicts — and carries out its events, guaranteeing **exactly
/// one** reply per submitted id (completion, shed, rejection, or typed
/// failure). The core owns batching, the weight-generation cell and the
/// submission-order merge; see [`harvest_serving::core`] for the swap
/// semantics under the pool.
///
/// Admission runs through a [`CircuitBreaker`] whose ladder is: **closed**
/// → the full model serves; **half-open** → admitted probes run on the
/// degraded model (cheap capacity while confidence rebuilds), non-admitted
/// ones get `503`; **open** → everything gets `503 Retry-After`.
/// Completions feed the breaker's success EWMA, engine faults feed its
/// error EWMA.
fn engine_loop(
    rx: mpsc::Receiver<EngineMsg>,
    config: WireConfig,
    batcher: BatcherConfig,
    graph: Arc<Graph>,
    pool: Vec<(mpsc::Sender<WorkerMsg>, JoinHandle<()>)>,
    tick: Duration,
    ready: mpsc::Sender<Result<(), String>>,
) {
    let seed = config.model_seed;
    let (workers, handles): (Vec<_>, Vec<_>) = pool.into_iter().unzip();
    let degraded_graph = config
        .degraded_model
        .as_ref()
        .map(|m| vit("wire-degraded", m));
    // Bit-identical to every worker's boot weights: same graph, same seed,
    // same materialization — so generation 0's fingerprint matches what
    // the workers serve.
    let boot = Arc::new(MaterializedWeights::new(
        &graph,
        &WeightStore::new(seed),
        false,
    ));
    let built = BatchCore::new(&graph, boot, false, batcher, workers.len()).and_then(|core| {
        let degraded = degraded_graph
            .as_ref()
            .map(|g| RealBatchServer::new(Executor::new(g, seed ^ 0x0ddu64), batcher))
            .transpose()?;
        Ok((core, degraded))
    });
    match built {
        Err(e) => {
            let _ = ready.send(Err(e.to_string()));
            drop(workers);
        }
        Ok((mut core, degraded)) => {
            core.set_swap_guard(ActivationGuard {
                range_limit: config.swap_guard_range_limit,
            });
            let _ = ready.send(Ok(()));
            let mut engine = Engine {
                core,
                worker_scratch: vec![ScratchStats::default(); workers.len()],
                workers,
                degraded,
                breaker: CircuitBreaker::new(config.breaker),
                waiting: HashMap::new(),
                swaps: VecDeque::new(),
                drain_requested: false,
                drained: false,
                start: Instant::now(),
            };
            serve(&mut engine, &rx, tick);
            // Stop the pool before joining it below, so
            // `DrainReport::threads_joined` stays `accept_threads + 1`.
            for w in &engine.workers {
                let _ = w.send(WorkerMsg::Stop);
            }
        }
    }
    // On the error path the worker senders are dropped unused, so every
    // worker's receive fails and it exits.
    for handle in handles {
        let _ = handle.join();
    }
}

/// The engine's message loop, until a stop request finds the core idle.
fn serve(engine: &mut Engine<'_>, rx: &mpsc::Receiver<EngineMsg>, tick: Duration) {
    let mut stop_requested = false;
    loop {
        engine.settle_drain();
        if stop_requested && engine.core.is_idle() {
            return;
        }
        let msg = rx.recv_timeout(tick);
        let t = engine.now();
        match msg {
            Ok(EngineMsg::Submit { id, input, reply }) => engine.submit(id, input, reply),
            Ok(EngineMsg::WorkerDone {
                seq,
                worker,
                verdict,
                scratch,
            }) => {
                if let Some(s) = engine.worker_scratch.get_mut(worker) {
                    *s = scratch;
                }
                engine.core.worker_done(seq, verdict);
            }
            Ok(EngineMsg::TripBreaker) => engine.breaker.force_open(t),
            Ok(EngineMsg::Swap { body, reply }) => {
                if engine.drain_requested {
                    let _ = reply.send(SwapOutcome::Draining);
                } else if matches!(engine.breaker.state(t), BreakerState::Open) {
                    let _ = reply.send(SwapOutcome::BreakerOpen);
                } else {
                    // The core verifies and publishes at the pool-wide
                    // batch boundary; the reply goes out with its verdict.
                    engine.swaps.push_back(reply);
                    engine.core.stage_swap(body, None);
                }
            }
            Ok(EngineMsg::Metrics { reply }) => {
                let _ = reply.send(engine.metrics_text(t));
            }
            Ok(EngineMsg::Drain) => engine.drain(t),
            Ok(EngineMsg::Stop) => {
                engine.drain(t);
                stop_requested = true;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => engine.poll(t),
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
        engine.route(t);
    }
}

/// First maximum wins, so ties are deterministic.
fn argmax(data: &[f32]) -> usize {
    let mut best = 0usize;
    for (i, &v) in data.iter().enumerate() {
        if v > data[best] {
            best = i;
        }
    }
    best
}

fn accept_loop(
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
    tx: mpsc::Sender<EngineMsg>,
    config: WireConfig,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if shared.stopping.load(Ordering::SeqCst) {
            // Relay the shutdown wake-up to the next blocked loop, then
            // exit. The final relay lands in the backlog and dies with the
            // listener.
            let _ = TcpStream::connect(addr);
            break;
        }
        handle_connection(stream, &shared, &tx, &config);
    }
}

/// Serve one connection, then close it *politely*: shut down the write
/// half and drain whatever the peer is still sending before dropping the
/// socket. Without the drain, closing while unread request bytes are in
/// flight raises a TCP reset that can destroy the error response sitting
/// in the peer's receive buffer — turning a deterministic "you sent
/// garbage, here is a 400" into a racy connection error.
fn handle_connection(
    mut stream: TcpStream,
    shared: &Shared,
    tx: &mpsc::Sender<EngineMsg>,
    config: &WireConfig,
) {
    serve_connection(&mut stream, shared, tx, config);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 1024];
    for _ in 0..64 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Serve one connection to completion: accumulate bytes under deadline,
/// parse bounded requests, answer each exactly once, keep-alive until the
/// peer closes, errors, or goes quiet.
fn serve_connection(
    stream: &mut TcpStream,
    shared: &Shared,
    tx: &mpsc::Sender<EngineMsg>,
    config: &WireConfig,
) {
    let limits = HttpLimits::from_serving(&config.limits);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(config.read_timeout_ms.max(1))));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(config.write_timeout_ms.max(1))));
    let _ = stream.set_nodelay(true);

    let stats = &shared.stats;
    // Per-connection buffers, reused across every keep-alive request: the
    // read accumulator drains in place and the write buffer is cleared and
    // refilled by `send_response`, so steady-state pipelined traffic
    // allocates nothing on this path.
    let mut buf: Vec<u8> = Vec::new();
    let mut wout: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut counted_conn = false;

    loop {
        // Drain every complete request already buffered before reading
        // more (bounded pipelining: the buffer itself is capped).
        match parse_request(&buf, &limits) {
            Ok(Parsed::Complete { request, consumed }) => {
                buf.drain(..consumed);
                stats.accepted.fetch_add(1, Ordering::SeqCst);
                let keep = respond(stream, &mut wout, &request, shared, tx, config);
                if !keep || !request.keep_alive {
                    return;
                }
                continue;
            }
            Ok(Parsed::NeedMore) => {}
            Err(e) => {
                let (status, reason) = e.status();
                stats.bad_requests.fetch_add(1, Ordering::SeqCst);
                let body = format!("{{\"error\":\"{e:?}\"}}");
                send_response(
                    stream,
                    stats,
                    &mut wout,
                    status,
                    reason,
                    &[],
                    body.as_bytes(),
                    false,
                );
                return;
            }
        }
        if buf.len() > limits.max_buffered() {
            // Defense in depth: the parser's caps should make this
            // unreachable, but never let a connection grow without bound.
            stats.bad_requests.fetch_add(1, Ordering::SeqCst);
            send_response(
                stream,
                stats,
                &mut wout,
                431,
                "Request Header Fields Too Large",
                &[],
                b"{\"error\":\"buffer cap\"}",
                false,
            );
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if buf.is_empty() {
                    stats.idle_closes.fetch_add(1, Ordering::SeqCst);
                } else {
                    stats.incomplete.fetch_add(1, Ordering::SeqCst);
                }
                return;
            }
            Ok(n) => {
                if !counted_conn {
                    counted_conn = true;
                    stats.connections.fetch_add(1, Ordering::SeqCst);
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if buf.is_empty() {
                    stats.idle_closes.fetch_add(1, Ordering::SeqCst);
                } else {
                    // Slowloris: a partial request that stopped making
                    // progress. Answer and hang up.
                    stats.timeouts.fetch_add(1, Ordering::SeqCst);
                    send_response(
                        stream,
                        stats,
                        &mut wout,
                        408,
                        "Request Timeout",
                        &[],
                        b"{\"error\":\"request timeout\"}",
                        false,
                    );
                }
                return;
            }
            Err(_) => {
                if buf.is_empty() {
                    stats.idle_closes.fetch_add(1, Ordering::SeqCst);
                } else {
                    stats.incomplete.fetch_add(1, Ordering::SeqCst);
                }
                return;
            }
        }
    }
}

/// How an accepted request resolved: the ledger counter it lands in, the
/// status, and the JSON body.
type Answer<'s> = (&'s AtomicU64, u16, String);

fn error_body(message: &str) -> String {
    format!("{{\"error\":\"{message}\"}}")
}

/// Answer one accepted request. Returns whether the connection may
/// continue (false on write failure).
fn respond(
    stream: &mut TcpStream,
    wout: &mut Vec<u8>,
    request: &Request,
    shared: &Shared,
    tx: &mpsc::Sender<EngineMsg>,
    config: &WireConfig,
) -> bool {
    let stats = &shared.stats;
    let keep = request.keep_alive;
    let (counter, status, body) = match (request.method, request.path.as_str()) {
        (Method::Get, "/healthz") => {
            let draining = shared.draining.load(Ordering::SeqCst);
            let body = format!("{{\"ok\":true,\"draining\":{draining}}}");
            (&stats.responded_ok, 200, body)
        }
        (Method::Get, "/metrics") => return metrics(stream, wout, request, shared, tx),
        (Method::Post, "/classify") => classify(request, shared, tx, config),
        (Method::Post, "/admin/swap") => admin_swap(request, shared, tx),
        (_, path @ ("/healthz" | "/metrics" | "/classify" | "/admin/swap")) => {
            // Known path, wrong method: 405 with the allowed method spelled
            // out, as RFC 9110 requires.
            let allow = match path {
                "/healthz" | "/metrics" => "GET",
                _ => "POST",
            };
            stats.responded_error.fetch_add(1, Ordering::SeqCst);
            let body = error_body("method not allowed");
            let extra = [("Allow", allow)];
            let reason = "Method Not Allowed";
            return send_response(
                stream,
                stats,
                wout,
                405,
                reason,
                &extra,
                body.as_bytes(),
                keep,
            );
        }
        _ => (&stats.responded_error, 404, error_body("not found")),
    };
    counter.fetch_add(1, Ordering::SeqCst);
    let (reason, extra): (&str, &[(&str, &str)]) = match status {
        200 => ("OK", &[]),
        404 => ("Not Found", &[]),
        409 => ("Conflict", &[]),
        422 => ("Unprocessable Content", &[]),
        // Every refusal tells the client when to come back.
        503 => ("Service Unavailable", &[("Retry-After", "1")]),
        _ => ("Internal Server Error", &[]),
    };
    send_response(
        stream,
        stats,
        wout,
        status,
        reason,
        extra,
        body.as_bytes(),
        keep,
    )
}

/// The classification path: decode → preprocess → engine round-trip.
fn classify<'s>(
    request: &Request,
    shared: &'s Shared,
    tx: &mpsc::Sender<EngineMsg>,
    config: &WireConfig,
) -> Answer<'s> {
    let stats = &shared.stats;
    let refuse = |why: &str| (&stats.rejected, 503, error_body(why));
    if shared.draining.load(Ordering::SeqCst) {
        return refuse("draining");
    }
    let img = match decode_auto(&request.body) {
        Ok(img) => img,
        Err(e) => {
            return (
                &stats.responded_error,
                422,
                error_body(&format!("bad image: {e}")),
            )
        }
    };
    // In-flight gate (part of the shared ServingLimits contract).
    let cap = config.limits.max_in_flight;
    if cap > 0 {
        let admitted = shared
            .in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < cap).then_some(n + 1)
            })
            .is_ok();
        if !admitted {
            return refuse("overloaded");
        }
    }
    let input = preprocess_decoded(&img, config.out_res);
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    let (reply_tx, reply_rx) = mpsc::channel();
    let outcome = if tx
        .send(EngineMsg::Submit {
            id,
            input,
            reply: reply_tx,
        })
        .is_err()
    {
        WireOutcome::Rejected
    } else {
        // The engine guarantees one reply per submit; the timeout is a
        // last-ditch bound so a broken engine fails requests instead of
        // hanging connections forever.
        reply_rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or(WireOutcome::Failed)
    };
    if cap > 0 {
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
    match outcome {
        WireOutcome::Done {
            class,
            batch,
            degraded,
            generation,
        } => {
            if degraded {
                stats.degraded_ok.fetch_add(1, Ordering::SeqCst);
            }
            let body = format!(
                "{{\"class\":{class},\"batch\":{batch},\"degraded\":{degraded},\"generation\":{generation}}}"
            );
            (&stats.responded_ok, 200, body)
        }
        WireOutcome::BreakerOpen => {
            stats.breaker_open.fetch_add(1, Ordering::SeqCst);
            refuse("breaker open")
        }
        WireOutcome::Rejected => refuse("queue full"),
        WireOutcome::Shed => (&stats.shed, 503, error_body("shed")),
        WireOutcome::Failed => (&stats.responded_error, 500, error_body("internal fault")),
    }
}

/// The hot-swap path: stage the artifact body through the engine's
/// integrity-gated load. One swap stages at a time (`409` for a racing
/// second one); a draining server or an open breaker answers `503`.
fn admin_swap<'s>(
    request: &Request,
    shared: &'s Shared,
    tx: &mpsc::Sender<EngineMsg>,
) -> Answer<'s> {
    let stats = &shared.stats;
    if shared.draining.load(Ordering::SeqCst) {
        return (&stats.rejected, 503, error_body("draining"));
    }
    if shared.swap_staging.swap(true, Ordering::SeqCst) {
        let body = error_body("a swap is already staging");
        return (&stats.responded_error, 409, body);
    }
    let (reply_tx, reply_rx) = mpsc::channel();
    let outcome = if tx
        .send(EngineMsg::Swap {
            body: request.body.clone(),
            reply: reply_tx,
        })
        .is_err()
    {
        SwapOutcome::Draining
    } else {
        reply_rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or(SwapOutcome::Rejected {
                error: "engine timeout".to_string(),
            })
    };
    shared.swap_staging.store(false, Ordering::SeqCst);
    match outcome {
        SwapOutcome::Swapped {
            generation,
            fingerprint,
        } => {
            let body =
                format!("{{\"generation\":{generation},\"fingerprint\":\"{fingerprint:#018x}\"}}");
            (&stats.responded_ok, 200, body)
        }
        SwapOutcome::Rejected { error } => (&stats.responded_error, 422, error_body(&error)),
        SwapOutcome::BreakerOpen => {
            stats.breaker_open.fetch_add(1, Ordering::SeqCst);
            (&stats.rejected, 503, error_body("breaker open"))
        }
        SwapOutcome::Draining => (&stats.rejected, 503, error_body("draining")),
    }
}

/// The live metrics snapshot: the engine's half (generations, queues,
/// breaker, pool) plus the wire ledger, as deterministic
/// `name value` text lines.
fn metrics(
    stream: &mut TcpStream,
    wout: &mut Vec<u8>,
    request: &Request,
    shared: &Shared,
    tx: &mpsc::Sender<EngineMsg>,
) -> bool {
    use std::fmt::Write as _;
    let stats = &shared.stats;
    let keep = request.keep_alive;
    let (reply_tx, reply_rx) = mpsc::channel();
    let mut body = if tx.send(EngineMsg::Metrics { reply: reply_tx }).is_ok() {
        reply_rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_default()
    } else {
        String::new()
    };
    let snap = shared.stats.snapshot();
    let _ = writeln!(body, "wire_connections {}", snap.connections);
    let _ = writeln!(body, "wire_accepted {}", snap.accepted);
    let _ = writeln!(body, "wire_responded_ok {}", snap.responded_ok);
    let _ = writeln!(body, "wire_responded_error {}", snap.responded_error);
    let _ = writeln!(body, "wire_rejected {}", snap.rejected);
    let _ = writeln!(body, "wire_shed {}", snap.shed);
    let _ = writeln!(body, "wire_bad_requests {}", snap.bad_requests);
    let _ = writeln!(body, "wire_breaker_open {}", snap.breaker_open);
    let _ = writeln!(body, "wire_degraded_ok {}", snap.degraded_ok);
    let _ = writeln!(
        body,
        "wire_draining {}",
        shared.draining.load(Ordering::SeqCst) as u8
    );
    stats.responded_ok.fetch_add(1, Ordering::SeqCst);
    send_response(
        stream,
        stats,
        wout,
        200,
        "OK",
        &[("Content-Type", "text/plain; version=0.0.4")],
        body.as_bytes(),
        keep,
    )
}

/// Write one response; a failed write closes the connection but never
/// un-counts the outcome (the ledger tracks what the server resolved, not
/// what the peer managed to read). `out` is the connection's reusable
/// write buffer: cleared, refilled, and flushed here, so keep-alive
/// traffic reaches its high-water capacity once and then serializes
/// responses allocation-free.
#[allow(clippy::too_many_arguments)]
fn send_response(
    stream: &mut TcpStream,
    stats: &WireStats,
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    extra: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> bool {
    out.clear();
    write_response(out, status, reason, extra, body, keep_alive);
    match stream.write_all(out).and_then(|()| stream.flush()) {
        Ok(()) => true,
        Err(_) => {
            stats.write_failures.fetch_add(1, Ordering::SeqCst);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::parse_response;
    use harvest_imaging::{ajpg_encode, AjpgOptions, RgbImage};

    fn post_classify(addr: SocketAddr, body: &[u8]) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut req = format!(
            "POST /classify HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        stream.write_all(&req).expect("send");
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).expect("recv");
        let (status, consumed) = parse_response(&resp, &HttpLimits::default())
            .expect("well-formed response")
            .expect("complete response");
        let head_end = resp.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
        let body = String::from_utf8_lossy(&resp[head_end + 4..consumed]).into_owned();
        (status, body)
    }

    fn sample_image() -> Vec<u8> {
        let img = RgbImage::checkerboard(24, 24, 4);
        ajpg_encode(&img, &AjpgOptions::default())
    }

    #[test]
    fn serves_health_classify_and_errors_then_drains_clean() {
        let server = WireServer::start(WireConfig {
            accept_threads: 2,
            ..WireConfig::default()
        })
        .expect("start");
        let addr = server.addr();

        // Health check.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("send");
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).expect("recv");
        let text = String::from_utf8_lossy(&resp);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("\"draining\":false"), "{text}");

        // A real classification.
        let (status, body) = post_classify(addr, &sample_image());
        assert_eq!(status, 200, "{body}");
        assert!(body.starts_with("{\"class\":"), "{body}");

        // Garbage body: typed 422, not a closed socket.
        let (status, body) = post_classify(addr, b"not an image at all");
        assert_eq!(status, 422, "{body}");

        // Unknown path and wrong method.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("send");
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).expect("recv");
        assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 404"));

        let report = server.shutdown();
        assert_eq!(report.threads_joined, 2 + 1, "accept loops + engine");
        assert!(report.stats.conserved(), "{:?}", report.stats);
        assert_eq!(report.stats.responded_ok, 2, "healthz + classify");
        assert_eq!(report.stats.responded_error, 2, "422 + 404");
    }

    #[test]
    fn malformed_bytes_get_typed_statuses_and_stay_out_of_the_ledger() {
        let server = WireServer::start(WireConfig {
            accept_threads: 1,
            ..WireConfig::default()
        })
        .expect("start");
        let addr = server.addr();
        for (raw, expect) in [
            (&b"GARBAGE\r\n\r\n"[..], "HTTP/1.1 400"),
            (&b"DELETE / HTTP/1.1\r\n\r\n"[..], "HTTP/1.1 501"),
            (
                &b"POST /classify HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
                "HTTP/1.1 501",
            ),
        ] {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(raw).expect("send");
            let mut resp = Vec::new();
            stream.read_to_end(&mut resp).expect("recv");
            let text = String::from_utf8_lossy(&resp);
            assert!(text.starts_with(expect), "{raw:?} -> {text}");
        }
        // Oversize declared body is refused before any body bytes arrive.
        let mut stream = TcpStream::connect(addr).expect("connect");
        let huge = format!(
            "POST /classify HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            ServingLimits::default().max_body_bytes + 1
        );
        stream.write_all(huge.as_bytes()).expect("send");
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).expect("recv");
        assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 413"));

        let report = server.shutdown();
        assert_eq!(report.stats.accepted, 0, "nothing well-formed arrived");
        assert_eq!(report.stats.bad_requests, 4);
        assert!(report.stats.conserved());
    }

    #[test]
    fn keep_alive_pipelining_answers_every_request_in_order() {
        let server = WireServer::start(WireConfig {
            accept_threads: 1,
            ..WireConfig::default()
        })
        .expect("start");
        let addr = server.addr();
        let img = sample_image();
        let mut wire = Vec::new();
        for _ in 0..3 {
            wire.extend_from_slice(
                format!(
                    "POST /classify HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    img.len()
                )
                .as_bytes(),
            );
            wire.extend_from_slice(&img);
        }
        wire.extend_from_slice(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&wire).expect("send");
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).expect("recv");
        let limits = HttpLimits::default();
        let mut statuses = Vec::new();
        let mut rest = &resp[..];
        while !rest.is_empty() {
            let (status, consumed) = parse_response(rest, &limits)
                .expect("well-formed")
                .expect("complete");
            statuses.push(status);
            rest = &rest[consumed..];
        }
        assert_eq!(statuses, vec![200, 200, 200, 200]);
        let report = server.shutdown();
        assert_eq!(report.stats.accepted, 4);
        assert_eq!(report.stats.connections, 1, "one pipelined connection");
        assert!(report.stats.conserved());
    }

    #[test]
    fn slow_partial_requests_get_408_idle_connections_close_quietly() {
        let server = WireServer::start(WireConfig {
            accept_threads: 1,
            read_timeout_ms: 60,
            ..WireConfig::default()
        })
        .expect("start");
        let addr = server.addr();
        // Slowloris: a partial head, then silence.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"POST /classify HTT").expect("send");
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).expect("recv");
        assert!(
            String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 408"),
            "{}",
            String::from_utf8_lossy(&resp)
        );
        // Idle: connect, say nothing; the server hangs up without a fuss.
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).expect("recv");
        assert!(resp.is_empty());
        let report = server.shutdown();
        assert_eq!(report.stats.timeouts, 1);
        assert!(report.stats.idle_closes >= 1);
        assert_eq!(report.stats.accepted, 0);
        assert!(report.stats.conserved());
    }

    #[test]
    fn breaker_ladder_refuses_degrades_then_recovers_on_the_wire() {
        let server = WireServer::start(WireConfig {
            accept_threads: 1,
            breaker: BreakerConfig {
                cooldown: harvest_simkit::SimTime::from_millis(150),
                close_after: 2,
                ..BreakerConfig::default()
            },
            ..WireConfig::default()
        })
        .expect("start");
        let addr = server.addr();
        let img = sample_image();

        // Healthy breaker: the full model answers.
        let (status, body) = post_classify(addr, &img);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"degraded\":false"), "{body}");

        // Open breaker: the wire refuses with 503 + Retry-After before any
        // work is queued. trip_breaker() and the next Submit travel the same
        // engine channel, so the ordering is deterministic.
        server.trip_breaker();
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut req = format!(
            "POST /classify HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            img.len()
        )
        .into_bytes();
        req.extend_from_slice(&img);
        stream.write_all(&req).expect("send");
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).expect("recv");
        let text = String::from_utf8_lossy(&resp);
        assert!(text.starts_with("HTTP/1.1 503"), "{text}");
        assert!(text.contains("Retry-After"), "{text}");
        assert!(text.contains("breaker open"), "{text}");

        // After the cooldown the breaker half-opens and probes run on the
        // degraded model.
        std::thread::sleep(Duration::from_millis(300));
        let (status, body) = post_classify(addr, &img);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"degraded\":true"), "{body}");

        // Enough successful probes close the breaker; the full model is back.
        let mut recovered = false;
        for _ in 0..10 {
            let (status, body) = post_classify(addr, &img);
            if status == 200 && body.contains("\"degraded\":false") {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "breaker never closed after successful probes");

        let report = server.shutdown();
        assert!(report.stats.conserved(), "{:?}", report.stats);
        assert!(report.stats.breaker_open >= 1, "{:?}", report.stats);
        assert!(report.stats.degraded_ok >= 1, "{:?}", report.stats);
    }

    /// Send one raw request, return (status, full response text).
    fn raw_request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        stream.write_all(&req).expect("send");
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).expect("recv");
        let (status, _) = parse_response(&resp, &HttpLimits::default())
            .expect("well-formed response")
            .expect("complete response");
        (status, String::from_utf8_lossy(&resp).into_owned())
    }

    fn artifact_for(model: &VitConfig, seed: u64) -> Vec<u8> {
        let g = vit("artifact", model);
        harvest_engine::encode_artifact(&harvest_engine::MaterializedWeights::new(
            &g,
            &harvest_engine::WeightStore::new(seed),
            false,
        ))
    }

    #[test]
    fn wrong_methods_get_405_with_allow_header() {
        let server = WireServer::start(WireConfig {
            accept_threads: 1,
            ..WireConfig::default()
        })
        .expect("start");
        let addr = server.addr();
        for (method, path, allow) in [
            ("POST", "/healthz", "Allow: GET"),
            ("POST", "/metrics", "Allow: GET"),
            ("GET", "/classify", "Allow: POST"),
            ("GET", "/admin/swap", "Allow: POST"),
        ] {
            let (status, text) = raw_request(addr, method, path, b"");
            assert_eq!(status, 405, "{method} {path}: {text}");
            assert!(
                text.contains(allow),
                "{method} {path} missing header: {text}"
            );
        }
        let report = server.shutdown();
        assert_eq!(report.stats.responded_error, 4);
        assert!(report.stats.conserved());
    }

    #[test]
    fn hot_swap_switches_generations_and_shows_in_metrics() {
        let server = WireServer::start(WireConfig {
            accept_threads: 2,
            ..WireConfig::default()
        })
        .expect("start");
        let addr = server.addr();
        let img = sample_image();

        // Before any swap, classifications carry generation 0.
        let (status, body) = post_classify(addr, &img);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"generation\":0"), "{body}");

        // A verified artifact swaps in as generation 1…
        let artifact = artifact_for(&server.config().model, 99);
        let (status, text) = raw_request(addr, "POST", "/admin/swap", &artifact);
        assert_eq!(status, 200, "{text}");
        assert!(text.contains("\"generation\":1"), "{text}");

        // …and the next classification runs on it.
        let (status, body) = post_classify(addr, &img);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"generation\":1"), "{body}");

        // A corrupt artifact is refused with a typed 422 and changes nothing.
        let mut bad = artifact.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x20;
        let (status, text) = raw_request(addr, "POST", "/admin/swap", &bad);
        assert_eq!(status, 422, "{text}");
        let (status, body) = post_classify(addr, &img);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"generation\":1"), "{body}");

        // The metrics snapshot shows the whole story.
        let (status, text) = raw_request(addr, "GET", "/metrics", b"");
        assert_eq!(status, 200, "{text}");
        assert!(text.contains("Content-Type: text/plain"), "{text}");
        for line in [
            "generation_current 1",
            "generation_previous 0",
            "swaps_total 1",
            "rollbacks_total 0",
            "rejected_loads_total 1",
            "breaker_state 0",
            "ladder_degraded_configured 1",
            "wire_draining 0",
        ] {
            assert!(text.contains(line), "missing {line:?} in:\n{text}");
        }
        // The wire runs no integrity ladder, so it prints no integrity
        // lines (no metric line is a hard-coded constant).
        assert!(!text.contains("integrity_"), "{text}");

        let report = server.shutdown();
        assert!(report.stats.conserved(), "{:?}", report.stats);
        // 3 classifies + 1 swap + 1 metrics ok; 1 rejected swap errored.
        assert_eq!(report.stats.responded_ok, 5, "{:?}", report.stats);
        assert_eq!(report.stats.responded_error, 1, "{:?}", report.stats);
    }

    #[test]
    fn poisoned_swap_rolls_back_on_first_batch_over_the_wire() {
        let server = WireServer::start(WireConfig {
            accept_threads: 1,
            ..WireConfig::default()
        })
        .expect("start");
        let addr = server.addr();
        let img = sample_image();

        // A poisoned artifact: self-consistent checksums over garbage
        // exponents, so the load gate passes and the swap publishes.
        let g = vit("poisoned", &server.config().model);
        let mut w = harvest_engine::MaterializedWeights::new(
            &g,
            &harvest_engine::WeightStore::new(99),
            false,
        );
        w.for_each_buffer_mut(|_, buf| {
            buf[0] = f32::from_bits(buf[0].to_bits() | 0x7800_0000);
        });
        let poisoned = harvest_engine::encode_artifact(&w);
        let (status, text) = raw_request(addr, "POST", "/admin/swap", &poisoned);
        assert_eq!(status, 200, "load gate passes: {text}");
        assert!(text.contains("\"generation\":1"), "{text}");

        // The first batch trips the swap sentinel: automatic rollback, the
        // request is answered from generation 0, generation 1 serves no one.
        let (status, body) = post_classify(addr, &img);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"generation\":0"), "{body}");

        let (status, text) = raw_request(addr, "GET", "/metrics", b"");
        assert_eq!(status, 200);
        for line in [
            "generation_current 0",
            "swaps_total 1",
            "rollbacks_total 1",
            "quarantined_generations 1",
        ] {
            assert!(text.contains(line), "missing {line:?} in:\n{text}");
        }
        let report = server.shutdown();
        assert!(report.stats.conserved(), "{:?}", report.stats);
    }

    /// Run one classify per image on its own thread; results come back in
    /// image order regardless of completion order.
    fn concurrent_classifies(addr: SocketAddr, imgs: &[Vec<u8>]) -> Vec<(u16, String)> {
        std::thread::scope(|s| {
            let handles: Vec<_> = imgs
                .iter()
                .map(|img| s.spawn(move || post_classify(addr, img)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        })
    }

    #[test]
    fn pool_widths_serve_identical_responses() {
        // Six distinct frames, served sequentially so batch compositions
        // are fixed; the full response bodies (class, batch, generation)
        // must be byte-identical at every pool width.
        let imgs: Vec<Vec<u8>> = [1usize, 2, 3, 4, 6, 8]
            .iter()
            .map(|&cell| {
                let img = RgbImage::checkerboard(24, 24, cell);
                ajpg_encode(&img, &AjpgOptions::default())
            })
            .collect();
        let mut reference: Option<Vec<String>> = None;
        for width in [1usize, 2, 4] {
            let server = WireServer::start(WireConfig {
                accept_threads: 1,
                engine_workers: width,
                ..WireConfig::default()
            })
            .expect("start");
            let addr = server.addr();
            let bodies: Vec<String> = imgs
                .iter()
                .map(|img| {
                    let (status, body) = post_classify(addr, img);
                    assert_eq!(status, 200, "width {width}: {body}");
                    body
                })
                .collect();
            // The pool counters account for every request, split across
            // the round-robin workers.
            let (status, text) = raw_request(addr, "GET", "/metrics", b"");
            assert_eq!(status, 200);
            assert!(text.contains(&format!("pool_workers {width}")), "{text}");
            let served: u64 = text
                .lines()
                .filter(|l| l.starts_with("pool_worker_") && l.contains("_requests "))
                .map(|l| l.split_whitespace().last().unwrap().parse::<u64>().unwrap())
                .sum();
            assert_eq!(served, imgs.len() as u64, "width {width}:\n{text}");
            let report = server.shutdown();
            assert!(report.stats.conserved(), "{:?}", report.stats);
            match &reference {
                None => reference = Some(bodies),
                Some(r) => assert_eq!(r, &bodies, "width {width} diverged from width 1"),
            }
        }
    }

    #[test]
    fn mid_burst_swap_at_width_4_conserves_tags_and_replays() {
        // A concurrent burst, a swap, another burst — at width 4 with
        // single-request batches so every response body is deterministic.
        // Every request is conserved, completions are tagged with the
        // generation that served them on both sides of the swap, and the
        // whole transcript replays byte-identically.
        let imgs: Vec<Vec<u8>> = [1usize, 2, 3, 4]
            .iter()
            .map(|&cell| {
                let img = RgbImage::checkerboard(24, 24, cell);
                ajpg_encode(&img, &AjpgOptions::default())
            })
            .collect();
        let run = || {
            let server = WireServer::start(WireConfig {
                accept_threads: 4,
                engine_workers: 4,
                preferred_batch: 1,
                ..WireConfig::default()
            })
            .expect("start");
            let addr = server.addr();
            let mut transcript: Vec<String> = Vec::new();
            let before = concurrent_classifies(addr, &imgs);
            for (status, body) in &before {
                assert_eq!(*status, 200, "{body}");
                assert!(body.contains("\"generation\":0"), "{body}");
            }
            let artifact = artifact_for(&server.config().model, 99);
            let (status, text) = raw_request(addr, "POST", "/admin/swap", &artifact);
            assert_eq!(status, 200, "{text}");
            assert!(text.contains("\"generation\":1"), "{text}");
            let after = concurrent_classifies(addr, &imgs);
            for (status, body) in &after {
                assert_eq!(*status, 200, "{body}");
                assert!(body.contains("\"generation\":1"), "{body}");
            }
            let (status, metrics_text) = raw_request(addr, "GET", "/metrics", b"");
            assert_eq!(status, 200);
            for line in [
                "pool_workers 4",
                "generation_current 1",
                "swaps_total 1",
                "rollbacks_total 0",
            ] {
                assert!(
                    metrics_text.contains(line),
                    "missing {line:?} in:\n{metrics_text}"
                );
            }
            transcript.extend(before.into_iter().map(|(_, b)| b));
            transcript.push(text);
            transcript.extend(after.into_iter().map(|(_, b)| b));
            let report = server.shutdown();
            assert!(report.stats.conserved(), "{:?}", report.stats);
            // 8 classifies + 1 swap + 1 metrics, no errors, nothing lost.
            assert_eq!(report.stats.responded_ok, 10, "{:?}", report.stats);
            assert_eq!(report.stats.responded_error, 0, "{:?}", report.stats);
            transcript
        };
        assert_eq!(run(), run(), "mid-burst swap must replay byte-identically");
    }

    #[test]
    fn in_flight_gate_is_pool_wide_under_saturation() {
        // max_in_flight=2 over a width-4 pool: the frontend gate counts
        // every admitted request no matter which worker would serve it, so
        // a saturating burst sees 503s even though the pool has idle
        // workers. The service-time floor keeps the first admissions
        // in flight long enough for the burst to pile up.
        let img = sample_image();
        let imgs: Vec<Vec<u8>> = (0..8).map(|_| img.clone()).collect();
        let server = WireServer::start(WireConfig {
            accept_threads: 8,
            engine_workers: 4,
            preferred_batch: 1,
            engine_batch_floor_ms: 20,
            limits: ServingLimits {
                max_in_flight: 2,
                ..ServingLimits::default()
            },
            ..WireConfig::default()
        })
        .expect("start");
        let addr = server.addr();
        let results = concurrent_classifies(addr, &imgs);
        let mut ok = 0u64;
        let mut overloaded = 0u64;
        for (status, body) in &results {
            match status {
                200 => ok += 1,
                503 => {
                    assert!(body.contains("overloaded"), "{body}");
                    overloaded += 1;
                }
                other => panic!("unexpected status {other}: {body}"),
            }
        }
        assert_eq!(ok + overloaded, 8);
        assert!(ok >= 2, "the two admitted slots must serve: {results:?}");
        assert!(overloaded >= 1, "the gate never engaged: {results:?}");
        let report = server.shutdown();
        assert!(report.stats.conserved(), "{:?}", report.stats);
        assert_eq!(report.stats.responded_ok, ok, "{:?}", report.stats);
        assert_eq!(report.stats.rejected, overloaded, "{:?}", report.stats);
    }

    #[test]
    fn queue_saturation_rejects_cleanly_at_the_pool_frontier() {
        // max_queue=1 with a delay-only batch trigger: a concurrent burst
        // overflows the shared batcher queue and the overflow is answered
        // with typed 503s, never dropped — the queue bound stays pool-wide
        // at width 2.
        let img = sample_image();
        let imgs: Vec<Vec<u8>> = (0..6).map(|_| img.clone()).collect();
        let server = WireServer::start(WireConfig {
            accept_threads: 6,
            engine_workers: 2,
            preferred_batch: 4,
            max_queue_delay_ms: 40,
            engine_batch_floor_ms: 10,
            limits: ServingLimits {
                max_queue: 1,
                ..ServingLimits::default()
            },
            ..WireConfig::default()
        })
        .expect("start");
        let addr = server.addr();
        let results = concurrent_classifies(addr, &imgs);
        let mut ok = 0u64;
        let mut rejected = 0u64;
        for (status, body) in &results {
            match status {
                200 => ok += 1,
                503 => {
                    assert!(body.contains("queue full"), "{body}");
                    rejected += 1;
                }
                other => panic!("unexpected status {other}: {body}"),
            }
        }
        assert_eq!(ok + rejected, 6);
        assert!(ok >= 1, "somebody must be served: {results:?}");
        assert!(rejected >= 1, "the queue bound never engaged: {results:?}");
        let report = server.shutdown();
        assert!(report.stats.conserved(), "{:?}", report.stats);
        assert_eq!(report.stats.responded_ok, ok, "{:?}", report.stats);
        assert_eq!(report.stats.rejected, rejected, "{:?}", report.stats);
    }
}
