//! The batch/swap core: one sans-IO state machine behind every real-execution
//! serving front-end.
//!
//! "Sans-IO" means the core owns no threads, channels or executor. A front-end
//! feeds it inputs — [`BatchCore::submit`], [`BatchCore::poll`],
//! [`BatchCore::flush`], [`BatchCore::stage_swap`] and
//! [`BatchCore::worker_done`] — and drains the [`CoreEvent`]s they produce
//! with [`BatchCore::next_event`]: batches to run, weights to install,
//! completions, sheds, swap verdicts and typed [`ServeFault`]s. Two front-ends
//! exist: [`crate::RealBatchServer`] runs the core at width 1 with an inline
//! executor, and the wire front-end runs it at its engine-pool width with
//! one channel-driven executor per worker.
//!
//! The core owns everything both front-ends must agree on:
//!
//! * the [`DynamicBatcher`] and the payload map it pairs ids with, plus the
//!   ready queue of formed batches waiting for a dispatch slot;
//! * `seq % width` worker assignment and the submission-order merge, so
//!   completions, generation tags and counters are identical at every
//!   width whatever order the workers finish in;
//! * the [`WeightsCell`]: a staged swap is verified and published only at a
//!   pool-wide batch boundary (nothing in flight); with a swap guard armed,
//!   the fresh generation's first batch runs guarded and solo; a violation
//!   rolls the swap back, reinstalls the serving weights everywhere and
//!   re-dispatches the same `seq`, so no request is ever answered from a
//!   quarantined generation;
//! * the executed-batch/request counters, pool-wide and per worker.

use crate::batcher::{BatcherConfig, BatcherConfigError, DynamicBatcher, QueuedRequest};
use harvest_engine::{
    decode_artifact_staged, ActivationGuard, ArtifactError, Generation, MaterializedWeights,
    WeightsCell,
};
use harvest_models::Graph;
use harvest_simkit::SimTime;
use harvest_tensor::Tensor;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// A finished request: its output plus the batch it rode in. `O` is
/// whatever the executor reports per request — logits for
/// [`crate::RealBatchServer`], an argmax class on the wire.
#[derive(Debug)]
pub struct Completion<O = Tensor> {
    /// Request id.
    pub id: u64,
    /// Model output for this request.
    pub output: O,
    /// Size of the dispatched batch this request was part of.
    pub batch_size: usize,
    /// Number of the weight generation that served this request. A batch
    /// in flight when a swap is staged finishes on the generation it
    /// started with; a rolled-back batch is tagged with the generation it
    /// was re-served on — a quarantined generation's number never appears
    /// here.
    pub generation: u64,
}

/// Internal-state skew detected on the serving hot path.
///
/// A "can't happen" condition — an invariant the batcher/payload
/// bookkeeping is supposed to make impossible. With a wire attached it
/// must surface as a 500 for the affected request, never as a process
/// panic: one skewed request must not take down every other connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeFault {
    /// A dispatched batch referenced a queued id whose payload was missing
    /// from the pending map. The request cannot execute; its id is reported
    /// so the frontend can answer it with an explicit error, and its
    /// batchmates still run.
    MissingPayload {
        /// The orphaned request id.
        id: u64,
    },
}

/// A batch handed to one executor.
#[derive(Debug)]
pub struct RunBatch {
    /// Batch sequence number: fixes the worker and the merge position.
    /// Report the verdict under it with [`BatchCore::worker_done`].
    pub seq: u64,
    /// The executor that runs it (`seq % width`).
    pub worker: usize,
    /// One input per request, in submission order.
    pub inputs: Vec<Tensor>,
    /// Set on a fresh generation's first batch: run under this sentinel
    /// and answer [`Verdict::Violation`] if it trips.
    pub guard: Option<ActivationGuard>,
    /// A re-dispatch after the batch's first run reported a violation,
    /// on the weights the core reinstalled in between.
    pub retry: bool,
}

/// An executor's verdict on one [`RunBatch`].
#[derive(Debug)]
pub enum Verdict<O> {
    /// The batch ran: one output per request, in batch order.
    Outputs(Vec<O>),
    /// A sentinel or detector tripped; the inputs come back so the core
    /// can roll back (when the generation is fresh), reinstall and
    /// re-dispatch the same `seq` as a retry. Only meaningful for a
    /// guarded batch, or at width 1 where nothing else is in flight.
    Violation(Vec<Tensor>),
    /// The executor gave up on the batch (a quarantined node): nothing
    /// completes, and the caller owns the requests' fate.
    Abandoned,
}

/// What the caller must do next.
pub enum CoreEvent<O> {
    /// Run a batch on `dispatch.worker`.
    Run(RunBatch),
    /// Install these weights on every executor before running anything
    /// else (a published or rolled-back-to generation).
    Install(Arc<MaterializedWeights>),
    /// A request finished, in submission order.
    Complete(Completion<O>),
    /// A queued request was shed to admit newer work; it never runs.
    Shed(u64),
    /// A staged swap was resolved at a batch boundary: the published
    /// generation, or why the artifact was refused (the serving generation
    /// is then untouched). One per [`BatchCore::stage_swap`], in order.
    SwapResolved(Result<Generation, ArtifactError>),
    /// Bookkeeping skew on one request; its batchmates are unaffected.
    Fault(ServeFault),
}

/// The batch/swap state machine. See the module docs.
pub struct BatchCore<'g, O> {
    graph: &'g Graph,
    int8_linears: bool,
    batcher: DynamicBatcher,
    pending: HashMap<u64, Tensor>,
    /// Formed batches waiting for a dispatch slot: `(seq, ids, inputs)`.
    ready: VecDeque<(u64, Vec<u64>, Vec<Tensor>)>,
    cell: WeightsCell,
    swap_guard: Option<ActivationGuard>,
    /// Staged artifacts with their simulated loader crash points.
    staged: VecDeque<(Vec<u8>, Option<u64>)>,
    /// The guarded first batch of a fresh generation, while it runs: a
    /// pool-wide barrier until its verdict.
    guard_inflight: Option<u64>,
    width: usize,
    next_seq: u64,
    next_done: u64,
    /// Ids of every dispatched, unmerged batch, by `seq`.
    flight: HashMap<u64, Vec<u64>>,
    in_flight: usize,
    /// Verdicts that arrived ahead of an earlier `seq` (`None` =
    /// abandoned).
    merge: BTreeMap<u64, Option<Vec<O>>>,
    events: VecDeque<CoreEvent<O>>,
    executed_batches: u64,
    executed_requests: u64,
    worker_batches: Vec<u64>,
    worker_requests: Vec<u64>,
}

impl<'g, O> BatchCore<'g, O> {
    /// A core serving `boot` as generation 0 over `graph`, batching by
    /// `config`, dispatching to `width` executors (at least one). Staged
    /// artifacts are decoded for `graph`, with cached INT8 linears when
    /// `int8_linears` is set (match the executors).
    pub fn new(
        graph: &'g Graph,
        boot: Arc<MaterializedWeights>,
        int8_linears: bool,
        config: BatcherConfig,
        width: usize,
    ) -> Result<Self, BatcherConfigError> {
        let width = width.max(1);
        Ok(BatchCore {
            graph,
            int8_linears,
            batcher: DynamicBatcher::new(config)?,
            pending: HashMap::new(),
            ready: VecDeque::new(),
            cell: WeightsCell::new(boot),
            swap_guard: None,
            staged: VecDeque::new(),
            guard_inflight: None,
            width,
            next_seq: 0,
            next_done: 0,
            flight: HashMap::new(),
            in_flight: 0,
            merge: BTreeMap::new(),
            events: VecDeque::new(),
            executed_batches: 0,
            executed_requests: 0,
            worker_batches: vec![0; width],
            worker_requests: vec![0; width],
        })
    }

    /// Arm the swap sentinel: a freshly published generation's first batch
    /// is dispatched alone, carrying this guard.
    pub fn set_swap_guard(&mut self, guard: ActivationGuard) {
        self.swap_guard = Some(guard);
    }

    /// Offer a request to the batcher. Returns whether it was admitted; a
    /// refused request keeps no payload. Sheds and any batch the size
    /// trigger forms come out as events.
    pub fn submit(&mut self, id: u64, input: Tensor, now: SimTime) -> bool {
        let admission = self.batcher.offer(id, now, now, None);
        if admission.admitted {
            self.pending.insert(id, input);
        }
        for victim in admission.shed {
            // Shed requests never execute: drop the payload with them.
            self.pending.remove(&victim.id);
            self.events.push_back(CoreEvent::Shed(victim.id));
        }
        if let Some(batch) = admission.batch {
            self.form(batch);
        }
        self.pump();
        admission.admitted
    }

    /// Fire the delay trigger: form the waiting partial batch if the oldest
    /// request has exceeded the queue-delay bound.
    pub fn poll(&mut self, now: SimTime) {
        if let Some(batch) = self.batcher.poll(now).batch {
            self.form(batch);
        }
        self.pump();
    }

    /// Form every queued request into batches now (end of stream, drain).
    pub fn flush(&mut self) {
        for batch in self.batcher.flush() {
            self.form(batch);
        }
        self.pump();
    }

    /// Stage a weight artifact. It is verified and, when every check
    /// passes, published at the next pool-wide batch boundary; either way a
    /// [`CoreEvent::SwapResolved`] reports the verdict. `crash_after`
    /// simulates a loader crash after that many tensors (see
    /// [`decode_artifact_staged`]).
    pub fn stage_swap(&mut self, artifact: Vec<u8>, crash_after: Option<u64>) {
        self.staged.push_back((artifact, crash_after));
        self.pump();
    }

    /// Absorb an executor's verdict on batch `seq`. Unknown or already
    /// merged sequence numbers are ignored.
    pub fn worker_done(&mut self, seq: u64, verdict: Verdict<O>) {
        if !self.flight.contains_key(&seq) || self.merge.contains_key(&seq) {
            return;
        }
        self.in_flight = self.in_flight.saturating_sub(1);
        if self.guard_inflight == Some(seq) {
            self.guard_inflight = None;
        }
        let outputs = match verdict {
            Verdict::Violation(inputs) => {
                // A fresh generation failing its first batch is a bad
                // artifact that passed the load gate: roll back and
                // quarantine it. A proven one failing means in-memory
                // corruption: reinstall its pristine bits. Either way the
                // same batch re-serves before anyone is answered.
                if self.cell.is_fresh() {
                    self.cell.rollback();
                }
                self.events
                    .push_back(CoreEvent::Install(self.cell.current().weights()));
                self.dispatch(seq, inputs, None, true);
                self.pump();
                return;
            }
            Verdict::Outputs(outputs) => {
                // The generation carried a batch: it has proven itself.
                self.cell.mark_proven();
                Some(outputs)
            }
            Verdict::Abandoned => None,
        };
        self.merge.insert(seq, outputs);
        while let Some(outputs) = self.merge.remove(&self.next_done) {
            let seq = self.next_done;
            self.next_done += 1;
            if let (Some(ids), Some(outputs)) = (self.flight.remove(&seq), outputs) {
                self.emit(seq, ids, outputs);
            }
        }
        self.pump();
    }

    /// The next thing the caller must do, in order.
    pub fn next_event(&mut self) -> Option<CoreEvent<O>> {
        self.events.pop_front()
    }

    /// Ids of a dispatched batch that has not merged yet, in batch order.
    pub fn batch_ids(&self, seq: u64) -> &[u64] {
        self.flight.get(&seq).map_or(&[], Vec::as_slice)
    }

    /// Nothing formed, dispatched or staged is outstanding (queued
    /// requests may still wait on the batcher's triggers).
    pub fn is_idle(&self) -> bool {
        self.ready.is_empty() && self.in_flight == 0 && self.staged.is_empty()
    }

    /// Requests admitted but not yet dispatched.
    pub fn queued(&self) -> usize {
        self.batcher.queued()
            + self
                .ready
                .iter()
                .map(|(_, ids, _)| ids.len())
                .sum::<usize>()
    }

    /// The weight-generation cell: current/previous generation, swap,
    /// rollback and rejected-load counters, quarantined generations.
    pub fn weights_cell(&self) -> &WeightsCell {
        &self.cell
    }

    /// Executors batches are spread over.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Batches merged with outputs so far.
    pub fn executed_batches(&self) -> u64 {
        self.executed_batches
    }

    /// Requests merged with outputs so far.
    pub fn executed_requests(&self) -> u64 {
        self.executed_requests
    }

    /// Executed batches per worker.
    pub fn worker_batches(&self) -> &[u64] {
        &self.worker_batches
    }

    /// Executed requests per worker.
    pub fn worker_requests(&self) -> &[u64] {
        &self.worker_requests
    }

    /// Drop a pending payload, simulating bookkeeping skew between the
    /// batcher queue and the payload map (test hook for the fault path).
    #[cfg(test)]
    pub(crate) fn drop_payload(&mut self, id: u64) {
        self.pending.remove(&id);
    }

    /// Pair a formed batch with its payloads and queue it for dispatch. A
    /// queued id without a payload is reported as a fault; its batchmates
    /// stay.
    fn form(&mut self, batch: Vec<QueuedRequest>) {
        let mut ids = Vec::with_capacity(batch.len());
        let mut inputs = Vec::with_capacity(batch.len());
        for r in batch {
            match self.pending.remove(&r.id) {
                Some(input) => {
                    ids.push(r.id);
                    inputs.push(input);
                }
                None => self
                    .events
                    .push_back(CoreEvent::Fault(ServeFault::MissingPayload { id: r.id })),
            }
        }
        if ids.is_empty() {
            return;
        }
        self.ready.push_back((self.next_seq, ids, inputs));
        self.next_seq += 1;
    }

    /// Make progress: resolve staged swaps at a pool-wide batch boundary,
    /// then dispatch ready batches under the guard barrier.
    fn pump(&mut self) {
        if self.in_flight == 0 {
            while let Some((artifact, crash_after)) = self.staged.pop_front() {
                self.resolve_swap(&artifact, crash_after);
            }
        }
        while self.staged.is_empty() && self.guard_inflight.is_none() {
            let guard = self.swap_guard.filter(|_| self.cell.is_fresh());
            if guard.is_some() && self.in_flight > 0 {
                break;
            }
            let Some((seq, ids, inputs)) = self.ready.pop_front() else {
                break;
            };
            if guard.is_some() {
                self.guard_inflight = Some(seq);
            }
            self.flight.insert(seq, ids);
            self.dispatch(seq, inputs, guard, false);
        }
    }

    fn dispatch(
        &mut self,
        seq: u64,
        inputs: Vec<Tensor>,
        guard: Option<ActivationGuard>,
        retry: bool,
    ) {
        self.in_flight += 1;
        self.events.push_back(CoreEvent::Run(RunBatch {
            seq,
            worker: (seq % self.width as u64) as usize,
            inputs,
            guard,
            retry,
        }));
    }

    fn resolve_swap(&mut self, artifact: &[u8], crash_after: Option<u64>) {
        let decoded = decode_artifact_staged(artifact, self.graph, self.int8_linears, crash_after);
        let verdict = match decoded {
            Ok(weights) => {
                self.cell.publish(Arc::new(weights));
                self.events
                    .push_back(CoreEvent::Install(self.cell.current().weights()));
                Ok(self.cell.current().clone())
            }
            Err(e) => {
                self.cell.record_rejected_load();
                Err(e)
            }
        };
        self.events.push_back(CoreEvent::SwapResolved(verdict));
    }

    /// Complete one merged batch. Generations are tagged here: installs
    /// land only at pool-wide batch boundaries, so the serving generation
    /// is the one that ran the batch (or the rolled-back-to one that
    /// re-served it).
    fn emit(&mut self, seq: u64, ids: Vec<u64>, outputs: Vec<O>) {
        let worker = (seq % self.width as u64) as usize;
        let batch_size = ids.len();
        self.executed_batches += 1;
        self.executed_requests += batch_size as u64;
        self.worker_batches[worker] += 1;
        self.worker_requests[worker] += batch_size as u64;
        let generation = self.cell.current().number();
        for (id, output) in ids.into_iter().zip(outputs) {
            self.events.push_back(CoreEvent::Complete(Completion {
                id,
                output,
                batch_size,
                generation,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    //! The core driven by a fake pool: no threads, no sockets, no
    //! executor. Each fake worker "computes" `(input tag, fingerprint of
    //! the weights it held when the batch was dispatched)`, so every
    //! completion shows which generation really produced it, and the test
    //! decides the order in which batches come home.

    use super::*;
    use harvest_engine::{encode_artifact, WeightStore};
    use harvest_models::{vit, VitConfig};

    type Out = (u64, u64);

    fn graph() -> Graph {
        vit(
            "core-test",
            &VitConfig {
                dim: 16,
                depth: 1,
                heads: 1,
                patch: 4,
                img: 8,
                mlp_ratio: 2,
                classes: 4,
            },
        )
    }

    fn weights(g: &Graph, seed: u64) -> MaterializedWeights {
        MaterializedWeights::new(g, &WeightStore::new(seed), false)
    }

    fn tagged(tag: u64) -> Tensor {
        Tensor::from_vec(&[1], vec![tag as f32])
    }

    fn core(g: &Graph, preferred_batch: u32, width: usize) -> BatchCore<'_, Out> {
        let config = BatcherConfig::new(preferred_batch, SimTime::from_millis(1000));
        BatchCore::new(g, Arc::new(weights(g, 7)), false, config, width).expect("valid config")
    }

    fn guard() -> ActivationGuard {
        ActivationGuard {
            range_limit: Some(1e6),
        }
    }

    #[derive(Default)]
    struct FakePool {
        /// Fingerprint of the weights each worker holds.
        installed: Vec<u64>,
        /// Dispatched batches with the fingerprint they run on.
        running: Vec<(RunBatch, u64)>,
        done: Vec<Completion<Out>>,
        shed: Vec<u64>,
        faults: Vec<ServeFault>,
        /// `(number, fingerprint)` of every generation the core published
        /// (generation 0 included), or `None` for a refused artifact.
        generations: Vec<Option<(u64, u64)>>,
    }

    impl FakePool {
        fn new(core: &BatchCore<'_, Out>) -> Self {
            let boot = core.weights_cell().current();
            FakePool {
                installed: vec![boot.fingerprint(); core.width()],
                generations: vec![Some((boot.number(), boot.fingerprint()))],
                ..FakePool::default()
            }
        }

        fn drain(&mut self, core: &mut BatchCore<'_, Out>) {
            while let Some(event) = core.next_event() {
                match event {
                    CoreEvent::Run(b) => {
                        let fp = self.installed[b.worker];
                        self.running.push((b, fp));
                    }
                    CoreEvent::Install(w) => self.installed.fill(w.fingerprint()),
                    CoreEvent::Complete(c) => self.done.push(c),
                    CoreEvent::Shed(id) => self.shed.push(id),
                    CoreEvent::Fault(f) => self.faults.push(f),
                    CoreEvent::SwapResolved(r) => self
                        .generations
                        .push(r.ok().map(|g| (g.number(), g.fingerprint()))),
                }
            }
        }

        fn take(&mut self, seq: u64) -> (RunBatch, u64) {
            let at = self
                .running
                .iter()
                .position(|(b, _)| b.seq == seq)
                .unwrap_or_else(|| panic!("seq {seq} is not running"));
            self.running.remove(at)
        }

        /// Batch `seq` comes home with outputs.
        fn finish(&mut self, core: &mut BatchCore<'_, Out>, seq: u64) {
            let (b, fp) = self.take(seq);
            let outs = b.inputs.iter().map(|t| (t.data()[0] as u64, fp)).collect();
            core.worker_done(seq, Verdict::Outputs(outs));
            self.drain(core);
        }

        /// Batch `seq` trips its sentinel.
        fn violate(&mut self, core: &mut BatchCore<'_, Out>, seq: u64) {
            let (b, _) = self.take(seq);
            core.worker_done(seq, Verdict::Violation(b.inputs));
            self.drain(core);
        }

        fn seqs(&self) -> Vec<u64> {
            self.running.iter().map(|(b, _)| b.seq).collect()
        }

        fn ids(&self) -> Vec<u64> {
            self.done.iter().map(|c| c.id).collect()
        }

        /// Every completion was computed on the generation it is tagged
        /// with.
        fn assert_tags_match_weights(&self) {
            for c in &self.done {
                let fp = self
                    .generations
                    .iter()
                    .flatten()
                    .find(|(n, _)| *n == c.generation)
                    .map(|(_, fp)| *fp);
                assert_eq!(fp, Some(c.output.1), "request {} mis-tagged", c.id);
            }
        }
    }

    fn submit(core: &mut BatchCore<'_, Out>, pool: &mut FakePool, id: u64) {
        assert!(core.submit(id, tagged(id), SimTime::from_millis(id)));
        pool.drain(core);
    }

    #[test]
    fn out_of_order_completions_merge_in_submission_order() {
        let g = graph();
        let mut core = core(&g, 1, 4);
        let mut pool = FakePool::new(&core);
        for id in 0..4 {
            submit(&mut core, &mut pool, id);
        }
        assert_eq!(pool.seqs(), vec![0, 1, 2, 3]);
        let workers: Vec<usize> = pool.running.iter().map(|(b, _)| b.worker).collect();
        assert_eq!(workers, vec![0, 1, 2, 3], "seq % width");
        pool.finish(&mut core, 2);
        assert!(pool.done.is_empty(), "seq 2 waits for 0 and 1");
        pool.finish(&mut core, 0);
        assert_eq!(pool.ids(), vec![0]);
        pool.finish(&mut core, 3);
        assert_eq!(pool.ids(), vec![0]);
        pool.finish(&mut core, 1);
        assert_eq!(pool.ids(), vec![0, 1, 2, 3]);
        assert_eq!(core.worker_requests(), &[1, 1, 1, 1]);
        assert_eq!(core.executed_batches(), 4);
        assert!(core.is_idle());
    }

    #[test]
    fn staged_swap_publishes_only_after_every_batch_returns() {
        let g = graph();
        let mut core = core(&g, 1, 4);
        core.set_swap_guard(guard());
        let mut pool = FakePool::new(&core);
        for id in 0..3 {
            submit(&mut core, &mut pool, id);
        }
        core.stage_swap(encode_artifact(&weights(&g, 99)), None);
        pool.drain(&mut core);
        assert_eq!(pool.generations.len(), 1, "three batches still in flight");
        // New work waits behind the staged swap.
        submit(&mut core, &mut pool, 3);
        submit(&mut core, &mut pool, 4);
        assert_eq!(pool.seqs(), vec![0, 1, 2]);
        pool.finish(&mut core, 1);
        pool.finish(&mut core, 0);
        assert_eq!(pool.generations.len(), 1, "one batch still in flight");
        assert_eq!(core.weights_cell().current().number(), 0);
        pool.finish(&mut core, 2);
        // Boundary: published, installed everywhere, and the fresh
        // generation's first batch runs guarded and alone.
        assert_eq!(pool.generations[1].map(|(n, _)| n), Some(1));
        assert_eq!(pool.seqs(), vec![3]);
        assert!(pool.running[0].0.guard.is_some());
        pool.finish(&mut core, 3);
        assert_eq!(pool.seqs(), vec![4], "proven: the barrier lifts");
        assert!(pool.running[0].0.guard.is_none());
        pool.finish(&mut core, 4);
        let gens: Vec<u64> = pool.done.iter().map(|c| c.generation).collect();
        assert_eq!(gens, vec![0, 0, 0, 1, 1]);
        pool.assert_tags_match_weights();
    }

    #[test]
    fn violation_on_worker_one_rolls_back_and_reserves_the_same_seq() {
        let g = graph();
        let mut core = core(&g, 1, 4);
        core.set_swap_guard(guard());
        let mut pool = FakePool::new(&core);
        submit(&mut core, &mut pool, 0);
        pool.finish(&mut core, 0);
        core.stage_swap(encode_artifact(&weights(&g, 99)), None);
        pool.drain(&mut core);
        assert_eq!(pool.generations[1].map(|(n, _)| n), Some(1));
        submit(&mut core, &mut pool, 1);
        let (b, fp) = &pool.running[0];
        assert_eq!((b.seq, b.worker), (1, 1), "guarded batch on worker 1");
        assert!(b.guard.is_some());
        assert_eq!(Some(*fp), pool.generations[1].map(|(_, fp)| fp));
        pool.violate(&mut core, 1);
        // Rolled back and reinstalled before the same seq re-runs, on the
        // same worker, unguarded.
        let (b, fp) = &pool.running[0];
        assert_eq!((b.seq, b.worker, b.retry), (1, 1, true));
        assert!(b.guard.is_none());
        assert_eq!(Some(*fp), pool.generations[0].map(|(_, fp)| fp));
        pool.finish(&mut core, 1);
        submit(&mut core, &mut pool, 2);
        pool.finish(&mut core, 2);
        assert_eq!(pool.ids(), vec![0, 1, 2]);
        assert!(pool.done.iter().all(|c| c.generation == 0));
        pool.assert_tags_match_weights();
        let cell = core.weights_cell();
        assert_eq!((cell.swaps(), cell.rollbacks()), (1, 1));
        assert_eq!(cell.quarantined()[0].0, 1);
    }

    #[test]
    fn missing_payload_faults_alone_while_batchmates_complete() {
        let g = graph();
        let mut core = core(&g, 3, 2);
        let mut pool = FakePool::new(&core);
        submit(&mut core, &mut pool, 0);
        submit(&mut core, &mut pool, 1);
        core.drop_payload(1);
        submit(&mut core, &mut pool, 2);
        assert_eq!(pool.faults, vec![ServeFault::MissingPayload { id: 1 }]);
        pool.finish(&mut core, 0);
        assert_eq!(pool.ids(), vec![0, 2]);
        assert!(pool.done.iter().all(|c| c.batch_size == 2));
        assert_eq!(pool.done[1].output.0, 2, "outputs stay paired with ids");
        assert_eq!(core.executed_requests(), 2);
    }

    /// A fixed trace — bursts, a mid-stream swap, a refused artifact,
    /// delay-trigger polls and a final flush — with batches coming home in
    /// reverse dispatch order whenever more than one is running.
    fn trace(width: usize) -> Vec<(u64, Out, u64)> {
        let g = graph();
        let mut core = core(&g, 2, width);
        core.set_swap_guard(guard());
        let mut pool = FakePool::new(&core);
        let finish_all = |core: &mut BatchCore<'_, Out>, pool: &mut FakePool| {
            while let Some(seq) = pool.seqs().into_iter().max() {
                pool.finish(core, seq);
            }
        };
        for id in 0..7 {
            submit(&mut core, &mut pool, id);
            if id % 3 == 2 {
                finish_all(&mut core, &mut pool);
            }
        }
        core.stage_swap(encode_artifact(&weights(&g, 99)), None);
        core.stage_swap(b"not an artifact".to_vec(), None);
        pool.drain(&mut core);
        for id in 7..12 {
            submit(&mut core, &mut pool, id);
        }
        finish_all(&mut core, &mut pool);
        core.poll(SimTime::from_secs(5));
        pool.drain(&mut core);
        submit(&mut core, &mut pool, 12);
        core.flush();
        pool.drain(&mut core);
        finish_all(&mut core, &mut pool);
        assert!(core.is_idle());
        assert_eq!(pool.generations.len(), 3);
        assert!(pool.generations[2].is_none(), "garbage refused");
        pool.assert_tags_match_weights();
        pool.done
            .into_iter()
            .map(|c| (c.id, c.output, c.generation))
            .collect()
    }

    #[test]
    fn width_one_and_width_four_yield_the_same_completions() {
        let narrow = trace(1);
        assert_eq!(narrow.len(), 13);
        assert!(narrow.iter().any(|c| c.2 == 1), "the swap served traffic");
        assert_eq!(narrow, trace(4));
    }
}
