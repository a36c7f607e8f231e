//! Real-execution serving: the batch/swap core driving actual host
//! inference.
//!
//! The simulated pipeline ([`crate::server`]) answers latency questions
//! against the calibrated performance model; this module closes the loop on
//! the *computation* side: requests carry real input tensors, the
//! [`BatchCore`] decides when a batch dispatches (size or delay trigger,
//! shed policies included) and when a swapped generation serves, and
//! dispatched batches run inline through [`Executor::forward_batch`] — the
//! batched, weight-cached engine — so every completion carries real
//! logits. The wire front-end drives the same core over a pool of
//! executors.
//!
//! Dispatched batches run under the `harvest-threads` work pool (GEMM row
//! blocks, per-image conv, per-(image, head) attention fan out across
//! cores). The pool's determinism contract means the logits a completion
//! carries are bit-identical at every `HARVEST_THREADS` setting — the
//! thread-invariance test below pins this, and the integrity layer's
//! bit-exact oracle comparisons rely on it.

use crate::batcher::{BatcherConfig, BatcherConfigError};
use crate::core::{BatchCore, CoreEvent, RunBatch, Verdict};
pub use crate::core::{Completion, ServeFault};
use crate::integrity::{IntegrityStats, NodeIntegrity, DETECT_TOL, ESCAPE_TOL};
use harvest_engine::{
    ActivationGuard, ActivationInjection, ArtifactError, Executor, Generation, WeightsCell,
};
use harvest_simkit::SimTime;
use harvest_tensor::integrity::max_abs_gap;
use harvest_tensor::Tensor;
use std::sync::Arc;

/// Outcome of submitting one request.
#[derive(Debug, Default)]
pub struct Submission {
    /// Was the request admitted to the queue?
    pub admitted: bool,
    /// Ids of queued requests shed to make room (payloads are dropped).
    pub shed: Vec<u64>,
    /// Completions, when the submission fired the size trigger.
    pub completed: Vec<Completion>,
}

/// A serving frontend that batches real inference requests and executes
/// dispatched batches on the host engine: the [`BatchCore`] at width 1,
/// driven with an inline executor.
pub struct RealBatchServer<'g> {
    exec: Executor<'g>,
    core: BatchCore<'g, Tensor>,
    /// Integrity state machine (fault injection + detection + recovery);
    /// `None` keeps the plain path, bit-identical to the pre-integrity
    /// server.
    integrity: Option<NodeIntegrity<'g>>,
    /// The integrity round a retried batch continues.
    round: u64,
    /// Requests whose batch was quarantined: id + payload, awaiting the
    /// cluster's sibling re-dispatch.
    failed: Vec<(u64, Tensor)>,
    /// Internal-state skews observed on the hot path (see [`ServeFault`]).
    faults: Vec<ServeFault>,
}

impl<'g> RealBatchServer<'g> {
    /// New server over an executor and a batching policy.
    pub fn new(exec: Executor<'g>, config: BatcherConfig) -> Result<Self, BatcherConfigError> {
        let core = BatchCore::new(
            exec.graph(),
            exec.weights_handle(),
            exec.int8_linears(),
            config,
            1,
        )?;
        Ok(RealBatchServer {
            exec,
            core,
            integrity: None,
            round: 0,
            failed: Vec::new(),
            faults: Vec::new(),
        })
    }

    /// A server whose batches run through the integrity state machine:
    /// fault injection from the node's plan, the configured detector
    /// ladder, re-materialize-and-retry recovery, and quarantine when the
    /// retry also fails.
    pub fn with_integrity(
        exec: Executor<'g>,
        config: BatcherConfig,
        integrity: NodeIntegrity<'g>,
    ) -> Result<Self, BatcherConfigError> {
        let mut server = Self::new(exec, config)?;
        server.integrity = Some(integrity);
        Ok(server)
    }

    /// The node's integrity counters, when integrity is enabled.
    pub fn integrity_stats(&self) -> Option<&IntegrityStats> {
        self.integrity.as_ref().map(|i| &i.stats)
    }

    /// Has this node been quarantined by the integrity layer?
    pub fn is_quarantined(&self) -> bool {
        self.integrity.as_ref().is_some_and(|i| i.quarantined)
    }

    /// Drain the requests whose batches failed under quarantine (id +
    /// payload), for re-dispatch elsewhere.
    pub fn take_failed(&mut self) -> Vec<(u64, Tensor)> {
        std::mem::take(&mut self.failed)
    }

    /// Drain the internal-state skews observed since the last call. A wire
    /// frontend maps each to a 500 for the affected request; an empty list
    /// is the steady state.
    pub fn take_faults(&mut self) -> Vec<ServeFault> {
        std::mem::take(&mut self.faults)
    }

    /// Drop a pending payload, simulating bookkeeping skew between the
    /// batcher queue and the payload map (test hook for the fault path).
    #[cfg(test)]
    fn drop_payload(&mut self, id: u64) {
        self.core.drop_payload(id);
    }

    /// The weight-generation cell: current/previous generation, swap,
    /// rollback and rejected-load counters, quarantined generations.
    pub fn weights_cell(&self) -> &WeightsCell {
        self.core.weights_cell()
    }

    /// Number of the generation currently serving.
    pub fn generation(&self) -> u64 {
        self.core.weights_cell().current().number()
    }

    /// Arm the swap sentinel for the plain path: a freshly published
    /// generation's first batch runs guarded, and a violation rolls the
    /// swap back. The integrity path uses its own detector ladder instead.
    pub fn set_swap_guard(&mut self, guard: ActivationGuard) {
        self.core.set_swap_guard(guard);
    }

    /// Verify `bytes` as a weight artifact and, when every check passes,
    /// publish it as the next generation and install it for serving — the
    /// next dispatched batch runs on it. Any framing, manifest or checksum
    /// failure is a typed error, counts as a rejected load, and leaves the
    /// serving generation untouched.
    pub fn swap_artifact(&mut self, bytes: &[u8]) -> Result<u64, ArtifactError> {
        self.swap_artifact_staged(bytes, None)
    }

    /// [`Self::swap_artifact`] with a simulated loader crash point after
    /// `crash_after` tensors (see [`harvest_engine::decode_artifact_staged`]):
    /// the staging copy is dropped and the serving generation is untouched.
    pub fn swap_artifact_staged(
        &mut self,
        bytes: &[u8],
        crash_after: Option<u64>,
    ) -> Result<u64, ArtifactError> {
        self.core.stage_swap(bytes.to_vec(), crash_after);
        match self.settle(&mut Submission::default()) {
            Some(verdict) => verdict.map(|g| g.number()),
            // The inline executor returns every batch before the call that
            // dispatched it does, so the core is always at a batch
            // boundary and resolves the swap at once.
            None => unreachable!("inline executor left a batch in flight"),
        }
    }

    /// Requests admitted but not yet dispatched.
    pub fn queued(&self) -> usize {
        self.core.queued()
    }

    /// Batches actually executed so far.
    pub fn executed_batches(&self) -> u64 {
        self.core.executed_batches()
    }

    /// Requests actually executed so far.
    pub fn executed_requests(&self) -> u64 {
        self.core.executed_requests()
    }

    /// Submit a request. The batcher may reject it (bounded queue), shed
    /// older requests, or dispatch a full batch — in which case the batch
    /// is executed immediately and its completions returned.
    pub fn submit(&mut self, id: u64, input: Tensor, now: SimTime) -> Submission {
        let mut out = Submission {
            admitted: self.core.submit(id, input, now),
            ..Submission::default()
        };
        self.settle(&mut out);
        out
    }

    /// Fire the delay trigger: execute the waiting partial batch if the
    /// oldest request has exceeded the queue-delay bound.
    pub fn poll(&mut self, now: SimTime) -> Vec<Completion> {
        self.core.poll(now);
        let mut out = Submission::default();
        self.settle(&mut out);
        out.completed
    }

    /// Drain every queued request immediately (end-of-stream flush),
    /// executing the remaining partial batches.
    pub fn flush(&mut self) -> Vec<Completion> {
        self.core.flush();
        let mut out = Submission::default();
        self.settle(&mut out);
        out.completed
    }

    /// Drive the core until it has nothing left to say: run dispatched
    /// batches inline, install published or rolled-back-to weights, and
    /// collect completions and sheds into `out`. Returns the verdict of a
    /// swap resolved along the way.
    fn settle(&mut self, out: &mut Submission) -> Option<Result<Generation, ArtifactError>> {
        let mut swap = None;
        while let Some(event) = self.core.next_event() {
            match event {
                CoreEvent::Run(dispatch) => {
                    let seq = dispatch.seq;
                    let verdict = self.execute(dispatch);
                    self.core.worker_done(seq, verdict);
                }
                CoreEvent::Install(weights) => {
                    self.exec.install_weights(Arc::clone(&weights));
                    if let Some(intg) = self.integrity.as_mut() {
                        // The oracle tracks the serving generation so
                        // cross-checks and dispositions compare against its
                        // clean weights (its copy is never injection-
                        // targeted).
                        intg.oracle.install_weights(weights);
                    }
                }
                CoreEvent::Complete(c) => out.completed.push(c),
                CoreEvent::Shed(id) => out.shed.push(id),
                CoreEvent::SwapResolved(verdict) => swap = Some(verdict),
                CoreEvent::Fault(fault) => self.faults.push(fault),
            }
        }
        swap
    }

    /// Run one dispatched batch.
    ///
    /// Without integrity this is the plain path, guarded when the core says
    /// so: a violation means an artifact that passed its checksums computes
    /// garbage, and the core rolls it back.
    ///
    /// With integrity, each dispatch is one attempt of the state machine. A
    /// first dispatch injects weight flips (round-keyed, so reruns replay
    /// identically), verifies checksums, runs the guarded forward with
    /// activation injection and cross-checks against the reference path.
    /// A detection is reported as a violation: the core reinstalls pristine
    /// weights (rolling a fresh generation back first) and re-dispatches
    /// the batch as a retry, which re-injects when the fault is sticky — a
    /// failing cell, not a transient hit — and runs the same checks with
    /// fresh activation coins. A second detection quarantines the node.
    /// Every emitted batch is classified against the clean oracle:
    /// bit-identical (`clean`), within tolerance (`masked`), or materially
    /// wrong (`escaped`).
    fn execute(&mut self, d: RunBatch) -> Verdict<Tensor> {
        let RunBatch {
            seq,
            inputs,
            guard,
            retry,
            ..
        } = d;
        let Some(intg) = self.integrity.as_mut() else {
            return match guard {
                Some(guard) => {
                    let run = self.exec.forward_batch_checked(&inputs, Some(&guard), None);
                    match run.violation {
                        Some(_) => Verdict::Violation(inputs),
                        None => Verdict::Outputs(run.outputs),
                    }
                }
                None => Verdict::Outputs(self.exec.forward_batch(&inputs)),
            };
        };
        let round = if retry {
            if intg.plan.weight_flips_sticky() {
                // The failing cell corrupts the fresh copy too: same round
                // key, identical flips.
                intg.stats.injected_weight_flips +=
                    self.exec.inject_weight_flips(&intg.plan, self.round);
            }
            self.round
        } else {
            if intg.quarantined {
                let ids = self.core.batch_ids(seq).iter().copied();
                self.failed.extend(ids.zip(inputs));
                return Verdict::Abandoned;
            }
            let round = intg.stats.batches;
            intg.stats.batches += 1;
            intg.stats.injected_weight_flips += self.exec.inject_weight_flips(&intg.plan, round);
            self.round = round;
            round
        };

        let mut detected = intg.config.weight_checksums && self.exec.verify_weights().is_err();
        let mut outputs = None;
        if !detected {
            let inj_ctx = ActivationInjection {
                plan: &intg.plan,
                batch: round,
                attempt: u32::from(retry),
            };
            let inject = intg.plan.corrupts_activations().then_some(&inj_ctx);
            let run = self
                .exec
                .forward_batch_checked(&inputs, intg.config.guard.as_ref(), inject);
            intg.stats.injected_activation_flips += run.activation_flips;
            if run.violation.is_some() {
                detected = true;
            } else {
                outputs = Some(run.outputs);
            }
        }
        if let Some(outs) = &outputs {
            if intg.config.cross_checks(round) {
                detected = if self.core.weights_cell().current().number() == 0 {
                    inputs
                        .iter()
                        .zip(outs)
                        .any(|(x, y)| self.exec.reference_gap(x, y) > DETECT_TOL)
                } else {
                    // Swapped generations have no seed-derived reference
                    // path; cross-check against the oracle executor, which
                    // tracks published generations and is never
                    // injection-targeted.
                    let clean = intg.oracle.forward_batch(&inputs);
                    clean
                        .iter()
                        .zip(outs)
                        .any(|(c, y)| max_abs_gap(c.data(), y.data()) > DETECT_TOL)
                };
            }
        }
        match outputs {
            Some(outs) if !detected => {
                if retry {
                    intg.stats.recovered += 1;
                }
                // Ground-truth disposition of what we are about to emit.
                let clean = intg.oracle.forward_batch(&inputs);
                let mut worst = 0.0f32;
                let mut bit_identical = true;
                for (y, c) in outs.iter().zip(&clean) {
                    if y.data() != c.data() {
                        bit_identical = false;
                        worst = worst.max(max_abs_gap(y.data(), c.data()));
                    }
                }
                if bit_identical {
                    intg.stats.clean += 1;
                } else if worst > ESCAPE_TOL {
                    intg.stats.escaped += 1;
                } else {
                    intg.stats.masked += 1;
                }
                Verdict::Outputs(outs)
            }
            _ if !retry => {
                intg.stats.detected += 1;
                Verdict::Violation(inputs)
            }
            _ => {
                intg.stats.quarantined += 1;
                intg.quarantined = true;
                let ids = self.core.batch_ids(seq).iter().copied();
                self.failed.extend(ids.zip(inputs));
                Verdict::Abandoned
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::ShedPolicy;
    use harvest_models::{vit, VitConfig};

    fn tiny_graph() -> harvest_models::Graph {
        vit(
            "tiny-serving",
            &VitConfig {
                dim: 32,
                depth: 1,
                heads: 2,
                patch: 4,
                img: 16,
                mlp_ratio: 2,
                classes: 4,
            },
        )
    }

    fn input(seed: u64) -> Tensor {
        Tensor::random(&[3, 16, 16], seed, 1.0)
    }

    #[test]
    fn size_trigger_executes_batch_with_real_logits() {
        let g = tiny_graph();
        let oracle = Executor::new(&g, 7);
        let mut server = RealBatchServer::new(
            Executor::new(&g, 7),
            BatcherConfig::new(3, SimTime::from_millis(100)),
        )
        .expect("valid config");
        assert!(server
            .submit(0, input(1), SimTime::ZERO)
            .completed
            .is_empty());
        assert!(server
            .submit(1, input(2), SimTime::ZERO)
            .completed
            .is_empty());
        let out = server.submit(2, input(3), SimTime::ZERO);
        assert_eq!(out.completed.len(), 3, "size trigger fired");
        for (i, c) in out.completed.iter().enumerate() {
            assert_eq!(c.id, i as u64);
            assert_eq!(c.batch_size, 3);
            // Batched serving returns exactly what a direct forward would.
            assert_eq!(c.output, oracle.forward(&input(i as u64 + 1)));
        }
        assert_eq!(server.executed_batches(), 1);
        assert_eq!(server.executed_requests(), 3);
    }

    #[test]
    fn delay_trigger_executes_partial_batch() {
        let g = tiny_graph();
        let mut server = RealBatchServer::new(
            Executor::new(&g, 7),
            BatcherConfig::new(8, SimTime::from_millis(10)),
        )
        .expect("valid config");
        server.submit(0, input(1), SimTime::ZERO);
        server.submit(1, input(2), SimTime::from_millis(1));
        assert!(server.poll(SimTime::from_millis(9)).is_empty());
        let done = server.poll(SimTime::from_millis(10));
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|c| c.batch_size == 2));
        assert_eq!(server.queued(), 0);
    }

    #[test]
    fn shed_requests_drop_their_payload() {
        let g = tiny_graph();
        let mut config = BatcherConfig::new(32, SimTime::from_millis(1000));
        config.max_queue = 2;
        config.shed = ShedPolicy::DropOldest;
        let mut server = RealBatchServer::new(Executor::new(&g, 7), config).expect("valid config");
        server.submit(0, input(1), SimTime::ZERO);
        server.submit(1, input(2), SimTime::ZERO);
        let out = server.submit(2, input(3), SimTime::ZERO);
        assert!(out.admitted);
        assert_eq!(out.shed, vec![0], "oldest request gives way");
        // The shed payload is gone; the survivors still execute.
        let done = server.flush();
        assert_eq!(done.len(), 2);
        let ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(server.executed_requests(), 2);
    }

    #[test]
    fn rejected_requests_keep_no_payload() {
        let g = tiny_graph();
        let mut config = BatcherConfig::new(32, SimTime::from_millis(1000));
        config.max_queue = 1;
        let mut server = RealBatchServer::new(Executor::new(&g, 7), config).expect("valid config");
        assert!(server.submit(0, input(1), SimTime::ZERO).admitted);
        let out = server.submit(1, input(2), SimTime::ZERO);
        assert!(!out.admitted, "bounded queue rejects");
        let done = server.flush();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 0);
    }

    #[test]
    fn full_queue_conserves_every_request_exactly_once() {
        // Under sustained overload with a bounded queue and DropOldest,
        // every submitted id must end up in exactly one of
        // {completed, shed, rejected} — none lost, none duplicated.
        let g = tiny_graph();
        let mut config = BatcherConfig::new(4, SimTime::from_millis(1000));
        config.max_queue = 3;
        config.shed = ShedPolicy::DropOldest;
        let mut server = RealBatchServer::new(Executor::new(&g, 7), config).expect("valid config");
        let total = 25u64;
        let mut completed = Vec::new();
        let mut shed = Vec::new();
        let mut rejected = Vec::new();
        for id in 0..total {
            let out = server.submit(id, input(id + 1), SimTime::from_millis(id));
            if !out.admitted {
                rejected.push(id);
            }
            shed.extend(out.shed);
            completed.extend(out.completed.iter().map(|c| c.id));
        }
        completed.extend(server.flush().iter().map(|c| c.id));
        let mut all: Vec<u64> = completed
            .iter()
            .chain(&shed)
            .chain(&rejected)
            .copied()
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..total).collect();
        assert_eq!(all, expected, "conservation across completed/shed/rejected");
        assert_eq!(completed.len() as u64, server.executed_requests());
        assert!(!shed.is_empty(), "overload must actually shed");
    }

    #[test]
    fn batched_outputs_follow_per_request_submission_order() {
        let g = tiny_graph();
        let oracle = Executor::new(&g, 7);
        let mut server = RealBatchServer::new(
            Executor::new(&g, 7),
            BatcherConfig::new(4, SimTime::from_millis(1000)),
        )
        .expect("valid config");
        // Submit out-of-numeric-order ids: completion order must follow
        // submission order, not id order, and each output must be the
        // logits of *that* request's input.
        let ids = [9u64, 3, 7, 1, 8, 2, 6, 0];
        let mut completed = Vec::new();
        for (k, &id) in ids.iter().enumerate() {
            let out = server.submit(id, input(100 + id), SimTime::from_millis(k as u64));
            completed.extend(out.completed);
        }
        completed.extend(server.flush());
        assert_eq!(completed.len(), ids.len());
        for (k, c) in completed.iter().enumerate() {
            assert_eq!(c.id, ids[k], "completion order = submission order");
            assert_eq!(
                c.output,
                oracle.forward(&input(100 + c.id)),
                "output belongs to the request's own input"
            );
        }
    }

    #[test]
    fn served_logits_are_bit_identical_across_thread_counts() {
        // The whole serving path — batcher, weight-cached executor, pooled
        // kernels — must produce byte-equal logits whatever the pool width.
        let g = tiny_graph();
        let run = |threads: usize| {
            harvest_threads::with_threads(threads, || {
                let mut server = RealBatchServer::new(
                    Executor::new(&g, 7),
                    BatcherConfig::new(4, SimTime::from_millis(1000)),
                )
                .expect("valid config");
                let mut done = Vec::new();
                for id in 0..6u64 {
                    done.extend(
                        server
                            .submit(id, input(id + 1), SimTime::from_millis(id))
                            .completed,
                    );
                }
                done.extend(server.flush());
                done
            })
        };
        let sequential = run(1);
        assert_eq!(sequential.len(), 6);
        for threads in [2, 4] {
            let pooled = run(threads);
            assert_eq!(pooled.len(), sequential.len());
            for (a, b) in sequential.iter().zip(&pooled) {
                assert_eq!(a.id, b.id);
                assert_eq!(
                    a.output, b.output,
                    "threads={threads}: serving logits must not depend on pool width"
                );
            }
        }
    }

    #[test]
    fn missing_payload_surfaces_as_typed_fault_not_panic() {
        let g = tiny_graph();
        let oracle = Executor::new(&g, 7);
        let mut server = RealBatchServer::new(
            Executor::new(&g, 7),
            BatcherConfig::new(3, SimTime::from_millis(100)),
        )
        .expect("valid config");
        assert!(server.take_faults().is_empty(), "steady state is empty");
        server.submit(0, input(1), SimTime::ZERO);
        server.submit(1, input(2), SimTime::ZERO);
        server.drop_payload(1); // skew the books behind the batcher
        let out = server.submit(2, input(3), SimTime::ZERO);
        // The skewed request is reported; its batchmates still complete
        // with the right logits.
        let ids: Vec<u64> = out.completed.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![0, 2]);
        assert!(out.completed.iter().all(|c| c.batch_size == 2));
        assert_eq!(out.completed[0].output, oracle.forward(&input(1)));
        assert_eq!(out.completed[1].output, oracle.forward(&input(3)));
        assert_eq!(server.executed_requests(), 2);
        assert_eq!(
            server.take_faults(),
            vec![ServeFault::MissingPayload { id: 1 }]
        );
        assert!(server.take_faults().is_empty(), "faults drain once");
    }

    #[test]
    fn fully_skewed_batch_executes_nothing_and_reports_every_id() {
        let g = tiny_graph();
        let mut server = RealBatchServer::new(
            Executor::new(&g, 7),
            BatcherConfig::new(4, SimTime::from_millis(1000)),
        )
        .expect("valid config");
        server.submit(0, input(1), SimTime::ZERO);
        server.submit(1, input(2), SimTime::ZERO);
        server.drop_payload(0);
        server.drop_payload(1);
        let done = server.flush();
        assert!(done.is_empty());
        assert_eq!(server.executed_batches(), 0, "nothing to run");
        assert_eq!(
            server.take_faults(),
            vec![
                ServeFault::MissingPayload { id: 0 },
                ServeFault::MissingPayload { id: 1 }
            ]
        );
    }

    // --- integrity state machine ---

    use crate::integrity::{DetectorConfig, NodeIntegrity};
    use harvest_simkit::fault::FaultPlan;

    fn integrity_server<'g>(
        g: &'g harvest_models::Graph,
        plan: FaultPlan,
        config: DetectorConfig,
        batch: u32,
    ) -> RealBatchServer<'g> {
        RealBatchServer::with_integrity(
            Executor::new(g, 7),
            BatcherConfig::new(batch, SimTime::from_millis(1000)),
            NodeIntegrity::new(g, 7, plan, config),
        )
        .expect("valid config")
    }

    fn drive(server: &mut RealBatchServer<'_>, n: u64) -> Vec<Completion> {
        let mut done = Vec::new();
        for id in 0..n {
            done.extend(
                server
                    .submit(id, input(id + 1), SimTime::from_millis(id))
                    .completed,
            );
        }
        done.extend(server.flush());
        done
    }

    #[test]
    fn integrity_off_plan_none_is_bit_identical_to_plain_server() {
        let g = tiny_graph();
        let mut plain = RealBatchServer::new(
            Executor::new(&g, 7),
            BatcherConfig::new(4, SimTime::from_millis(1000)),
        )
        .expect("valid config");
        let mut guarded = integrity_server(&g, FaultPlan::none(), DetectorConfig::full(1e6), 4);
        let mut a = drive(&mut plain, 8);
        let mut b = drive(&mut guarded, 8);
        a.sort_by_key(|c| c.id);
        b.sort_by_key(|c| c.id);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.output, y.output, "full detectors must not change logits");
        }
        let stats = *guarded.integrity_stats().expect("integrity on");
        assert_eq!(stats.detected, 0);
        assert_eq!(stats.clean, stats.batches);
        assert!(stats.conserved(), "{stats:?}");
    }

    #[test]
    fn transient_weight_corruption_is_detected_recovered_and_never_escapes() {
        let g = tiny_graph();
        let plan = FaultPlan::new(2024).with_weight_bit_flips(1e-3, false);
        let mut server = integrity_server(&g, plan, DetectorConfig::full(1e6), 2);
        let done = drive(&mut server, 16);
        assert_eq!(done.len(), 16, "transient faults recover, nothing fails");
        let oracle = Executor::new(&g, 7);
        for c in &done {
            // Recovery re-materializes, so emitted logits are the clean ones.
            assert_eq!(c.output, oracle.forward(&input(c.id + 1)));
        }
        let stats = *server.integrity_stats().expect("integrity on");
        assert!(stats.injected_weight_flips > 0, "rate must land flips");
        assert!(stats.detected > 0, "checksums must notice");
        assert_eq!(
            stats.detected, stats.recovered,
            "transient ⇒ retry succeeds"
        );
        assert_eq!(stats.quarantined, 0);
        assert_eq!(stats.escaped, 0, "full ladder lets nothing out");
        assert!(stats.conserved(), "{stats:?}");
        assert!(!server.is_quarantined());
    }

    #[test]
    fn sticky_weight_corruption_quarantines_after_one_retry() {
        let g = tiny_graph();
        let plan = FaultPlan::new(300).with_weight_bit_flips(5e-3, true);
        let mut server = integrity_server(&g, plan, DetectorConfig::full(1e6), 2);
        let done = drive(&mut server, 6);
        let stats = *server.integrity_stats().expect("integrity on");
        assert!(server.is_quarantined(), "sticky fault must quarantine");
        assert_eq!(stats.quarantined, 1, "exactly one quarantine event");
        assert_eq!(stats.escaped, 0);
        assert!(stats.conserved(), "{stats:?}");
        let failed = server.take_failed();
        assert!(!failed.is_empty(), "quarantined batch requests surface");
        assert_eq!(
            done.len() + failed.len(),
            6,
            "every request completes or fails, none vanish"
        );
    }

    #[test]
    fn corruption_escapes_when_detectors_are_off() {
        let g = tiny_graph();
        let plan = FaultPlan::new(2024).with_weight_bit_flips(1e-3, false);
        let mut server = integrity_server(&g, plan, DetectorConfig::off(), 2);
        let done = drive(&mut server, 16);
        assert_eq!(done.len(), 16, "nothing is detected, everything emits");
        let stats = *server.integrity_stats().expect("integrity on");
        assert_eq!(stats.detected, 0);
        assert!(
            stats.escaped > 0,
            "unguarded weight flips must ship wrong logits: {stats:?}"
        );
        assert!(stats.conserved(), "{stats:?}");
    }

    #[test]
    fn activation_corruption_never_escapes_under_full_ladder() {
        let g = tiny_graph();
        let plan = FaultPlan::new(77).with_activation_bit_flips(2e-3, "blocks.0.mlp");
        let mut server = integrity_server(&g, plan, DetectorConfig::full(1e6), 2);
        drive(&mut server, 16);
        let stats = *server.integrity_stats().expect("integrity on");
        assert!(stats.injected_activation_flips > 0, "flips must land");
        assert!(stats.detected > 0, "cross-check must notice");
        assert_eq!(stats.escaped, 0, "{stats:?}");
        assert!(stats.conserved(), "{stats:?}");
    }

    // --- hot generation swaps ---

    use harvest_engine::{encode_artifact, MaterializedWeights, WeightStore};

    fn artifact_bytes(g: &harvest_models::Graph, seed: u64) -> Vec<u8> {
        encode_artifact(&MaterializedWeights::new(g, &WeightStore::new(seed), false))
    }

    fn poisoned_bytes(g: &harvest_models::Graph, seed: u64) -> Vec<u8> {
        let mut w = MaterializedWeights::new(g, &WeightStore::new(seed), false);
        // Producer-side poison: exponent bits forced high *before* the
        // checksums are taken, so the artifact is self-consistent and sails
        // through the load gate — only an activation sentinel downstream
        // can catch it.
        w.for_each_buffer_mut(|_, buf| {
            buf[0] = f32::from_bits(buf[0].to_bits() | 0x7800_0000);
        });
        encode_artifact(&w)
    }

    fn swapped_oracle<'g>(g: &'g harvest_models::Graph, seed: u64) -> Executor<'g> {
        let mut oracle = Executor::new(g, 7);
        oracle.install_weights(Arc::new(MaterializedWeights::new(
            g,
            &WeightStore::new(seed),
            false,
        )));
        oracle
    }

    #[test]
    fn clean_swap_switches_generation_between_batches() {
        let g = tiny_graph();
        let before = Executor::new(&g, 7);
        let after = swapped_oracle(&g, 99);
        let mut server = RealBatchServer::new(
            Executor::new(&g, 7),
            BatcherConfig::new(2, SimTime::from_millis(1000)),
        )
        .expect("valid config");
        server.submit(0, input(1), SimTime::ZERO);
        let first = server.submit(1, input(2), SimTime::ZERO).completed;
        assert_eq!(first.len(), 2);
        for c in &first {
            assert_eq!(c.generation, 0);
            assert_eq!(c.output, before.forward(&input(c.id + 1)));
        }
        let n = server
            .swap_artifact(&artifact_bytes(&g, 99))
            .expect("clean artifact loads");
        assert_eq!(n, 1);
        assert_eq!(server.generation(), 1);
        server.submit(2, input(3), SimTime::ZERO);
        let second = server.flush();
        assert_eq!(second.len(), 1);
        assert_eq!(
            second[0].generation, 1,
            "next batch runs the new generation"
        );
        assert_eq!(second[0].output, after.forward(&input(3)));
        let cell = server.weights_cell();
        assert_eq!(
            (cell.swaps(), cell.rollbacks(), cell.rejected_loads()),
            (1, 0, 0)
        );
        assert_eq!(
            cell.previous().map(|p| p.number()),
            Some(0),
            "prior generation retained for rollback"
        );
    }

    #[test]
    fn rejected_artifacts_leave_the_serving_generation_untouched() {
        let g = tiny_graph();
        let mut server = RealBatchServer::new(
            Executor::new(&g, 7),
            BatcherConfig::new(2, SimTime::from_millis(1000)),
        )
        .expect("valid config");
        let good = artifact_bytes(&g, 42);

        let mut corrupt = good.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x10;
        assert!(server.swap_artifact(&corrupt).is_err(), "bit flip rejects");
        assert!(
            server.swap_artifact(&good[..good.len() / 3]).is_err(),
            "truncation rejects"
        );
        assert!(
            matches!(
                server.swap_artifact_staged(&good, Some(2)),
                Err(ArtifactError::CrashedMidLoad { applied: 2, .. })
            ),
            "mid-load crash rejects"
        );

        assert_eq!(server.generation(), 0, "serving generation untouched");
        let cell = server.weights_cell();
        assert_eq!((cell.swaps(), cell.rejected_loads()), (0, 3));
        // And it still serves the boot weights.
        server.submit(0, input(1), SimTime::ZERO);
        let done = server.flush();
        assert_eq!(done[0].generation, 0);
        assert_eq!(done[0].output, Executor::new(&g, 7).forward(&input(1)));
    }

    #[test]
    fn poisoned_artifact_rolls_back_before_serving_anyone() {
        let g = tiny_graph();
        let oracle = Executor::new(&g, 7);
        let mut server = RealBatchServer::new(
            Executor::new(&g, 7),
            BatcherConfig::new(2, SimTime::from_millis(1000)),
        )
        .expect("valid config");
        server.set_swap_guard(ActivationGuard {
            range_limit: Some(1e6),
        });
        // The poisoned artifact is internally consistent: the load gate
        // passes and the swap publishes.
        let n = server
            .swap_artifact(&poisoned_bytes(&g, 99))
            .expect("load gate passes");
        assert_eq!(n, 1);
        assert_eq!(server.generation(), 1);
        // First batch under the swap sentinel: violation → rollback → the
        // batch re-serves on generation 0. Nobody gets generation-1 logits.
        let mut done = Vec::new();
        done.extend(server.submit(0, input(1), SimTime::ZERO).completed);
        done.extend(server.submit(1, input(2), SimTime::ZERO).completed);
        done.extend(server.flush());
        assert_eq!(done.len(), 2);
        for c in &done {
            assert_eq!(c.generation, 0, "bad generation must serve nothing");
            assert_eq!(c.output, oracle.forward(&input(c.id + 1)));
        }
        assert_eq!(server.generation(), 0);
        let cell = server.weights_cell();
        assert_eq!((cell.swaps(), cell.rollbacks()), (1, 1));
        assert_eq!(cell.quarantined().len(), 1);
        assert_eq!(cell.quarantined()[0].0, 1, "generation 1 quarantined");
        // A later good swap gets a fresh number, never reusing 1.
        assert_eq!(
            server.swap_artifact(&artifact_bytes(&g, 4)).expect("clean"),
            2
        );
    }

    #[test]
    fn integrity_ladder_serves_clean_swapped_generations() {
        let g = tiny_graph();
        let after = swapped_oracle(&g, 99);
        let mut server = integrity_server(&g, FaultPlan::none(), DetectorConfig::full(1e6), 2);
        drive(&mut server, 4);
        assert_eq!(
            server
                .swap_artifact(&artifact_bytes(&g, 99))
                .expect("clean artifact loads"),
            1
        );
        let mut done = Vec::new();
        for id in 10..14u64 {
            done.extend(
                server
                    .submit(id, input(id + 1), SimTime::from_millis(id))
                    .completed,
            );
        }
        done.extend(server.flush());
        assert_eq!(done.len(), 4);
        for c in &done {
            assert_eq!(c.generation, 1);
            assert_eq!(
                c.output,
                after.forward(&input(c.id + 1)),
                "swapped generation serves its own logits"
            );
        }
        let stats = *server.integrity_stats().expect("integrity on");
        assert_eq!(
            stats.detected, 0,
            "a legitimate swap must not read as corruption: {stats:?}"
        );
        assert_eq!(stats.clean, stats.batches);
        assert_eq!(stats.escaped, 0);
        assert!(stats.conserved(), "{stats:?}");
    }

    #[test]
    fn integrity_ladder_rolls_back_a_poisoned_generation() {
        let g = tiny_graph();
        let oracle = Executor::new(&g, 7);
        let mut server = integrity_server(&g, FaultPlan::none(), DetectorConfig::full(1e6), 2);
        assert_eq!(
            server
                .swap_artifact(&poisoned_bytes(&g, 99))
                .expect("load gate passes"),
            1
        );
        let done = drive(&mut server, 4);
        assert_eq!(done.len(), 4, "rollback recovers the batch, nothing fails");
        for c in &done {
            assert_eq!(c.generation, 0, "bad generation must serve nothing");
            assert_eq!(c.output, oracle.forward(&input(c.id + 1)));
        }
        let stats = *server.integrity_stats().expect("integrity on");
        assert_eq!(stats.detected, 1, "sentinel fires once, on the first batch");
        assert_eq!(stats.recovered, 1, "retry on the rolled-back generation");
        assert_eq!(stats.quarantined, 0);
        assert_eq!(stats.escaped, 0);
        assert!(stats.conserved(), "{stats:?}");
        let cell = server.weights_cell();
        assert_eq!((cell.swaps(), cell.rollbacks()), (1, 1));
        assert_eq!(cell.quarantined()[0].0, 1, "generation 1 quarantined");
        assert!(!server.is_quarantined(), "the node itself stays healthy");
    }
}
