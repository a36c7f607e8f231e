//! The output checker: every answered class against the in-process
//! expectation, every server ledger against the client's own count, and
//! the generator's own lateness. Any finding fails the run.

use crate::client::{json_str, json_u64, Op, Sample};
use harvest_net::DrainReport;
use std::collections::BTreeMap;

/// Expected classes per weight generation the server reported.
#[derive(Default)]
pub struct Expected {
    /// Weight seed -> expected class per pool body.
    by_seed: BTreeMap<u64, Vec<usize>>,
    /// Artifact index -> (weight seed, fingerprint the server must report).
    artifacts: Vec<(u64, u64)>,
}

impl Expected {
    pub fn new(boot_seed: u64, boot_classes: Vec<usize>) -> Expected {
        let mut e = Expected::default();
        e.by_seed.insert(boot_seed, boot_classes);
        e
    }

    pub fn add_artifact(
        &mut self,
        weight_seed: u64,
        fingerprint: u64,
        classes: Option<Vec<usize>>,
    ) {
        self.artifacts.push((weight_seed, fingerprint));
        if let Some(c) = classes {
            self.by_seed.insert(weight_seed, c);
        }
    }
}

/// Responses one server gave, by status class, as the client saw them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub refused: u64,
    pub error: u64,
    pub transport: u64,
}

impl Tally {
    pub fn add(&mut self, status: u16) {
        self.sent += 1;
        match status {
            200..=299 => self.ok += 1,
            503 => self.refused += 1,
            0 => self.transport += 1,
            _ => self.error += 1,
        }
    }

    pub fn failed(&self) -> u64 {
        self.sent - self.ok
    }
}

#[derive(Default)]
pub struct Checker {
    pub findings: Vec<String>,
    pub wrong_classes: u64,
    /// Wrongly classified plus non-2xx requests, across all phases.
    pub failed: u64,
    pub attempted: u64,
}

impl Checker {
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }

    /// Check every answer of one server's phases. Swap answers come first
    /// so each classify can be matched to the weights of the generation
    /// it names, whichever connection reported that generation first.
    pub fn check_samples(&mut self, samples: &[Sample], expected: &Expected, boot_seed: u64) {
        let mut gen_seed: BTreeMap<u64, u64> = BTreeMap::from([(0, boot_seed)]);
        for s in samples.iter().filter(|s| s.status == 200) {
            if let Op::Swap(i) = s.op {
                let (seed, fp) = expected.artifacts[i];
                let g = json_u64(&s.body, "generation");
                let reported = json_str(&s.body, "fingerprint");
                if reported != Some(format!("{fp:#018x}").as_str()) || g.is_none() {
                    self.findings
                        .push(format!("swap of artifact {i} answered {}", s.body));
                }
                if let Some(g) = g {
                    gen_seed.insert(g, seed);
                }
            }
        }
        for s in samples {
            self.attempted += 1;
            if s.status != 200 {
                self.failed += 1;
                continue;
            }
            let Op::Classify(body) = s.op else { continue };
            let class = json_u64(&s.body, "class");
            let want = json_u64(&s.body, "generation")
                .and_then(|g| gen_seed.get(&g))
                .and_then(|seed| expected.by_seed.get(seed))
                .map(|classes| classes[body] as u64);
            if class.is_none() || class != want {
                self.wrong_classes += 1;
                self.failed += 1;
                if self.wrong_classes <= 3 {
                    self.findings.push(format!(
                        "body {body}: answered {} but expected class {want:?}",
                        s.body
                    ));
                }
            }
        }
    }

    /// After `shutdown()`: the server's ledger must balance, every thread
    /// must have joined, and the server must have answered exactly what the
    /// client received.
    pub fn check_ledger(&mut self, report: &DrainReport, accept_threads: usize, client: &Tally) {
        let s = &report.stats;
        if !s.conserved() {
            self.findings
                .push(format!("server ledger does not balance: {s:?}"));
        }
        if report.threads_joined != accept_threads + 1 {
            self.findings.push(format!(
                "{} of {} server threads joined",
                report.threads_joined,
                accept_threads + 1
            ));
        }
        let answered = client.sent - client.transport;
        if s.accepted != answered
            || s.responded_ok != client.ok
            || s.rejected + s.shed != client.refused
            || s.responded_error != client.error
        {
            self.findings.push(format!(
                "server ledger {s:?} disagrees with client tally {client:?}"
            ));
        }
    }

    /// A run is invalid when the generator's own p99 lateness reaches the
    /// schedule's mean gap: it then ran a whole arrival behind, and the
    /// offered load was no longer the schedule's.
    pub fn check_lag(&mut self, phase: &str, lag_p99_ms: f64, rate_rps: f64) {
        let gap_ms = 1e3 / rate_rps;
        if lag_p99_ms >= gap_ms {
            self.findings.push(format!(
                "invalid run: generator ran {lag_p99_ms:.2} ms late (p99) in {phase}, past the {gap_ms:.2} ms gap"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_net::WireSnapshot;
    use std::time::Duration;

    fn classify(body: usize, answer: &str) -> Sample {
        Sample {
            op: Op::Classify(body),
            due: Duration::ZERO,
            lag: Duration::ZERO,
            done: Duration::from_millis(1),
            status: 200,
            body: answer.to_string(),
        }
    }

    fn snapshot(accepted: u64, ok: u64) -> WireSnapshot {
        WireSnapshot {
            connections: 1,
            accepted,
            responded_ok: ok,
            responded_error: 0,
            rejected: 0,
            shed: 0,
            bad_requests: 0,
            incomplete: 0,
            timeouts: 0,
            idle_closes: 0,
            write_failures: 0,
            breaker_open: 0,
            degraded_ok: 0,
        }
    }

    #[test]
    fn right_classes_pass_and_a_wrong_class_fails() {
        let expected = Expected::new(7, vec![2, 0]);
        let mut good = Checker::default();
        good.check_samples(
            &[
                classify(
                    0,
                    r#"{"class":2,"batch":1,"degraded":false,"generation":0}"#,
                ),
                classify(
                    1,
                    r#"{"class":0,"batch":1,"degraded":false,"generation":0}"#,
                ),
            ],
            &expected,
            7,
        );
        assert!(good.ok(), "{:?}", good.findings);
        let mut bad = Checker::default();
        bad.check_samples(
            &[classify(
                1,
                r#"{"class":1,"batch":1,"degraded":false,"generation":0}"#,
            )],
            &expected,
            7,
        );
        assert!(!bad.ok());
        assert_eq!((bad.wrong_classes, bad.failed), (1, 1));
    }

    #[test]
    fn a_class_from_an_unknown_generation_fails() {
        let expected = Expected::new(7, vec![2]);
        let mut c = Checker::default();
        c.check_samples(
            &[classify(
                0,
                r#"{"class":2,"batch":1,"degraded":false,"generation":3}"#,
            )],
            &expected,
            7,
        );
        assert!(!c.ok());
    }

    #[test]
    fn swapped_generations_are_checked_against_their_own_weights() {
        let mut expected = Expected::new(7, vec![2]);
        expected.add_artifact(99, 0xab, Some(vec![5]));
        let swap = Sample {
            op: Op::Swap(0),
            body: format!(r#"{{"generation":1,"fingerprint":"{:#018x}"}}"#, 0xab),
            ..classify(0, "")
        };
        let mut c = Checker::default();
        c.check_samples(
            &[
                classify(
                    0,
                    r#"{"class":5,"batch":1,"degraded":false,"generation":1}"#,
                ),
                swap,
                classify(
                    0,
                    r#"{"class":2,"batch":1,"degraded":false,"generation":0}"#,
                ),
            ],
            &expected,
            7,
        );
        assert!(c.ok(), "{:?}", c.findings);
    }

    #[test]
    fn an_unbalanced_ledger_fails() {
        let tally = Tally {
            sent: 4,
            ok: 4,
            ..Tally::default()
        };
        let balanced = DrainReport {
            stats: snapshot(4, 4),
            threads_joined: 5,
        };
        let mut good = Checker::default();
        good.check_ledger(&balanced, 4, &tally);
        assert!(good.ok(), "{:?}", good.findings);

        for report in [
            DrainReport {
                stats: snapshot(5, 4),
                threads_joined: 5,
            },
            DrainReport {
                stats: snapshot(4, 4),
                threads_joined: 4,
            },
            DrainReport {
                stats: snapshot(3, 3),
                threads_joined: 5,
            },
        ] {
            let mut bad = Checker::default();
            bad.check_ledger(&report, 4, &tally);
            assert!(!bad.ok(), "{report:?} passed");
        }
    }

    #[test]
    fn a_late_generator_invalidates_the_run() {
        let mut c = Checker::default();
        c.check_lag("open-loop", 0.4, 100.0);
        assert!(c.ok());
        c.check_lag("open-loop", 10.5, 100.0);
        assert!(!c.ok());
    }
}
