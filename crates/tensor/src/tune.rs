//! Micro-kernel autotuner for the `Simd` GEMM variant.
//!
//! Different hosts favor different register-tile shapes (wider tiles win
//! when more vector registers are architecturally visible; taller tiles
//! win when broadcast latency dominates). Rather than hard-coding one
//! shape, [`tune`] times every candidate in [`search_space`] on a square
//! GEMM and reports the winner; `experiments tune` caches the result in
//! `artifacts/TUNE.json`, which the bench harness reloads on startup via
//! [`load_artifact`] + [`set_active_shape`].
//!
//! **Timing is nondeterministic; bits are not.** Every shape produces the
//! same output bits for every element (a full-k sequential fma chain — see
//! [`crate::kernel::gemm_fma_oracle`]), so a noisy tuner can pick a
//! different shape on different days without perturbing any pinned
//! fingerprint. That invariant is what lets CI demand byte-identical bench
//! reruns while the tuner stays timing-based.
//!
//! On builds without the `simd` feature (or hosts without AVX2+FMA) the
//! search space is empty: the tuner still runs and still round-trips its
//! artifact (`"best": null`), it just has nothing to choose between, and
//! the `Simd` variant serves the `Scalar` contract instead.

use crate::kernel;
use std::sync::RwLock;
use std::time::Instant;

/// A candidate micro-kernel shape for the `Simd` GEMM variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MicroShape {
    /// AVX2+FMA register tile of `mr` rows × `nrv` 8-lane vectors.
    Fma {
        /// Rows of C per register tile.
        mr: usize,
        /// 8-lane column vectors of C per register tile.
        nrv: usize,
    },
    /// AVX512F 8×32 register tile.
    Avx512,
}

impl MicroShape {
    /// Stable artifact/CLI name, e.g. `avx2_6x16`, `avx512_8x32`.
    pub fn name(self) -> String {
        match self {
            MicroShape::Fma { mr, nrv } => format!("avx2_{mr}x{}", nrv * 8),
            MicroShape::Avx512 => "avx512_8x32".to_string(),
        }
    }

    /// Inverse of [`MicroShape::name`].
    pub fn parse(s: &str) -> Option<MicroShape> {
        if s == "avx512_8x32" {
            return Some(MicroShape::Avx512);
        }
        let rest = s.strip_prefix("avx2_")?;
        let (mr, nr) = rest.split_once('x')?;
        let (mr, nr) = (mr.parse::<usize>().ok()?, nr.parse::<usize>().ok()?);
        if nr == 0 || !nr.is_multiple_of(8) {
            return None;
        }
        Some(MicroShape::Fma { mr, nrv: nr / 8 })
    }
}

/// Candidate shapes runnable on this build + host (empty without the
/// `simd` feature or AVX2+FMA). AVX2 shapes cover the register-budget
/// frontier (mr·nrv ≤ 12 of 16 ymm registers, leaving room for B vectors
/// and the broadcast).
pub fn search_space() -> Vec<MicroShape> {
    let mut space = Vec::new();
    if kernel::KernelVariant::simd_supported() {
        for (mr, nrv) in [(3, 4), (4, 2), (4, 3), (6, 2), (8, 1)] {
            space.push(MicroShape::Fma { mr, nrv });
        }
        if kernel::avx512_supported() {
            space.push(MicroShape::Avx512);
        }
    }
    space
}

/// The shape [`active_shape`] falls back to before any tuning ran: the
/// widest unit the host supports (a good prior — the tuner exists to beat
/// it, not to be required for correctness). On builds or hosts that cannot
/// run either, [`kernel::gemm_with_shape`] serves it as `Scalar`.
pub fn default_shape() -> MicroShape {
    if kernel::avx512_supported() {
        MicroShape::Avx512
    } else {
        MicroShape::Fma { mr: 6, nrv: 2 }
    }
}

static ACTIVE: RwLock<Option<MicroShape>> = RwLock::new(None);

/// Shape the `Simd` variant dispatches to right now.
pub fn active_shape() -> MicroShape {
    ACTIVE
        .read()
        .ok()
        .and_then(|g| *g)
        .unwrap_or_else(default_shape)
}

/// Install a tuned (or loaded) shape process-wide.
pub fn set_active_shape(shape: MicroShape) {
    if let Ok(mut g) = ACTIVE.write() {
        *g = Some(shape);
    }
}

/// One timed candidate.
#[derive(Clone, Debug)]
pub struct TuneEntry {
    /// The shape that was timed.
    pub shape: MicroShape,
    /// Best-of-`reps` throughput.
    pub gflops: f64,
}

/// Result of one tuning run.
#[derive(Clone, Debug)]
pub struct TuneReport {
    /// Square GEMM edge length timed.
    pub size: usize,
    /// Repetitions per candidate (best is kept).
    pub reps: usize,
    /// All candidates with their throughput, in search-space order.
    pub entries: Vec<TuneEntry>,
    /// The winning shape; `None` when the search space is empty.
    pub best: Option<MicroShape>,
}

/// Time every candidate in [`search_space`] on a `size³` GEMM (best of
/// `reps`) and return the ranking. Does **not** install the winner; call
/// [`set_active_shape`] with `report.best` for that.
pub fn tune(size: usize, reps: usize) -> TuneReport {
    assert!(size > 0 && reps > 0);
    let a = deterministic_input(size * size, 0x5eed_0001);
    let b = deterministic_input(size * size, 0x5eed_0002);
    let mut c = vec![0.0f32; size * size];
    let flops = 2.0 * (size as f64).powi(3);
    let mut entries = Vec::new();
    for shape in search_space() {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            kernel::gemm_with_shape(shape, &a, &b, &mut c, size, size, size);
            best = best.min(t.elapsed().as_secs_f64());
        }
        entries.push(TuneEntry {
            shape,
            gflops: flops / best / 1e9,
        });
    }
    let best = entries
        .iter()
        .max_by(|x, y| x.gflops.total_cmp(&y.gflops))
        .map(|e| e.shape);
    TuneReport {
        size,
        reps,
        entries,
        best,
    }
}

impl TuneReport {
    /// Render the artifact JSON (pretty, deterministic key order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"size\": {},\n", self.size));
        out.push_str(&format!("  \"reps\": {},\n", self.reps));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"gflops\": {:.2}}}{}\n",
                e.shape.name(),
                e.gflops,
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        match self.best {
            Some(best) => out.push_str(&format!("  \"best\": \"{}\"\n}}\n", best.name())),
            None => out.push_str("  \"best\": null\n}\n"),
        }
        out
    }
}

/// Extract the winning shape from artifact text (the `"best"` field);
/// `None` when it is `null` or unparseable.
pub fn parse_artifact(text: &str) -> Option<MicroShape> {
    let idx = text.find("\"best\"")?;
    let rest = &text[idx + "\"best\"".len()..];
    let start = rest.find('"')? + 1;
    let end = start + rest[start..].find('"')?;
    MicroShape::parse(&rest[start..end])
}

/// Load a cached tuning artifact; `None` when missing or unparseable (the
/// caller falls back to [`default_shape`]).
pub fn load_artifact(path: &std::path::Path) -> Option<MicroShape> {
    parse_artifact(&std::fs::read_to_string(path).ok()?)
}

fn deterministic_input(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_names_round_trip() {
        for shape in search_space() {
            assert_eq!(MicroShape::parse(&shape.name()), Some(shape));
        }
        // Shapes beyond this host's search space still round-trip.
        for s in ["avx2_6x16", "avx2_3x32", "avx512_8x32"] {
            assert_eq!(MicroShape::parse(s).map(|m| m.name()).as_deref(), Some(s));
        }
        assert_eq!(MicroShape::parse("avx2_6x7"), None);
        assert_eq!(MicroShape::parse("neon_2x2"), None);
        assert_eq!(MicroShape::parse("unrolled"), None);
    }

    #[test]
    fn artifact_round_trips_through_json() {
        let report = tune(48, 1);
        let json = report.to_json();
        assert_eq!(parse_artifact(&json), report.best);
    }

    #[test]
    fn active_shape_defaults_then_overrides() {
        // Default before any set; override; restore (test order safety).
        let shape = active_shape();
        assert!(search_space().contains(&shape) || shape == default_shape());
        let other = MicroShape::Fma { mr: 3, nrv: 4 };
        set_active_shape(other);
        assert_eq!(active_shape(), other);
        set_active_shape(default_shape());
    }

    #[test]
    fn tune_ranks_every_candidate() {
        let report = tune(32, 1);
        assert_eq!(report.entries.len(), search_space().len());
        assert!(report.entries.iter().all(|e| e.gflops > 0.0));
        assert_eq!(report.best.is_some(), !search_space().is_empty());
        assert!(report.best.is_none_or(|b| search_space().contains(&b)));
    }
}
