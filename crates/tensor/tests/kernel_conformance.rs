//! Differential kernel-conformance suite.
//!
//! Every GEMM variant ([`KernelVariant`] plus every autotunable
//! [`MicroShape`]) is driven against independent oracles across degenerate
//! and adversarial shapes — zeros, ones, odd primes, and dimensions sitting
//! just past a micro-kernel tile boundary (4/8/16/32/64 + 1) so the packed
//! edge-tile paths are always exercised.
//!
//! The contracts pinned here are the ones CI's fingerprint gates rely on:
//!
//! * The served `Scalar` kernel — AVX-512F register tiles on hosts that
//!   have AVX-512F, the blocked kernel everywhere else — is deterministic
//!   and **bit-identical** to the blocked oracle [`gemm_blocked`]: `gemm`
//!   and `gemm_bt` on tile-edge shapes with `-0.0` products, subnormals
//!   and ±Inf at pool widths 1 and default, and im2col convolution and
//!   attention against composites built on the oracle.
//! * Every FMA/AVX-512 micro-shape is **bit-identical** to the sequential
//!   [`gemm_fma_oracle`] chain — for every shape, tile edge, and thread
//!   split — which is what makes the tuned kernels safe to swap freely.
//! * Everything is elementwise within `1e-5·k` of the naive triple loop.
//! * The packed INT8 kernel is exactly the naive integer loop.

use harvest_tensor::gemm::{gemm, gemm_blocked, gemm_bt, gemm_naive};
use harvest_tensor::quant::{gemm_i8, gemm_i8_naive};
use harvest_tensor::tune;
use harvest_tensor::{
    conv2d, conv2d_v, gemm_bt_v, gemm_fma_oracle, gemm_v, gemm_with_shape, multi_head_attention,
    multi_head_attention_v, softmax_rows, KernelVariant,
};
use proptest::prelude::*;

/// Adversarial GEMM dimension: degenerate (0, 1), odd primes that never
/// divide a tile, and values one past each micro-tile boundary
/// (MR ∈ {3,4,6,8}, NR ∈ {8,16,24,32}, plus the served 4×64 tile).
fn adversarial_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(3usize),
        Just(5usize),
        Just(7usize),
        Just(9usize),
        Just(13usize),
        Just(17usize),
        Just(31usize),
        Just(33usize),
        Just(65usize),
        2usize..40,
    ]
}

fn vecf(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-1.0f32..1.0, len..=len)
}

fn veci8(len: usize) -> impl Strategy<Value = Vec<i8>> {
    proptest::collection::vec(any::<i8>(), len..=len)
}

/// `1e-5·k` elementwise tolerance from the issue contract (floored at one
/// k so degenerate products still get a nonzero budget).
fn tol(k: usize) -> f32 {
    1e-5 * k.max(1) as f32
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: idx {i}: {x} vs {y}");
    }
}

/// 3×3, stride 1, pad 1 convolution as im2col (rows ordered channel,
/// kernel row, kernel column — the served layout) times `gemm_blocked`,
/// one image at a time: the composite's blocked-oracle bits.
fn conv3x3_blocked_oracle(
    input: &[f32],
    weight: &[f32],
    imgs: usize,
    cin: usize,
    hw: usize,
    cout: usize,
) -> Vec<f32> {
    let spatial = hw * hw;
    let mut out = vec![0.0f32; imgs * cout * spatial];
    let mut col = vec![0.0f32; cin * 9 * spatial];
    for img in 0..imgs {
        let planes = &input[img * cin * spatial..(img + 1) * cin * spatial];
        for c in 0..cin {
            for ky in 0..3 {
                for kx in 0..3 {
                    let row = (c * 9 + ky * 3 + kx) * spatial;
                    for oy in 0..hw {
                        for ox in 0..hw {
                            let (iy, ix) = ((oy + ky) as isize - 1, (ox + kx) as isize - 1);
                            let inside =
                                (0..hw as isize).contains(&iy) && (0..hw as isize).contains(&ix);
                            col[row + oy * hw + ox] = if inside {
                                planes[c * spatial + iy as usize * hw + ix as usize]
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
        }
        let img_out = &mut out[img * cout * spatial..(img + 1) * cout * spatial];
        gemm_blocked(weight, &col, img_out, cout, cin * 9, spatial);
    }
    out
}

/// `x · wᵀ` with `w` stored `n×k`, through `gemm_blocked`.
fn bt_blocked(x: &[f32], w: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut b = vec![0.0f32; k * n];
    for j in 0..n {
        for p in 0..k {
            b[p * n + j] = w[j * k + p];
        }
    }
    let mut c = vec![0.0f32; m * n];
    gemm_blocked(x, &b, &mut c, m, k, n);
    c
}

/// Bias-free multi-head attention with every GEMM on `gemm_blocked`, in
/// the served op order (QKV, per-head scaled QKᵀ, softmax, ·V, output
/// projection): the composite's blocked-oracle bits.
fn attention_blocked_oracle(
    x: &[f32],
    s: usize,
    d: usize,
    heads: usize,
    w_qkv: &[f32],
    w_out: &[f32],
) -> Vec<f32> {
    let hd = d / heads;
    let scale = 1.0 / (hd as f32).sqrt();
    let qkv = bt_blocked(x, w_qkv, s, d, 3 * d);
    let mut heads_out = vec![0.0f32; s * d];
    for h in 0..heads {
        let part = |base: usize| -> Vec<f32> {
            (0..s)
                .flat_map(|r| qkv[r * 3 * d + base + h * hd..][..hd].to_vec())
                .collect()
        };
        let (q, k, v) = (part(0), part(d), part(2 * d));
        let mut scores = bt_blocked(&q, &k, s, hd, s);
        scores.iter_mut().for_each(|x| *x *= scale);
        softmax_rows(&mut scores, s);
        let mut out = vec![0.0f32; s * hd];
        gemm_blocked(&scores, &v, &mut out, s, s, hd);
        for r in 0..s {
            heads_out[r * d + h * hd..][..hd].copy_from_slice(&out[r * hd..][..hd]);
        }
    }
    bt_blocked(&heads_out, w_out, s, d, d)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every `KernelVariant` stays within the differential tolerance of the
    /// naive triple-loop oracle, on every adversarial shape.
    #[test]
    fn every_variant_tracks_the_naive_oracle(
        (m, k, n, a, b) in (adversarial_dim(), adversarial_dim(), adversarial_dim())
            .prop_flat_map(|(m, k, n)| (Just(m), Just(k), Just(n), vecf(m * k), vecf(k * n)))
    ) {
        let mut reference = vec![0.0f32; m * n];
        gemm_naive(&a, &b, &mut reference, m, k, n);
        for variant in KernelVariant::available() {
            let mut c = vec![f32::NAN; m * n];
            gemm_v(variant, &a, &b, &mut c, m, k, n);
            for (i, (r, v)) in reference.iter().zip(&c).enumerate() {
                prop_assert!(
                    (r - v).abs() <= tol(k),
                    "{}: idx {i}: |{r} - {v}| > {} (m={m} k={k} n={n})",
                    variant.name(), tol(k)
                );
            }
        }
    }

    /// Scalar is deterministic and is the blocked oracle's rounding: two
    /// runs of the served kernel and one of `gemm_blocked` produce the same
    /// bits.
    #[test]
    fn served_scalar_kernel_is_the_blocked_oracle(
        (m, k, n, a, b) in (adversarial_dim(), adversarial_dim(), adversarial_dim())
            .prop_flat_map(|(m, k, n)| (Just(m), Just(k), Just(n), vecf(m * k), vecf(k * n)))
    ) {
        let mut first = vec![0.0f32; m * n];
        let mut second = vec![f32::NAN; m * n];
        let mut oracle = vec![f32::NAN; m * n];
        gemm_v(KernelVariant::Scalar, &a, &b, &mut first, m, k, n);
        gemm_v(KernelVariant::Scalar, &a, &b, &mut second, m, k, n);
        gemm_blocked(&a, &b, &mut oracle, m, k, n);
        for (i, (x, y)) in first.iter().zip(&second).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "rerun idx {}: {} vs {}", i, x, y);
        }
        for (i, (x, y)) in oracle.iter().zip(&first).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "oracle idx {}: {} vs {}", i, x, y);
        }
    }

    /// Every micro-shape the autotuner may pick equals the sequential FMA
    /// oracle — so swapping the tuned shape can never change results.
    #[test]
    fn every_tunable_shape_honours_its_bit_contract(
        (m, k, n, a, b) in (adversarial_dim(), adversarial_dim(), adversarial_dim())
            .prop_flat_map(|(m, k, n)| (Just(m), Just(k), Just(n), vecf(m * k), vecf(k * n)))
    ) {
        let mut fma = vec![0.0f32; m * n];
        gemm_fma_oracle(&a, &b, &mut fma, m, k, n);
        for shape in tune::search_space() {
            let mut c = vec![f32::NAN; m * n];
            gemm_with_shape(shape, &a, &b, &mut c, m, k, n);
            for (i, (x, y)) in fma.iter().zip(&c).enumerate() {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "{} idx {}: {} vs {} (m={} k={} n={})",
                    shape.name(), i, x, y, m, k, n
                );
            }
        }
    }

    /// The packed INT8 kernel is *exact* integer arithmetic: every SIMD
    /// dispatch path must reproduce the naive i32 loop bit for bit, on
    /// full-range i8 inputs (including -128) and adversarial shapes.
    #[test]
    fn int8_kernel_is_exactly_the_naive_integer_loop(
        (m, k, n, a, b) in (adversarial_dim(), adversarial_dim(), adversarial_dim())
            .prop_flat_map(|(m, k, n)| (Just(m), Just(k), Just(n), veci8(m * k), veci8(k * n)))
    ) {
        let fast = gemm_i8(&a, &b, m, k, n);
        let slow = gemm_i8_naive(&a, &b, m, k, n);
        prop_assert_eq!(fast, slow, "m={} k={} n={}", m, k, n);
    }

    /// `gemm_bt_v` (the linear-layer layout) matches an explicit transpose
    /// followed by `gemm_v`, for every variant.
    #[test]
    fn gemm_bt_variants_match_explicit_transpose(
        (m, k, n, a, bt) in (adversarial_dim(), adversarial_dim(), adversarial_dim())
            .prop_flat_map(|(m, k, n)| (Just(m), Just(k), Just(n), vecf(m * k), vecf(n * k)))
    ) {
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        for variant in KernelVariant::available() {
            let mut c_bt = vec![f32::NAN; m * n];
            let mut c = vec![f32::NAN; m * n];
            gemm_bt_v(variant, &a, &bt, &mut c_bt, m, k, n);
            gemm_v(variant, &a, &b, &mut c, m, k, n);
            for (i, (x, y)) in c.iter().zip(&c_bt).enumerate() {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "{} idx {}: {} vs {}", variant.name(), i, x, y
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Composite kernels: the served conv/attention paths are bit-identical
    /// to the same composite built on the blocked oracle, and the Simd
    /// variant stays within the differential tolerance of them.
    #[test]
    fn conv_variants_agree_with_default_path(
        ((imgs, cin, cout, hw), input, weight) in (1usize..3, 1usize..4, 1usize..5, 3usize..10)
            .prop_flat_map(|dims| {
                let (imgs, cin, cout, hw) = dims;
                (Just(dims), vecf(imgs * cin * hw * hw), vecf(cout * cin * 9))
            })
    ) {
        let base = conv2d(&input, &weight, &[], imgs, cin, hw, hw, cout, 3, 1, 1);
        let oracle = conv3x3_blocked_oracle(&input, &weight, imgs, cin, hw, cout);
        assert_bits_eq(&oracle, &base, "conv vs blocked oracle");
        let simd = conv2d_v(
            KernelVariant::Simd, &input, &weight, &[], imgs, cin, hw, hw, cout, 3, 1, 1,
        );
        let k = cin * 9;
        for (i, (x, y)) in base.iter().zip(&simd).enumerate() {
            prop_assert!((x - y).abs() <= tol(k), "conv simd idx {i}: {x} vs {y}");
        }
    }

    #[test]
    fn attention_variants_agree_with_default_path(
        ((s, hd, heads), x, w_qkv, w_out) in (2usize..10, 1usize..3, 1usize..3)
            .prop_flat_map(|dims| {
                let (s, hd, heads) = dims;
                let d = hd * 8 * heads;
                (Just(dims), vecf(s * d), vecf(3 * d * d), vecf(d * d))
            })
    ) {
        let d = hd * 8 * heads;
        let w = harvest_tensor::attention::AttentionWeights {
            w_qkv: &w_qkv,
            b_qkv: &[],
            w_out: &w_out,
            b_out: &[],
        };
        let base = multi_head_attention(&x, s, d, heads, &w);
        let oracle = attention_blocked_oracle(&x, s, d, heads, &w_qkv, &w_out);
        assert_bits_eq(&oracle, &base, "attention vs blocked oracle");
        let simd = multi_head_attention_v(KernelVariant::Simd, &x, s, d, heads, &w);
        // Four chained GEMMs (QKV, QKᵀ, attn·V, out) plus softmax: give the
        // composite the summed per-GEMM budget over the largest k (= dim).
        let budget = 4.0 * tol(d) * 10.0;
        for (i, (a, b)) in base.iter().zip(&simd).enumerate() {
            prop_assert!((a - b).abs() <= budget, "attention simd idx {i}: {a} vs {b}");
        }
    }
}

/// Thread splits may not change a single bit, for any variant: each worker
/// owns a disjoint row block and the per-element accumulation order is
/// fixed (Scalar) or a full-k register chain (Simd).
#[test]
fn all_variants_are_bit_identical_across_thread_counts() {
    let (m, k, n) = (96, 70, 50);
    let a: Vec<f32> = (0..m * k)
        .map(|i| ((i * 37 % 113) as f32 / 113.0) - 0.5)
        .collect();
    let b: Vec<f32> = (0..k * n)
        .map(|i| ((i * 53 % 127) as f32 / 127.0) - 0.5)
        .collect();
    for variant in KernelVariant::available() {
        let run = |threads: usize| {
            harvest_threads::with_threads(threads, || {
                let mut c = vec![0.0f32; m * n];
                gemm_v(variant, &a, &b, &mut c, m, k, n);
                c
            })
        };
        let sequential = run(1);
        for threads in [2usize, 3, 8] {
            let pooled = run(threads);
            for (i, (x, y)) in sequential.iter().zip(&pooled).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{}: threads={threads} idx {i}: {x} vs {y}",
                    variant.name()
                );
            }
        }
    }
}

/// Autotuner artifact round-trip: tune, write the JSON artifact, reload it,
/// and get back exactly the shape that won (`None` on builds with nothing
/// to tune).
#[test]
fn tune_artifact_round_trips_through_disk() {
    let report = tune::tune(48, 1);
    assert_eq!(report.entries.len(), tune::search_space().len());
    let dir = std::env::temp_dir().join(format!("harvest-tune-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("TUNE.json");
    std::fs::write(&path, report.to_json()).unwrap();
    let loaded = tune::load_artifact(&path);
    assert_eq!(
        loaded, report.best,
        "reloaded shape differs from tuned best"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The `Simd` variant honours whatever shape the loaded artifact activates;
/// with no artifact it must still be a valid member of the search space —
/// or, where the space is empty, the default shape that falls back to
/// `Scalar`.
#[test]
fn active_shape_is_always_in_the_search_space() {
    let space = tune::search_space();
    let shape = tune::active_shape();
    assert!(space.contains(&shape) || (space.is_empty() && shape == tune::default_shape()));
}

/// Deterministic inputs in one of four flavours: uniform values, every
/// product `-0.0` (a kernel whose accumulator did not start at +0.0 would
/// return `-0.0`), subnormal inputs and products, and ±Inf sprinkled into
/// uniform values (Inf − Inf and 0 · Inf yield NaN; no input is NaN, so
/// every NaN is the hardware default and its bits are comparable).
fn flavoured(len: usize, seed: u64, flavour: usize, operand: usize) -> Vec<f32> {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..len)
        .map(|_| {
            let u = (next() as f32 / (1u64 << 31) as f32) * 2.0 - 1.0;
            match flavour {
                0 => u,
                1 if operand == 0 => -0.0,
                1 => u.abs() + 0.5,
                2 => match next() % 3 {
                    0 => f32::from_bits(1 + (next() as u32 & 0x7f_ffff)),
                    1 => -f32::from_bits(1 + (next() as u32 & 0x7f_ffff)),
                    _ => u * 1e-20,
                },
                _ => match next() % 61 {
                    0 => f32::INFINITY,
                    1 => f32::NEG_INFINITY,
                    _ => u,
                },
            }
        })
        .collect()
}

/// The served `Scalar` kernel (`gemm`, `gemm_bt`) is the blocked oracle bit
/// for bit on every shape in {0, 1, 3, 4, 5, 15, 16, 17, 63, 64, 65, 255,
/// 256, 257, 513}³ — empty, single and tile-edge rows and columns, and
/// k-group tails k % 4 = 1, 2, 3 — over all four input flavours, with the
/// pool forced sequential and at its default width.
#[test]
fn served_kernel_is_the_blocked_oracle_on_edge_shapes_and_special_values() {
    const DIMS: [usize; 15] = [0, 1, 3, 4, 5, 15, 16, 17, 63, 64, 65, 255, 256, 257, 513];
    let mut shape = 0usize;
    for m in DIMS {
        for k in DIMS {
            for n in DIMS {
                shape += 1;
                let flavour = shape % 4;
                let a = flavoured(m * k, shape as u64, flavour, 0);
                let b = flavoured(k * n, !(shape as u64), flavour, 1);
                let mut oracle = vec![f32::NAN; m * n];
                gemm_blocked(&a, &b, &mut oracle, m, k, n);
                let mut b_t = vec![0.0f32; n * k];
                for p in 0..k {
                    for j in 0..n {
                        b_t[j * k + p] = b[p * n + j];
                    }
                }
                for width in [Some(1), None] {
                    let run = |f: &dyn Fn(&mut [f32])| {
                        let mut c = vec![f32::NAN; m * n];
                        match width {
                            Some(t) => harvest_threads::with_threads(t, || f(&mut c)),
                            None => f(&mut c),
                        }
                        c
                    };
                    let served = run(&|c| gemm(&a, &b, c, m, k, n));
                    let served_bt = run(&|c| gemm_bt(&a, &b_t, c, m, k, n));
                    for (what, c) in [("gemm", &served), ("gemm_bt", &served_bt)] {
                        for (i, (x, y)) in oracle.iter().zip(c).enumerate() {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "{what} ({m},{k},{n}) flavour {flavour} threads {width:?} \
                                 idx {i}: oracle {x} vs served {y}"
                            );
                        }
                    }
                }
            }
        }
    }
}
