//! Property-based tests for the tensor kernels.

use harvest_tensor::conv::conv_out_dim;
use harvest_tensor::gemm::{gemm, gemm_blocked, gemm_bt, gemm_naive};
use harvest_tensor::{
    chw_to_hwc_u8, conv2d, hwc_u8_to_chw, layernorm, perspective_warp, resize_bilinear,
    softmax_rows, Homography,
};
use proptest::prelude::*;

fn small_dim() -> impl Strategy<Value = usize> {
    1usize..24
}

/// Dimension that may be zero — degenerate GEMMs must not panic and must
/// produce (empty or zero-filled) outputs matching the naive oracle.
fn dim0() -> impl Strategy<Value = usize> {
    0usize..16
}

/// Direct-loop convolution oracle: the obvious quadruple loop with the same
/// zero-padding convention as the im2col path. Deliberately shares no code
/// with `conv2d`.
#[allow(clippy::too_many_arguments)]
fn conv2d_naive(
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    n: usize,
    cin: usize,
    h: usize,
    w: usize,
    cout: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let oh = conv_out_dim(h, kernel, stride, pad);
    let ow = conv_out_dim(w, kernel, stride, pad);
    let mut out = vec![0.0f32; n * cout * oh * ow];
    for img in 0..n {
        for co in 0..cout {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = if bias.is_empty() { 0.0 } else { bias[co] };
                    for ci in 0..cin {
                        for ky in 0..kernel {
                            for kx in 0..kernel {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let iv =
                                    input[((img * cin + ci) * h + iy as usize) * w + ix as usize];
                                let wv = weight[((co * cin + ci) * kernel + ky) * kernel + kx];
                                acc += iv * wv;
                            }
                        }
                    }
                    out[((img * cout + co) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    out
}

fn vecf(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len..=len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_gemm_equals_naive(
        (m, k, n, a, b) in (small_dim(), small_dim(), small_dim()).prop_flat_map(|(m, k, n)| {
            (Just(m), Just(k), Just(n), vecf(m * k), vecf(k * n))
        })
    ) {
        let mut c_ref = vec![0.0f32; m * n];
        let mut c_blk = vec![0.0f32; m * n];
        gemm_naive(&a, &b, &mut c_ref, m, k, n);
        gemm_blocked(&a, &b, &mut c_blk, m, k, n);
        for (x, y) in c_ref.iter().zip(&c_blk) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn parallel_gemm_equals_naive(
        (m, k, n, a, b) in (small_dim(), small_dim(), small_dim()).prop_flat_map(|(m, k, n)| {
            (Just(m), Just(k), Just(n), vecf(m * k), vecf(k * n))
        })
    ) {
        let mut c_ref = vec![0.0f32; m * n];
        let mut c_par = vec![0.0f32; m * n];
        let mut c_blk = vec![0.0f32; m * n];
        gemm_naive(&a, &b, &mut c_ref, m, k, n);
        gemm(&a, &b, &mut c_par, m, k, n);
        gemm_blocked(&a, &b, &mut c_blk, m, k, n);
        for (x, y) in c_ref.iter().zip(&c_par) {
            prop_assert!((x - y).abs() < 1e-3);
        }
        // The served kernel (AVX-512 tiles where the host has them) keeps
        // the blocked oracle's rounding exactly.
        for (x, y) in c_blk.iter().zip(&c_par) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "gemm {} vs blocked {}", y, x);
        }
    }

    #[test]
    fn gemm_bt_equals_naive_with_transpose(
        (m, k, n, a, bt) in (small_dim(), small_dim(), small_dim()).prop_flat_map(|(m, k, n)| {
            (Just(m), Just(k), Just(n), vecf(m * k), vecf(n * k))
        })
    ) {
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let mut c_ref = vec![0.0f32; m * n];
        let mut c_bt = vec![0.0f32; m * n];
        gemm_naive(&a, &b, &mut c_ref, m, k, n);
        gemm_bt(&a, &bt, &mut c_bt, m, k, n);
        for (x, y) in c_ref.iter().zip(&c_bt) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn softmax_rows_are_distributions(
        (rows, cols, x) in (1usize..8, 1usize..16).prop_flat_map(|(r, c)| {
            (Just(r), Just(c), vecf(r * c))
        })
    ) {
        let mut data = x;
        softmax_rows(&mut data, cols);
        let _ = rows;
        for row in data.chunks(cols) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row sums to {sum}");
            prop_assert!(row.iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
        }
    }

    #[test]
    fn layernorm_output_has_zero_mean_unit_var(
        (rows, d, x) in (1usize..6, 2usize..32).prop_flat_map(|(r, d)| {
            (Just(r), Just(d), vecf(r * d))
        })
    ) {
        // Skip degenerate constant rows (variance ~ 0 under eps).
        let mut data = x;
        let gamma = vec![1.0f32; d];
        let beta = vec![0.0f32; d];
        layernorm(&mut data, d, &gamma, &beta, 1e-6);
        let _ = rows;
        for row in data.chunks(d) {
            let mean: f32 = row.iter().sum::<f32>() / d as f32;
            prop_assert!(mean.abs() < 1e-3, "mean {mean}");
        }
    }

    #[test]
    fn resize_stays_within_input_range(
        (h, w, oh, ow, x) in (1usize..16, 1usize..16, 1usize..24, 1usize..24)
            .prop_flat_map(|(h, w, oh, ow)| {
                (Just(h), Just(w), Just(oh), Just(ow), vecf(h * w))
            })
    ) {
        let out = resize_bilinear(&x, 1, h, w, oh, ow);
        prop_assert_eq!(out.len(), oh * ow);
        let lo = x.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        for &v in &out {
            prop_assert!(v >= lo - 1e-4 && v <= hi + 1e-4, "{v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn warp_preserves_range_with_zero_fill(
        (h, w, x) in (2usize..16, 2usize..16).prop_flat_map(|(h, w)| {
            (Just(h), Just(w), proptest::collection::vec(0.0f32..1.0, h * w))
        })
    ) {
        let hmg = Homography::ground_vehicle_tilt(0.4, h);
        let out = perspective_warp(&x, 1, h, w, h, w, &hmg);
        for &v in &out {
            prop_assert!((0.0..=1.0 + 1e-5).contains(&v));
        }
    }

    #[test]
    fn quantize_dequantize_error_bounded_by_half_step(
        data in proptest::collection::vec(-100.0f32..100.0, 1..256)
    ) {
        use harvest_tensor::quant::{dequantize, quantize_symmetric};
        let q = quantize_symmetric(&data);
        let back = dequantize(&q);
        for (orig, deq) in data.iter().zip(&back) {
            prop_assert!((orig - deq).abs() <= q.scale * 0.5 + 1e-6);
        }
    }

    #[test]
    fn quantized_gemm_tracks_reference(
        (m, k, n, a, b) in (1usize..12, 4usize..48, 1usize..12).prop_flat_map(|(m, k, n)| {
            (Just(m), Just(k), Just(n),
             proptest::collection::vec(-1.0f32..1.0, m * k),
             proptest::collection::vec(-1.0f32..1.0, k * n))
        })
    ) {
        use harvest_tensor::quant::{quantize_symmetric, quantized_gemm};
        let mut reference = vec![0.0f32; m * n];
        gemm_naive(&a, &b, &mut reference, m, k, n);
        let approx = quantized_gemm(&a, &b, m, k, n);
        // Relative error is unbounded on near-cancelling dot products, so
        // the sound property is the absolute elementwise bound implied by
        // symmetric quantization: each term errs by at most
        // max|a|·sb/2 + max|b|·sa/2 + sa·sb/4, and a dot product sums k
        // such terms.
        let sa = quantize_symmetric(&a).scale as f64;
        let sb = quantize_symmetric(&b).scale as f64;
        let max_a = a.iter().fold(0.0f64, |m, &v| m.max(v.abs() as f64));
        let max_b = b.iter().fold(0.0f64, |m, &v| m.max(v.abs() as f64));
        let per_term = max_a * sb / 2.0 + max_b * sa / 2.0 + sa * sb / 4.0;
        let bound = k as f64 * per_term + 1e-5;
        for (r, x) in reference.iter().zip(&approx) {
            prop_assert!(
                ((r - x) as f64).abs() <= bound,
                "|{r} - {x}| > bound {bound} at k={k}"
            );
        }
    }

    #[test]
    fn gemm_tiers_agree_on_degenerate_shapes(
        (m, k, n, a, b) in (dim0(), dim0(), dim0()).prop_flat_map(|(m, k, n)| {
            (Just(m), Just(k), Just(n), vecf(m * k), vecf(k * n))
        })
    ) {
        // Any of m, k, n may be zero: every tier must agree with the naive
        // oracle (k = 0 means an empty sum, i.e. an all-zero output) and
        // none may panic.
        let mut c_ref = vec![0.0f32; m * n];
        let mut c_blk = vec![0.0f32; m * n];
        let mut c_par = vec![0.0f32; m * n];
        gemm_naive(&a, &b, &mut c_ref, m, k, n);
        gemm_blocked(&a, &b, &mut c_blk, m, k, n);
        gemm(&a, &b, &mut c_par, m, k, n);
        for (x, y) in c_ref.iter().zip(&c_blk) {
            prop_assert!((x - y).abs() < 1e-3, "blocked {x} vs {y}");
        }
        for (x, y) in c_ref.iter().zip(&c_par) {
            prop_assert!((x - y).abs() < 1e-3, "parallel {x} vs {y}");
        }
        for (x, y) in c_blk.iter().zip(&c_par) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "gemm {} vs blocked {}", y, x);
        }
    }

    #[test]
    fn gemm_bt_handles_degenerate_shapes(
        (m, k, n, a, bt) in (dim0(), dim0(), dim0()).prop_flat_map(|(m, k, n)| {
            (Just(m), Just(k), Just(n), vecf(m * k), vecf(n * k))
        })
    ) {
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let mut c_ref = vec![0.0f32; m * n];
        let mut c_bt = vec![0.0f32; m * n];
        gemm_naive(&a, &b, &mut c_ref, m, k, n);
        gemm_bt(&a, &bt, &mut c_bt, m, k, n);
        for (x, y) in c_ref.iter().zip(&c_bt) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn quantized_gemm_survives_degenerate_shapes(
        (m, k, n, a, b) in (dim0(), dim0(), dim0()).prop_flat_map(|(m, k, n)| {
            (Just(m), Just(k), Just(n), vecf(m * k), vecf(k * n))
        })
    ) {
        use harvest_tensor::quant::quantized_gemm;
        let out = quantized_gemm(&a, &b, m, k, n);
        prop_assert_eq!(out.len(), m * n);
        if k == 0 {
            prop_assert!(out.iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn im2col_conv_equals_direct_loop_oracle(
        ((n, cin, cout, h, w, kernel, stride, pad), input, weight, bias)
            in (1usize..3, 1usize..4, 0usize..4, 1usize..10, 1usize..10, 1usize..4, 1usize..3, 0usize..3)
                .prop_flat_map(|dims| {
                    let (n, cin, cout, h, w, kernel, _, _) = dims;
                    (
                        Just(dims),
                        vecf(n * cin * h * w),
                        vecf(cout * cin * kernel * kernel),
                        prop_oneof![Just(Vec::new()), proptest::collection::vec(-2.0f32..2.0, cout..=cout)],
                    )
                })
    ) {
        // Includes kernels larger than the (padded) image and cout = 0 —
        // both must match the direct-loop oracle under the same
        // zero-padding convention, not panic.
        let fast = conv2d(&input, &weight, &bias, n, cin, h, w, cout, kernel, stride, pad);
        let slow = conv2d_naive(&input, &weight, &bias, n, cin, h, w, cout, kernel, stride, pad);
        prop_assert_eq!(fast.len(), slow.len());
        for (x, y) in fast.iter().zip(&slow) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn hwc_chw_roundtrip_is_exact(
        (h, w, pixels) in (1usize..12, 1usize..12).prop_flat_map(|(h, w)| {
            (Just(h), Just(w), proptest::collection::vec(any::<u8>(), h * w * 3))
        })
    ) {
        let chw = hwc_u8_to_chw(&pixels, h, w, 3);
        let back = chw_to_hwc_u8(&chw, h, w, 3);
        prop_assert_eq!(back, pixels);
    }
}

// --- thread-count determinism ----------------------------------------------
//
// The harvest-threads pool promises bit-identical results at every width:
// each task owns a disjoint output region with a fixed per-element
// accumulation order, so scheduling can move wall time but never bytes.
// These properties drive the kernels at widths {1, 2, 4} over shapes big
// enough to actually cross the parallel thresholds.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn gemm_is_bit_identical_across_thread_counts(
        (m, k, n, a, b) in (64usize..144, 48usize..112, 48usize..112).prop_flat_map(|(m, k, n)| {
            (Just(m), Just(k), Just(n), vecf(m * k), vecf(k * n))
        })
    ) {
        let run = |threads: usize| {
            harvest_threads::with_threads(threads, || {
                let mut c = vec![0.0f32; m * n];
                gemm(&a, &b, &mut c, m, k, n);
                c
            })
        };
        let sequential = run(1);
        for threads in [2usize, 4] {
            let pooled = run(threads);
            for (i, (x, y)) in sequential.iter().zip(&pooled).enumerate() {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "threads={} idx {}: {} vs {}", threads, i, x, y
                );
            }
        }
    }

    #[test]
    fn gemm_bt_is_bitwise_the_packed_gemm(
        (m, k, n, a, bt) in (1usize..48, 1usize..48, 1usize..48).prop_flat_map(|(m, k, n)| {
            (Just(m), Just(k), Just(n), vecf(m * k), vecf(n * k))
        })
    ) {
        // The transposed-weight entry point packs and reuses the blocked
        // kernel; its bits must equal an explicit transpose + gemm.
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let mut c_gemm = vec![0.0f32; m * n];
        let mut c_bt = vec![0.0f32; m * n];
        gemm(&a, &b, &mut c_gemm, m, k, n);
        gemm_bt(&a, &bt, &mut c_bt, m, k, n);
        for (x, y) in c_gemm.iter().zip(&c_bt) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn conv2d_is_bit_identical_across_thread_counts(
        (imgs, cin, cout, hw, input, weight) in
            (2usize..5, 1usize..5, 1usize..5, 6usize..14).prop_flat_map(|(imgs, cin, cout, hw)| {
                (
                    Just(imgs), Just(cin), Just(cout), Just(hw),
                    vecf(imgs * cin * hw * hw), vecf(cout * cin * 9),
                )
            })
    ) {
        let run = |threads: usize| {
            harvest_threads::with_threads(threads, || {
                conv2d(&input, &weight, &[], imgs, cin, hw, hw, cout, 3, 1, 1)
            })
        };
        let sequential = run(1);
        for threads in [2usize, 4] {
            let pooled = run(threads);
            for (x, y) in sequential.iter().zip(&pooled) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "threads={}", threads);
            }
        }
    }

    #[test]
    fn attention_is_bit_identical_across_thread_counts(
        (s, hd, heads, x, w_qkv, b_qkv, w_out, b_out) in
            (2usize..18, 1usize..5, 1usize..5).prop_flat_map(|(s, hd_x8, heads)| {
                let d = hd_x8 * 8 * heads;
                (
                    Just(s), Just(hd_x8 * 8), Just(heads),
                    vecf(s * d), vecf(3 * d * d), vecf(3 * d), vecf(d * d), vecf(d),
                )
            })
    ) {
        let d = hd * heads;
        let weights = harvest_tensor::attention::AttentionWeights {
            w_qkv: &w_qkv,
            b_qkv: &b_qkv,
            w_out: &w_out,
            b_out: &b_out,
        };
        let run = |threads: usize| {
            harvest_threads::with_threads(threads, || {
                harvest_tensor::multi_head_attention(&x, s, d, heads, &weights)
            })
        };
        let sequential = run(1);
        for threads in [2usize, 4] {
            let pooled = run(threads);
            for (a, b) in sequential.iter().zip(&pooled) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "threads={}", threads);
            }
        }
    }
}
