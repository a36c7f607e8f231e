//! General matrix multiplication: the kernel the whole stack leans on.
//!
//! Three tiers:
//!
//! * [`gemm_naive`] — triple loop, the correctness oracle for tests.
//! * [`gemm_blocked`] — cache-blocked (MC×KC×NC) single-threaded kernel with
//!   a 4-way unrolled k loop. Its per-element rounding sequence is the
//!   contract every committed logit fingerprint pins, and it is the oracle
//!   the fast path is tested against.
//! * [`gemm`] — the production entry point: rayon-parallel over row blocks of
//!   C (one block for small problems where fork/join overhead would
//!   dominate). Each block runs AVX-512F register tiles (`avx512`, always
//!   compiled, chosen at run time) when the host has AVX-512F, and the
//!   blocked kernel otherwise; both produce [`gemm_blocked`]'s bits.
//!
//! The same routine doubles as the *host side* of Table 1: the GEMM FLOPS
//! microbenchmark in `harvest-hw` runs this kernel to produce a practical-
//! vs-theoretical efficiency figure for the machine the reproduction runs on.

use rayon::prelude::*;

#[cfg(target_arch = "x86_64")]
mod avx512;

/// Cache-block sizes. Chosen for typical x86-64 L1/L2; correctness does not
/// depend on them, and perf only weakly (the benches sweep them).
const MC: usize = 64;
const KC: usize = 256;
const NC: usize = 512;

/// Problems smaller than this many multiply-accumulates stay single-threaded.
/// The pool spawns scoped threads per region (no persistent workers), so the
/// crossover sits higher than a work-stealing runtime's would. Shared with
/// the variant kernels in `crate::kernel` so every variant crosses over at
/// the same point.
pub(crate) const PAR_THRESHOLD_MACS: usize = 1 << 20;

/// `c[m×n] = a[m×k] · b[k×n]` — reference triple loop (ikj order so the inner
/// loop streams through `b` and `c` rows).
pub fn gemm_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    check_dims(a, b, c, m, k, n);
    c.fill(0.0);
    for i in 0..m {
        for p in 0..k {
            let aip = a[i * k + p];
            if aip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..p * n + n];
            let c_row = &mut c[i * n..i * n + n];
            for j in 0..n {
                c_row[j] += aip * b_row[j];
            }
        }
    }
}

#[inline]
fn check_dims(a: &[f32], b: &[f32], c: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "a is {m}x{k}");
    assert_eq!(b.len(), k * n, "b is {k}x{n}");
    assert_eq!(c.len(), m * n, "c is {m}x{n}");
}

/// Cache-blocked single-threaded GEMM. Accumulates into `c` after zeroing it.
pub fn gemm_blocked(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    check_dims(a, b, c, m, k, n);
    c.fill(0.0);
    gemm_blocked_acc(a, b, c, m, k, n);
}

/// Blocked GEMM that *accumulates* into `c` (callers zero or pre-bias it).
///
/// The micro-kernel is register-blocked over four rows of C: one pass over
/// the packed B panel feeds four output rows, quartering panel traffic and
/// giving the vectorizer four independent accumulator streams. Each row's
/// k-accumulation order is identical to the single-row kernel (same 4-way
/// groups in the same sequence), so results are bit-identical regardless of
/// how rows are grouped — the property the batched executor's
/// batch-equals-single guarantee rests on.
fn gemm_blocked_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let mut jc = 0;
    while jc < n {
        let nb = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kb = KC.min(k - pc);
            let mut ic = 0;
            while ic < m {
                let mb = MC.min(m - ic);
                let mut i = ic;
                // 4-row micro-tile over the (mb × nb) block of C.
                while i + 4 <= ic + mb {
                    let a0_row = &a[i * k + pc..i * k + pc + kb];
                    let a1_row = &a[(i + 1) * k + pc..(i + 1) * k + pc + kb];
                    let a2_row = &a[(i + 2) * k + pc..(i + 2) * k + pc + kb];
                    let a3_row = &a[(i + 3) * k + pc..(i + 3) * k + pc + kb];
                    let (c0, rest) = c[i * n..(i + 4) * n].split_at_mut(n);
                    let (c1, rest) = rest.split_at_mut(n);
                    let (c2, c3) = rest.split_at_mut(n);
                    let c0 = &mut c0[jc..jc + nb];
                    let c1 = &mut c1[jc..jc + nb];
                    let c2 = &mut c2[jc..jc + nb];
                    let c3 = &mut c3[jc..jc + nb];
                    // 4-way unrolled accumulation over the K panel.
                    let mut p = 0;
                    while p + 4 <= kb {
                        let b0 = &b[(pc + p) * n + jc..(pc + p) * n + jc + nb];
                        let b1 = &b[(pc + p + 1) * n + jc..(pc + p + 1) * n + jc + nb];
                        let b2 = &b[(pc + p + 2) * n + jc..(pc + p + 2) * n + jc + nb];
                        let b3 = &b[(pc + p + 3) * n + jc..(pc + p + 3) * n + jc + nb];
                        let (x00, x01, x02, x03) =
                            (a0_row[p], a0_row[p + 1], a0_row[p + 2], a0_row[p + 3]);
                        let (x10, x11, x12, x13) =
                            (a1_row[p], a1_row[p + 1], a1_row[p + 2], a1_row[p + 3]);
                        let (x20, x21, x22, x23) =
                            (a2_row[p], a2_row[p + 1], a2_row[p + 2], a2_row[p + 3]);
                        let (x30, x31, x32, x33) =
                            (a3_row[p], a3_row[p + 1], a3_row[p + 2], a3_row[p + 3]);
                        for j in 0..nb {
                            let (b0j, b1j, b2j, b3j) = (b0[j], b1[j], b2[j], b3[j]);
                            c0[j] += x00 * b0j + x01 * b1j + x02 * b2j + x03 * b3j;
                            c1[j] += x10 * b0j + x11 * b1j + x12 * b2j + x13 * b3j;
                            c2[j] += x20 * b0j + x21 * b1j + x22 * b2j + x23 * b3j;
                            c3[j] += x30 * b0j + x31 * b1j + x32 * b2j + x33 * b3j;
                        }
                        p += 4;
                    }
                    while p < kb {
                        let b_row = &b[(pc + p) * n + jc..(pc + p) * n + jc + nb];
                        let (x0, x1, x2, x3) = (a0_row[p], a1_row[p], a2_row[p], a3_row[p]);
                        for j in 0..nb {
                            let bj = b_row[j];
                            c0[j] += x0 * bj;
                            c1[j] += x1 * bj;
                            c2[j] += x2 * bj;
                            c3[j] += x3 * bj;
                        }
                        p += 1;
                    }
                    i += 4;
                }
                // Remainder rows (mb % 4) through the single-row kernel.
                while i < ic + mb {
                    let a_row = &a[i * k + pc..i * k + pc + kb];
                    let c_row = &mut c[i * n + jc..i * n + jc + nb];
                    let mut p = 0;
                    while p + 4 <= kb {
                        let a0 = a_row[p];
                        let a1 = a_row[p + 1];
                        let a2 = a_row[p + 2];
                        let a3 = a_row[p + 3];
                        let b0 = &b[(pc + p) * n + jc..(pc + p) * n + jc + nb];
                        let b1 = &b[(pc + p + 1) * n + jc..(pc + p + 1) * n + jc + nb];
                        let b2 = &b[(pc + p + 2) * n + jc..(pc + p + 2) * n + jc + nb];
                        let b3 = &b[(pc + p + 3) * n + jc..(pc + p + 3) * n + jc + nb];
                        for j in 0..nb {
                            c_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
                        }
                        p += 4;
                    }
                    while p < kb {
                        let ap = a_row[p];
                        let b_row = &b[(pc + p) * n + jc..(pc + p) * n + jc + nb];
                        for j in 0..nb {
                            c_row[j] += ap * b_row[j];
                        }
                        p += 1;
                    }
                    i += 1;
                }
                ic += mb;
            }
            pc += kb;
        }
        jc += nb;
    }
}

/// Production GEMM: parallel over row blocks of `C` when the problem is big
/// enough to amortize fork/join, otherwise one block. Bit-identical to
/// [`gemm_blocked`] for every shape, thread count and host.
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    check_dims(a, b, c, m, k, n);
    // Explicit degenerate-dimension guards. The blocked kernel handles all
    // of these by falling through empty loops, but the packed variant
    // kernels dispatched alongside this one (see `crate::kernel`) index
    // panel buffers whose sizes derive from these dims — keep the contract
    // uniform and early-out before any path can divide or chunk by zero.
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    if m * n * k < PAR_THRESHOLD_MACS || m < 2 {
        gemm_rows(a, b, c, m, k, n);
        return;
    }
    // Each worker owns a disjoint row block of C — data-race freedom by
    // construction. Blocks are balanced (ceil(m/threads)) rather than clamped
    // to MC so no worker is left idle on mid-sized m, and rounded up to the
    // 4-row micro-tile so only the final block runs the slower remainder-row
    // kernel.
    let threads = rayon::current_num_threads().max(1);
    let rows_per_block = m.div_ceil(threads).next_multiple_of(4);
    c.par_chunks_mut(rows_per_block * n)
        .enumerate()
        .for_each(|(blk, c_block)| {
            let i0 = blk * rows_per_block;
            let mb = c_block.len() / n;
            gemm_rows(&a[i0 * k..(i0 + mb) * k], b, c_block, mb, k, n);
        });
}

/// One row block of `C = A·B`, overwriting `c`: the AVX-512F register
/// tiles when the host has AVX-512F, the blocked kernel everywhere else.
/// Both compute every element with the same rounding sequence, so which
/// one ran never shows in the bits.
fn gemm_rows(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if avx512::supported() {
        return avx512::gemm_rows(a, b, c, m, k, n);
    }
    c.fill(0.0);
    gemm_blocked_acc(a, b, c, m, k, n);
}

/// `c = a · bᵀ` where `b` is stored row-major as `n×k` — the layout linear
/// layers use (`weight[out][in]`).
///
/// Packs the transpose of `b_t` into a scratch buffer and runs [`gemm`].
/// The O(k·n) pack is noise next to the O(m·k·n) multiply, and the packed
/// layout lets the kernels stream several output rows per pass over B.
///
/// The bits cannot move: every committed logit fingerprint was produced
/// under this rounding contract. Each `c[i][j]` starts at +0.0 and
/// accumulates over `p` in strictly increasing order, in left-associative
/// 4-term groups `c + (((x0·b0 + x1·b1) + x2·b2) + x3·b3)` (`KC` is a
/// multiple of 4, so the blocked kernel's panel boundaries never split a
/// group), then single steps for the `k % 4` tail, with f32 rounding after
/// every multiply and every add. On hosts with AVX-512F the contract is
/// served by register tiles that hold C across the whole k extent with
/// separate `mul`/`add` instructions (never FMA) under the default MXCSR;
/// elsewhere by the blocked kernel, which reloads C once per group. Where C
/// lives does not change the rounding sequence. (The portable 8-lane
/// `Unrolled` variant that once served the same contract is gone.)
pub fn gemm_bt(a: &[f32], b_t: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "a is {m}x{k}");
    assert_eq!(b_t.len(), n * k, "b_t is {n}x{k}");
    assert_eq!(c.len(), m * n, "c is {m}x{n}");
    if n == 0 || m == 0 {
        return;
    }
    if k == 0 {
        // Empty dot products: the output is all zeros.
        c.fill(0.0);
        return;
    }
    // Pack bᵀ (n×k) into b (k×n): column-major reads, row-major writes. The
    // pack buffer is loaned from the thread-local scratch pool so repeated
    // forwards reuse one allocation (every element is written below).
    crate::scratch::with_f32(k * n, |b| {
        for (j, b_t_row) in b_t.chunks_exact(k).enumerate() {
            for (p, &v) in b_t_row.iter().enumerate() {
                b[p * n + j] = v;
            }
        }
        gemm(a, b, c, m, k, n);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
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

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol, "idx {i}: {x} vs {y}");
        }
    }

    #[test]
    fn identity_matrix_is_neutral() {
        let m = 5;
        let a = rand_vec(m * m, 1);
        let mut eye = vec![0.0; m * m];
        for i in 0..m {
            eye[i * m + i] = 1.0;
        }
        let mut c = vec![0.0; m * m];
        gemm(&a, &eye, &mut c, m, m, m);
        assert_close(&c, &a, 1e-6);
    }

    #[test]
    fn known_2x2() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0; 4];
        gemm_naive(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn blocked_matches_naive_awkward_shapes() {
        // Shapes chosen to exercise partial blocks in every dimension.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (65, 257, 33),
            (70, 300, 520),
            (128, 128, 128),
        ] {
            let a = rand_vec(m * k, 11);
            let b = rand_vec(k * n, 13);
            let mut c_ref = vec![0.0; m * n];
            let mut c_blk = vec![0.0; m * n];
            gemm_naive(&a, &b, &mut c_ref, m, k, n);
            gemm_blocked(&a, &b, &mut c_blk, m, k, n);
            assert_close(&c_blk, &c_ref, 1e-3);
        }
    }

    #[test]
    fn parallel_matches_naive_above_threshold() {
        let (m, k, n) = (150, 120, 130);
        let a = rand_vec(m * k, 21);
        let b = rand_vec(k * n, 23);
        let mut c_ref = vec![0.0; m * n];
        let mut c_par = vec![0.0; m * n];
        gemm_naive(&a, &b, &mut c_ref, m, k, n);
        gemm(&a, &b, &mut c_par, m, k, n);
        assert_close(&c_par, &c_ref, 1e-3);
    }

    #[test]
    fn gemm_bt_matches_explicit_transpose() {
        let (m, k, n) = (9, 17, 5);
        let a = rand_vec(m * k, 31);
        let b_t = rand_vec(n * k, 33); // n×k
                                       // Build b = transpose(b_t): k×n
        let mut b = vec![0.0; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = b_t[j * k + p];
            }
        }
        let mut c_ref = vec![0.0; m * n];
        let mut c_bt = vec![0.0; m * n];
        gemm_naive(&a, &b, &mut c_ref, m, k, n);
        gemm_bt(&a, &b_t, &mut c_bt, m, k, n);
        assert_close(&c_bt, &c_ref, 1e-4);
    }

    #[test]
    fn overwrites_stale_output() {
        let a = [1.0f32, 0.0, 0.0, 1.0];
        let b = [1.0f32, 2.0, 3.0, 4.0];
        let mut c = [99.0f32; 4];
        gemm(&a, &b, &mut c, 2, 2, 2);
        assert_close(&c, &b, 1e-6);
    }

    #[test]
    fn degenerate_k_zero_means_zero_output() {
        let a: Vec<f32> = vec![];
        let b: Vec<f32> = vec![];
        let mut c = vec![5.0f32; 6];
        gemm_naive(&a, &b, &mut c, 2, 0, 3);
        assert!(c.iter().all(|&x| x == 0.0));
        let mut c2 = vec![5.0f32; 6];
        gemm_blocked(&a, &b, &mut c2, 2, 0, 3);
        assert!(c2.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn degenerate_m_or_n_zero_is_a_clean_noop() {
        // m == 0: every output slice is empty; must not panic.
        let b = rand_vec(3 * 4, 41);
        let mut c: Vec<f32> = vec![];
        gemm(&[], &b, &mut c, 0, 3, 4);
        assert!(c.is_empty());
        // n == 0: zero-width rows; the parallel path would otherwise chunk
        // by zero columns.
        let a = rand_vec(5 * 3, 43);
        let mut c2: Vec<f32> = vec![];
        gemm(&a, &[], &mut c2, 5, 3, 0);
        assert!(c2.is_empty());
    }

    #[test]
    fn degenerate_k_zero_zeroes_stale_output() {
        let mut c = vec![9.0f32; 4 * 6];
        gemm(&[], &[], &mut c, 4, 0, 6);
        assert!(c.iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "a is")]
    fn dimension_mismatch_panics() {
        let a = vec![0.0; 5];
        let b = vec![0.0; 6];
        let mut c = vec![0.0; 4];
        gemm(&a, &b, &mut c, 2, 3, 2);
    }
}
