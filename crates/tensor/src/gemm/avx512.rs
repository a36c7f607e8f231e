//! AVX-512F register tiles that serve the blocked kernel's rounding
//! contract.
//!
//! Every output element is computed exactly as
//! [`gemm_blocked`](super::gemm_blocked) computes it: starting from +0.0,
//! over `p` in increasing order, `c = c + (((x0·b0 + x1·b1) + x2·b2) +
//! x3·b3)` for each full group of four, then `c = c + x·b` for each of the
//! `k % 4` tail steps. Multiplies and adds stay separate instructions
//! (`_mm512_mul_ps` / `_mm512_add_ps`, never FMA), so each rounds once, as
//! the scalar code does, and the default MXCSR (no FTZ/DAZ) keeps
//! subnormals identical. The only difference from the blocked kernel is
//! *where* C lives: an `MR × 64` tile stays in registers for the whole k
//! extent instead of being loaded and stored once per k-group, which does
//! not change a single rounding step. Lane position only decides which
//! column an operation serves.
//!
//! B is read in place (no packing, no scratch buffer). Column tails use
//! masked loads and stores, so no lane outside the live columns is read
//! or written.
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use std::arch::x86_64::*;

/// Rows of C per register tile.
const MR: usize = 4;
/// 16-lane vectors per tile row (64 columns).
const NV: usize = 4;
/// f32 lanes in one `__m512`.
const LANES: usize = 16;

/// True when the host can run [`gemm_rows`].
pub(super) fn supported() -> bool {
    is_x86_feature_detected!("avx512f")
}

/// `c[m×n] = a[m×k] · b[k×n]`, overwriting `c`, bit-identical to
/// `gemm_blocked`. Panics when the host lacks AVX-512F (check
/// [`supported`] first) or when a slice does not match its dimensions.
pub(super) fn gemm_rows(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert!(supported(), "AVX-512F GEMM tile on a host without AVX-512F");
    assert_eq!(a.len(), m * k, "a is {m}x{k}");
    assert_eq!(b.len(), k * n, "b is {k}x{n}");
    assert_eq!(c.len(), m * n, "c is {m}x{n}");
    if k == 0 {
        c.fill(0.0);
        return;
    }
    // SAFETY: AVX-512F was detected above, and the three slices hold
    // exactly the m×k, k×n and m×n elements `tiles` indexes.
    unsafe { tiles(a, b, c, m, k, n) }
}

/// One register tile's operands: top-left corners of its A rows, B columns
/// and C block, plus the live-lane mask of its last 16-lane vector.
#[derive(Clone, Copy)]
struct Tile {
    a: *const f32,
    b: *const f32,
    c: *mut f32,
    k: usize,
    n: usize,
    tail: __mmask16,
}

type TileFn = unsafe fn(Tile);

/// `TILE[rows - 1][vectors - 1]`: every edge shape is its own
/// monomorphization, so a tile never computes dead rows or whole dead
/// vectors.
const TILE: [[TileFn; NV]; MR] = [
    [tile::<1, 1>, tile::<1, 2>, tile::<1, 3>, tile::<1, 4>],
    [tile::<2, 1>, tile::<2, 2>, tile::<2, 3>, tile::<2, 4>],
    [tile::<3, 1>, tile::<3, 2>, tile::<3, 3>, tile::<3, 4>],
    [tile::<4, 1>, tile::<4, 2>, tile::<4, 3>, tile::<4, 4>],
];

/// Walk C in 64-column panels; within a panel, in `MR`-row tiles, so one
/// panel of B (k × 64) stays cache-resident across every row tile.
///
/// # Safety
/// The host must support AVX-512F, and `a`, `b`, `c` must hold at least
/// `m·k`, `k·n` and `m·n` elements.
#[target_feature(enable = "avx512f")]
unsafe fn tiles(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let mut j = 0;
    while j < n {
        let w = (n - j).min(NV * LANES);
        let vectors = w.div_ceil(LANES);
        let live = w - (vectors - 1) * LANES;
        let tail = ((1u32 << live) - 1) as __mmask16;
        let mut i = 0;
        while i < m {
            let rows = (m - i).min(MR);
            let tile = Tile {
                // Offsets stay inside the slices: i < m and j < n.
                a: a[i * k..].as_ptr(),
                b: b[j..].as_ptr(),
                c: c[i * n + j..].as_mut_ptr(),
                k,
                n,
                tail,
            };
            // SAFETY: AVX-512F is enabled (this function's contract). The
            // tile covers rows i..i+rows ≤ m of A and C and columns
            // j..j+w ≤ n of B and C, all inside the slices, and the C block
            // is borrowed mutably here, so nothing else aliases it.
            unsafe { TILE[rows - 1][vectors - 1](tile) };
            i += rows;
        }
        j += w;
    }
}

/// An `R × V·16` register tile accumulated over the full k extent.
///
/// # Safety
/// The host must support AVX-512F. `t.a` must point at `R` rows of `t.k`
/// readable f32s spaced `t.k` apart; `t.b` at `t.k` rows spaced `t.n`
/// apart, each holding `(V - 1)·16` readable f32s plus one more per set bit
/// of the contiguous low mask `t.tail`; and `t.c` at `R` rows of that same
/// width, spaced `t.n` apart, writable and not aliased.
#[target_feature(enable = "avx512f")]
unsafe fn tile<const R: usize, const V: usize>(t: Tile) {
    let Tile {
        a,
        b,
        c,
        k,
        n,
        tail,
    } = t;
    let mask = |v: usize| if v + 1 == V { tail } else { 0xFFFF };
    // SAFETY: (every `load` below) row `p < k` of B starts at
    // `b + p·n`; vector `v` reads lanes `v·16 + l` only for set bits `l` of
    // `mask(v)`, which the contract guarantees readable. Masked-off lanes
    // are not accessed.
    let load =
        |p: usize, v: usize| unsafe { _mm512_maskz_loadu_ps(mask(v), b.add(p * n + v * LANES)) };
    // SAFETY: (every `x` below) `r < R` and `p < k`, inside the R
    // rows of k elements the contract guarantees readable.
    let x = |r: usize, p: usize| _mm512_set1_ps(unsafe { *a.add(r * k + p) });

    // Each accumulator starts at +0.0, as `c.fill(0.0)` does for the
    // blocked kernel.
    let mut acc = [[_mm512_setzero_ps(); V]; R];
    let mut p = 0;
    while p + 4 <= k {
        for v in 0..V {
            let (b0, b1, b2, b3) = (load(p, v), load(p + 1, v), load(p + 2, v), load(p + 3, v));
            for (r, acc_r) in acc.iter_mut().enumerate() {
                // ((x0·b0 + x1·b1) + x2·b2) + x3·b3, each op rounded alone.
                let s = _mm512_mul_ps(x(r, p), b0);
                let s = _mm512_add_ps(s, _mm512_mul_ps(x(r, p + 1), b1));
                let s = _mm512_add_ps(s, _mm512_mul_ps(x(r, p + 2), b2));
                let s = _mm512_add_ps(s, _mm512_mul_ps(x(r, p + 3), b3));
                acc_r[v] = _mm512_add_ps(acc_r[v], s);
            }
        }
        p += 4;
    }
    while p < k {
        for v in 0..V {
            let bp = load(p, v);
            for (r, acc_r) in acc.iter_mut().enumerate() {
                acc_r[v] = _mm512_add_ps(acc_r[v], _mm512_mul_ps(x(r, p), bp));
            }
        }
        p += 1;
    }
    for (r, acc_r) in acc.iter().enumerate() {
        for (v, &acc_rv) in acc_r.iter().enumerate() {
            // SAFETY: row `r < R` of the C block, vector `v` writes only the
            // lanes set in `mask(v)`, which the contract guarantees writable
            // and unaliased.
            unsafe { _mm512_mask_storeu_ps(c.add(r * n + v * LANES), mask(v), acc_rv) };
        }
    }
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

    /// Both implementations of the contract run here, called directly:
    /// the AVX-512 tiles (when this host has AVX-512F) and the blocked
    /// fallback every other host serves. Shapes straddle every tile edge
    /// (rows 1..=4 past a multiple of 4, columns past 16/32/48/64) and the
    /// k-group tail (k % 4 = 1, 2, 3).
    #[test]
    fn tiles_equal_the_blocked_fallback_bit_for_bit() {
        if !supported() {
            eprintln!("host lacks AVX-512F: only the fallback serves gemm here");
            return;
        }
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 4, 16),
            (5, 7, 17),
            (7, 257, 65),
            (9, 255, 130),
            (12, 256, 48),
            (3, 513, 33),
            (17, 66, 200),
        ] {
            let a = rand_vec(m * k, 3);
            let b = rand_vec(k * n, 4);
            let mut tiled = vec![f32::NAN; m * n];
            let mut blocked = vec![f32::NAN; m * n];
            gemm_rows(&a, &b, &mut tiled, m, k, n);
            super::super::gemm_blocked(&a, &b, &mut blocked, m, k, n);
            for (i, (x, y)) in tiled.iter().zip(&blocked).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "({m},{k},{n}) idx {i}: {x} vs {y}"
                );
            }
        }
    }
}
