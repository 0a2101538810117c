//! Euclidean distances and the pairwise distance matrix.
//!
//! The paper clusters 9,600 towers described by 4,032-dimensional
//! vectors with Euclidean distance. Building the pairwise matrix is the
//! dominant cost (O(n²·d)), so [`DistanceMatrix::build`] evaluates
//! pairs in blocks of [`BLOCK`] rows × [`BLOCK`] columns: one pass over
//! the dimensions loads each row and column chunk once and feeds it to
//! every pair of the block, with one accumulator per pair. Every pair
//! keeps [`sq_euclidean`]'s lane structure and fold, so every cell is
//! bit-identical to [`euclidean`] of its pair. Blocks are grouped into
//! row-tiles of [`TILE_ROWS`] rows with the column loop outermost, so
//! each streamed column stays cached across the tile's rows. Tiles are
//! written in place into the one condensed buffer through
//! [`towerlens_par::par_slices_mut`], in an order that gives every
//! worker a similar number of pairs; the result is bit-identical for
//! any thread count because every cell is a pure function of its pair.

use towerlens_obs::LazyCounter;

use crate::dendrogram::workers_for;
use crate::error::{validate_points_par, ClusterError};

/// Pairwise distance evaluations, across all matrix builds. Batched:
/// one add of n(n−1)/2 per build, not one per pair.
static EVALUATIONS: LazyCounter = LazyCounter::new("cluster.distance.evaluations");

/// Squared Euclidean distance between two equal-length slices.
///
/// Accumulates eight independent lanes over the bulk of the vector so
/// the adds don't serialise on one dependency chain; the remainder
/// folds sequentially, so short inputs sum in the classic
/// left-to-right order. On x86-64 with AVX the same eight-lane
/// reduction runs on 256-bit vectors — the lane structure is
/// identical, so the scalar and AVX paths return bit-identical
/// results (no FMA: fusing would change the rounding).
#[inline]
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: AVX availability was just checked.
            #[allow(unsafe_code)]
            return unsafe { sq_euclidean_avx(a, b) };
        }
    }
    sq_euclidean_scalar(a, b)
}

/// Portable eight-lane reference; the canonical reduction order.
#[inline]
pub(crate) fn sq_euclidean_scalar(a: &[f64], b: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 8];
    let mut ac = a.chunks_exact(8);
    let mut bc = b.chunks_exact(8);
    for (xa, xb) in (&mut ac).zip(&mut bc) {
        for l in 0..8 {
            let d = xa[l] - xb[l];
            lanes[l] += d * d;
        }
    }
    let mut tail = 0.0f64;
    for (x, y) in ac.remainder().iter().zip(bc.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
        + tail
}

/// The same eight-lane reduction on two 256-bit accumulators.
///
/// # Safety
/// Requires AVX; callers must check `is_x86_feature_detected!("avx")`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[allow(unsafe_code)]
unsafe fn sq_euclidean_avx(a: &[f64], b: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n = a.len().min(b.len());
    let m = n - n % 8;
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut k = 0;
    while k < m {
        let d0 = _mm256_sub_pd(
            _mm256_loadu_pd(a.as_ptr().add(k)),
            _mm256_loadu_pd(b.as_ptr().add(k)),
        );
        let d1 = _mm256_sub_pd(
            _mm256_loadu_pd(a.as_ptr().add(k + 4)),
            _mm256_loadu_pd(b.as_ptr().add(k + 4)),
        );
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
        k += 8;
    }
    let mut lanes = [0.0f64; 8];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc0);
    _mm256_storeu_pd(lanes.as_mut_ptr().add(4), acc1);
    let mut tail = 0.0f64;
    while k < n {
        let d = a[k] - b[k];
        tail += d * d;
        k += 1;
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
        + tail
}

/// Euclidean distance between two equal-length slices.
#[inline]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    sq_euclidean(a, b).sqrt()
}

/// Candidates per [`sq_euclidean6_batch`] call — one AVX register of
/// f64 lanes.
pub const BATCH6: usize = 4;

/// Squared Euclidean distances between one 6-dim query and up to
/// [`BATCH6`] candidates stored in *transposed* (dimension-major)
/// lanes: `lanes[d * width + c]` is dimension `d` of candidate `c`,
/// and candidates `offset..offset + take` are evaluated.
///
/// At length 6 the canonical [`sq_euclidean`] reduction is a pure
/// sequential tail sum (no 8-lane chunk fires), so each output lane
/// here — scalar or AVX, where the four candidates ride the four
/// register lanes and every vector op is lanewise IEEE — reproduces
/// `sq_euclidean(q, candidate)` bit for bit. The transposed layout is
/// what makes the AVX loads contiguous; the spatial index stores its
/// leaf buckets this way.
#[inline]
pub fn sq_euclidean6_batch(
    q: &[f64; 6],
    lanes: &[f64],
    width: usize,
    offset: usize,
    take: usize,
) -> [f64; BATCH6] {
    debug_assert!(take <= BATCH6 && offset + take <= width);
    debug_assert_eq!(lanes.len(), 6 * width);
    #[cfg(target_arch = "x86_64")]
    {
        if take == BATCH6 && std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: AVX availability was just checked, and the
            // debug-asserted preconditions make every strided load
            // in-bounds (`offset + 4 <= width` per dimension row).
            #[allow(unsafe_code)]
            return unsafe { sq_euclidean6_batch_avx(q, lanes, width, offset) };
        }
    }
    sq_euclidean6_batch_scalar(q, lanes, width, offset, take)
}

/// Portable reference for the batched 6-dim kernel: each lane is the
/// sequential left-to-right sum `sq_euclidean` produces at length 6.
fn sq_euclidean6_batch_scalar(
    q: &[f64; 6],
    lanes: &[f64],
    width: usize,
    offset: usize,
    take: usize,
) -> [f64; BATCH6] {
    let mut out = [0.0f64; BATCH6];
    for (c, acc) in out.iter_mut().enumerate().take(take) {
        let mut tail = 0.0f64;
        for (d, &qd) in q.iter().enumerate() {
            let diff = qd - lanes[d * width + offset + c];
            tail += diff * diff;
        }
        *acc = tail;
    }
    out
}

/// Four candidates across the four f64 lanes of one 256-bit register;
/// the six accumulating adds stay sequential per lane, so each lane is
/// bit-identical to the scalar reference (no FMA).
///
/// # Safety
/// Requires AVX; callers must check `is_x86_feature_detected!("avx")`
/// and guarantee `offset + 4 <= width` with `lanes.len() == 6 * width`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[allow(unsafe_code)]
unsafe fn sq_euclidean6_batch_avx(
    q: &[f64; 6],
    lanes: &[f64],
    width: usize,
    offset: usize,
) -> [f64; BATCH6] {
    use std::arch::x86_64::*;
    let mut acc = _mm256_setzero_pd();
    for (d, &qd) in q.iter().enumerate() {
        let diff = _mm256_sub_pd(
            _mm256_set1_pd(qd),
            _mm256_loadu_pd(lanes.as_ptr().add(d * width + offset)),
        );
        acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
    }
    let mut out = [0.0f64; BATCH6];
    _mm256_storeu_pd(out.as_mut_ptr(), acc);
    out
}

/// Rows and columns per pair block: each loaded chunk feeds four
/// pairs, and the AVX-512 block's 16 accumulators (one 8-lane register
/// per pair) plus its loaded chunks fit in the 32 vector registers.
const BLOCK: usize = 4;

/// Squared Euclidean distances of the `BLOCK × BLOCK` pairs
/// `(rows[r], cols[c])`: `out[r][c]` is bit-identical to
/// `sq_euclidean(rows[r], cols[c])`. Dispatches at run time to the
/// widest compiled kernel the CPU supports.
///
/// # Panics
/// If the slices differ in length: the SIMD kernels read that many
/// elements from every one of them.
fn sq_euclidean_block(rows: [&[f64]; BLOCK], cols: [&[f64]; BLOCK]) -> [[f64; BLOCK]; BLOCK] {
    let d = rows[0].len();
    assert!(
        rows.iter().chain(&cols).all(|v| v.len() == d),
        "block vectors must share one length"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F availability was just checked, and all
            // eight slices were just checked to share one length.
            #[allow(unsafe_code)]
            return unsafe { sq_euclidean_block_avx512(rows, cols) };
        }
        if std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: AVX availability was just checked, and all eight
            // slices were just checked to share one length.
            #[allow(unsafe_code)]
            return unsafe { sq_euclidean_block_avx(rows, cols) };
        }
    }
    sq_euclidean_block_portable(rows, cols)
}

/// [`sq_euclidean`]'s fold of the eight lanes and the sequential tail.
fn fold_lanes(lanes: &[f64; 8], tail: f64) -> f64 {
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
        + tail
}

/// [`sq_euclidean`]'s sequential tail: dimensions `from..` summed left
/// to right.
fn sq_tail(a: &[f64], b: &[f64], from: usize) -> f64 {
    let mut tail = 0.0f64;
    for (x, y) in a[from..].iter().zip(&b[from..]) {
        let d = x - y;
        tail += d * d;
    }
    tail
}

/// Portable blocked reference: the block's pairs advance together one
/// eight-dimension chunk at a time, each on its own eight lanes, in
/// exactly the order [`sq_euclidean_scalar`] sums a single pair.
fn sq_euclidean_block_portable(
    rows: [&[f64]; BLOCK],
    cols: [&[f64]; BLOCK],
) -> [[f64; BLOCK]; BLOCK] {
    let d = rows[0].len();
    let m = d - d % 8;
    let mut lanes = [[[0.0f64; 8]; BLOCK]; BLOCK];
    for k in (0..m).step_by(8) {
        for (row, acc) in rows.iter().zip(&mut lanes) {
            let x = &row[k..k + 8];
            for (col, acc) in cols.iter().zip(acc.iter_mut()) {
                let y = &col[k..k + 8];
                for l in 0..8 {
                    let diff = x[l] - y[l];
                    acc[l] += diff * diff;
                }
            }
        }
    }
    std::array::from_fn(|r| {
        std::array::from_fn(|c| fold_lanes(&lanes[r][c], sq_tail(rows[r], cols[c], m)))
    })
}

/// Four rows against one column at a time on 256-bit vectors: each
/// pair holds its eight lanes in two accumulators, as
/// [`sq_euclidean_avx`] does (no FMA: fusing would change the
/// rounding).
///
/// # Safety
/// Requires AVX; callers must check `is_x86_feature_detected!("avx")`
/// and that all eight slices have the same length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[allow(unsafe_code)]
unsafe fn sq_euclidean_block_avx(
    rows: [&[f64]; BLOCK],
    cols: [&[f64]; BLOCK],
) -> [[f64; BLOCK]; BLOCK] {
    use std::arch::x86_64::*;
    let d = rows[0].len();
    let m = d - d % 8;
    let mut out = [[0.0f64; BLOCK]; BLOCK];
    for (c, col) in cols.iter().enumerate() {
        let mut acc = [[_mm256_setzero_pd(); 2]; BLOCK];
        let mut k = 0;
        while k < m {
            let y0 = _mm256_loadu_pd(col.as_ptr().add(k));
            let y1 = _mm256_loadu_pd(col.as_ptr().add(k + 4));
            for (row, acc) in rows.iter().zip(&mut acc) {
                let d0 = _mm256_sub_pd(_mm256_loadu_pd(row.as_ptr().add(k)), y0);
                let d1 = _mm256_sub_pd(_mm256_loadu_pd(row.as_ptr().add(k + 4)), y1);
                acc[0] = _mm256_add_pd(acc[0], _mm256_mul_pd(d0, d0));
                acc[1] = _mm256_add_pd(acc[1], _mm256_mul_pd(d1, d1));
            }
            k += 8;
        }
        for (r, row) in rows.iter().enumerate() {
            let mut lanes = [0.0f64; 8];
            _mm256_storeu_pd(lanes.as_mut_ptr(), acc[r][0]);
            _mm256_storeu_pd(lanes.as_mut_ptr().add(4), acc[r][1]);
            out[r][c] = fold_lanes(&lanes, sq_tail(row, col, m));
        }
    }
    out
}

/// The whole block in one pass on 512-bit vectors: one 8-lane
/// accumulator per pair, so lane `l` of pair `(r, c)` sums dimensions
/// `l, l + 8, …` in order exactly as [`sq_euclidean_scalar`] does (no
/// FMA).
///
/// # Safety
/// Requires AVX-512F; callers must check
/// `is_x86_feature_detected!("avx512f")` and that all eight slices have
/// the same length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(unsafe_code)]
unsafe fn sq_euclidean_block_avx512(
    rows: [&[f64]; BLOCK],
    cols: [&[f64]; BLOCK],
) -> [[f64; BLOCK]; BLOCK] {
    use std::arch::x86_64::*;
    let d = rows[0].len();
    let m = d - d % 8;
    let mut acc = [[_mm512_setzero_pd(); BLOCK]; BLOCK];
    let mut k = 0;
    while k < m {
        let y: [__m512d; BLOCK] = std::array::from_fn(|c| _mm512_loadu_pd(cols[c].as_ptr().add(k)));
        for (row, acc) in rows.iter().zip(&mut acc) {
            let x = _mm512_loadu_pd(row.as_ptr().add(k));
            for (y, acc) in y.iter().zip(acc.iter_mut()) {
                let diff = _mm512_sub_pd(x, *y);
                *acc = _mm512_add_pd(*acc, _mm512_mul_pd(diff, diff));
            }
        }
        k += 8;
    }
    let mut out = [[0.0f64; BLOCK]; BLOCK];
    for (r, row) in rows.iter().enumerate() {
        for (c, col) in cols.iter().enumerate() {
            let mut lanes = [0.0f64; 8];
            _mm512_storeu_pd(lanes.as_mut_ptr(), acc[r][c]);
            out[r][c] = fold_lanes(&lanes, sq_tail(row, col, m));
        }
    }
    out
}

/// Rows per build tile. 16 rows × 4,032 dims × 8 bytes ≈ 512 KiB of
/// resident tile data — small enough for L2, large enough that each
/// streamed column block amortises over four row blocks.
const TILE_ROWS: usize = 16;

/// Condensed cells of tile `t`: rows `t·TILE_ROWS ..` hold `n − 1 − i`
/// pairs each.
fn tile_cells(n: usize, t: usize) -> usize {
    let i0 = t * TILE_ROWS;
    (i0..(i0 + TILE_ROWS).min(n)).map(|i| n - 1 - i).sum()
}

/// The order tiles are handed to workers: tile `t` next to tile
/// `T − 1 − t`. Row `i` holds `n − 1 − i` pairs, so each such couple
/// holds about `TILE_ROWS · (n − 1)` pairs, and the equal-length runs
/// [`towerlens_par::par_slices_mut`] gives its workers carry nearly
/// equal pair counts — where a contiguous split of `0..T` gives the
/// first worker of two three quarters of the matrix.
fn tile_order(tiles: usize) -> Vec<usize> {
    (0..tiles.div_ceil(2))
        .flat_map(|t| [t, tiles - 1 - t])
        .take(tiles)
        .collect()
}

/// Fills one row-tile's condensed cells: rows `i0 ..` of `points`
/// against every later point, in [`BLOCK`]-square pair blocks with the
/// column blocks outermost. Ragged blocks at the tile's last rows and
/// the matrix's last columns repeat their final vector; cells outside
/// the strict upper triangle are computed and dropped.
fn fill_tile(points: &[Vec<f64>], i0: usize, out: &mut [f64]) {
    let n = points.len();
    let i1 = (i0 + TILE_ROWS).min(n);
    // Offset of each tile row's first cell within `out`.
    let mut base = [0usize; TILE_ROWS];
    for i in i0 + 1..i1 {
        base[i - i0] = base[i - 1 - i0] + (n - i);
    }
    for j0 in (i0 + 1..n).step_by(BLOCK) {
        let j_last = (j0 + BLOCK).min(n) - 1;
        let cols: [&[f64]; BLOCK] =
            std::array::from_fn(|c| points[(j0 + c).min(j_last)].as_slice());
        // Row blocks at or past this column block's last column hold
        // no pair j > i.
        for r0 in (i0..i1.min(j_last)).step_by(BLOCK) {
            let r_last = (r0 + BLOCK).min(i1) - 1;
            let rows: [&[f64]; BLOCK] =
                std::array::from_fn(|r| points[(r0 + r).min(r_last)].as_slice());
            let block = sq_euclidean_block(rows, cols);
            for (i, cells) in (r0..=r_last).zip(&block) {
                for (j, &sq) in (j0..=j_last).zip(cells) {
                    if j > i {
                        out[base[i - i0] + (j - i - 1)] = sq.sqrt();
                    }
                }
            }
        }
    }
}

/// A symmetric pairwise distance matrix stored as the strict upper
/// triangle (condensed form), halving memory for large n.
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    n: usize,
    /// Condensed entries: row-major strict upper triangle,
    /// `data[idx(i, j)] = d(i, j)` for `i < j`.
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Builds the Euclidean distance matrix of a point set, using up to
    /// `threads` worker threads (`0` means "use available parallelism").
    /// Every cell is bit-identical to [`euclidean`] of its pair.
    ///
    /// # Errors
    /// Propagates point-set validation failures; see
    /// [`ClusterError`].
    pub fn build(points: &[Vec<f64>], threads: usize) -> Result<Self, ClusterError> {
        let n = points.len();
        // Below the threshold the spawn overhead dominates; force the
        // serial path (one worker runs inline).
        let workers = if n < 64 { 1 } else { threads };
        let values = n * points.first().map_or(0, Vec::len);
        validate_points_par(points, workers_for(values, workers))?;
        let len = n * (n - 1) / 2;

        // A tile owns rows i0..i1, whose condensed entries are one
        // contiguous run of the buffer.
        let tiles = (n - 1).div_ceil(TILE_ROWS);
        let cells: Vec<usize> = (0..tiles).map(|t| tile_cells(n, t)).collect();
        let mut data = vec![0.0f64; len];
        towerlens_par::par_slices_mut(&mut data, &cells, &tile_order(tiles), workers, |t, out| {
            fill_tile(points, t * TILE_ROWS, out)
        });

        EVALUATIONS.add(len as u64);
        Ok(DistanceMatrix { n, data })
    }

    /// Constructs a matrix directly from a condensed buffer
    /// (row-major strict upper triangle). Used by tests and by callers
    /// with a custom metric.
    ///
    /// # Errors
    /// [`ClusterError::CondensedLengthMismatch`] if the buffer length
    /// doesn't match `n·(n−1)/2`; the error carries both lengths.
    pub fn from_condensed(n: usize, data: Vec<f64>) -> Result<Self, ClusterError> {
        let expected = n * n.saturating_sub(1) / 2;
        if data.len() != expected {
            return Err(ClusterError::CondensedLengthMismatch {
                n,
                expected,
                actual: data.len(),
            });
        }
        Ok(DistanceMatrix { n, data })
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when built over zero points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Condensed index of the unordered pair `{i, j}`, `i ≠ j`.
    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        // Start of row i in the condensed layout plus the offset.
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Distance between points `i` and `j` (0 when `i == j`).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if i == j {
            0.0
        } else {
            self.data[self.idx(i, j)]
        }
    }

    /// Overwrites the distance of a pair (used by linkage updates).
    #[inline]
    pub(crate) fn set(&mut self, i: usize, j: usize, v: f64) {
        if i != j {
            let k = self.idx(i, j);
            self.data[k] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, 0.0],
            vec![3.0, 4.0],
            vec![6.0, 8.0],
            vec![-3.0, -4.0],
        ]
    }

    #[test]
    fn euclidean_basics() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(sq_euclidean(&[1.0], &[4.0]), 9.0);
        assert_eq!(euclidean(&[], &[]), 0.0);
    }

    #[test]
    fn dispatched_kernel_is_bit_identical_to_the_scalar_reference() {
        // Awkward lengths straddle the 8-lane boundary; the dispatched
        // path (AVX where available) must reproduce the canonical
        // scalar reduction exactly, bit for bit.
        for len in [0usize, 1, 7, 8, 9, 16, 31, 4_032] {
            let a: Vec<f64> = (0..len).map(|k| (k as f64 * 0.37).sin() * 3.0).collect();
            let b: Vec<f64> = (0..len).map(|k| (k as f64 * 0.53).cos() * 2.0).collect();
            assert_eq!(
                sq_euclidean(&a, &b).to_bits(),
                sq_euclidean_scalar(&a, &b).to_bits(),
                "len={len}"
            );
        }
    }

    #[test]
    fn batched_6dim_kernel_is_bit_identical_per_lane() {
        // Awkward widths/offsets exercise both the AVX full-batch path
        // and the scalar remainder; every lane must reproduce the
        // general kernel on the untransposed pair, bit for bit.
        for width in [1usize, 3, 4, 5, 8, 11] {
            let rows: Vec<[f64; 6]> = (0..width)
                .map(|c| std::array::from_fn(|d| ((c * 6 + d) as f64 * 0.61).sin() * 4.0))
                .collect();
            let mut lanes = vec![0.0f64; 6 * width];
            for (c, row) in rows.iter().enumerate() {
                for (d, &v) in row.iter().enumerate() {
                    lanes[d * width + c] = v;
                }
            }
            let q: [f64; 6] = std::array::from_fn(|d| (d as f64 * 0.83).cos() * 3.0);
            let mut offset = 0;
            while offset < width {
                let take = (width - offset).min(BATCH6);
                let got = sq_euclidean6_batch(&q, &lanes, width, offset, take);
                let scalar = sq_euclidean6_batch_scalar(&q, &lanes, width, offset, take);
                for c in 0..take {
                    let want = sq_euclidean(&q, &rows[offset + c]);
                    assert_eq!(
                        got[c].to_bits(),
                        want.to_bits(),
                        "width={width} offset={offset} lane={c}"
                    );
                    assert_eq!(got[c].to_bits(), scalar[c].to_bits());
                }
                offset += take;
            }
        }
    }

    #[test]
    fn matrix_matches_pairwise_distances() {
        let m = DistanceMatrix::build(&pts(), 1).unwrap();
        assert_eq!(m.len(), 4);
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.get(1, 0), 5.0);
        assert_eq!(m.get(0, 2), 10.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.get(0, 3), 5.0);
        assert_eq!(m.get(2, 3), 15.0);
        assert_eq!(m.get(2, 2), 0.0);
    }

    /// Deterministic vectors whose magnitudes span six decades, so a
    /// changed summation order or a fused multiply-add moves low bits.
    fn spread_vectors(count: usize, dims: usize, salt: f64) -> Vec<Vec<f64>> {
        (0..count)
            .map(|p| {
                (0..dims)
                    .map(|k| {
                        let x = ((p * dims + k) as f64 * 0.618 + salt).sin();
                        x * 10f64.powi((k % 7) as i32 - 3)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn every_block_kernel_is_bit_identical_to_the_scalar_reference() {
        type Kernel = fn([&[f64]; BLOCK], [&[f64]; BLOCK]) -> [[f64; BLOCK]; BLOCK];
        let mut kernels: Vec<(&str, Kernel)> = vec![("portable", sq_euclidean_block_portable)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx") {
                // SAFETY: AVX was just detected; every call below passes
                // eight slices of one length.
                #[allow(unsafe_code)]
                kernels.push(("avx", |r, c| unsafe { sq_euclidean_block_avx(r, c) }));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F was just detected; every call below
                // passes eight slices of one length.
                #[allow(unsafe_code)]
                kernels.push(("avx512", |r, c| unsafe { sq_euclidean_block_avx512(r, c) }));
            }
        }
        let mut ran = Vec::new();
        for (name, kernel) in &kernels {
            for len in [0usize, 1, 7, 8, 9, 15, 1_008, 2_016, 4_031, 4_032] {
                let rows = spread_vectors(BLOCK, len, 0.1);
                let cols = spread_vectors(BLOCK, len, 0.7);
                let got = kernel(
                    std::array::from_fn(|r| rows[r].as_slice()),
                    std::array::from_fn(|c| cols[c].as_slice()),
                );
                for r in 0..BLOCK {
                    for c in 0..BLOCK {
                        assert_eq!(
                            got[r][c].to_bits(),
                            sq_euclidean_scalar(&rows[r], &cols[c]).to_bits(),
                            "{name} len={len} pair=({r}, {c})"
                        );
                    }
                }
            }
            ran.push(*name);
        }
        // The widest path this CPU has must have been checked, not
        // skipped.
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                assert!(
                    ran.contains(&"avx512"),
                    "AVX-512 kernel not checked: {ran:?}"
                );
            }
            if std::arch::is_x86_feature_detected!("avx") {
                assert!(ran.contains(&"avx"), "AVX kernel not checked: {ran:?}");
            }
        }
        assert!(ran.contains(&"portable"));
    }

    #[test]
    fn build_matches_the_per_pair_reference_bit_for_bit() {
        // Point counts straddle the parallel threshold (64), the block
        // (4) and the tile (16); dimensions reach the eight-lane body,
        // a ragged tail, or only the tail; thread counts include odd
        // and oversubscribed ones.
        for dims in [3usize, 8, 13, 1_008] {
            for n in [2usize, 3, 5, 63, 64, 65, 130, 257] {
                let points = spread_vectors(n, dims, 0.3);
                let mut reference = Vec::with_capacity(n * (n - 1) / 2);
                for i in 0..n {
                    for j in i + 1..n {
                        reference.push(euclidean(&points[i], &points[j]).to_bits());
                    }
                }
                for threads in [1usize, 2, 3, 8] {
                    let m = DistanceMatrix::build(&points, threads).unwrap();
                    let got: Vec<u64> = m.data.iter().map(|v| v.to_bits()).collect();
                    assert!(got == reference, "n={n} dims={dims} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn tile_schedule_balances_pairs_across_workers() {
        // Worker w runs the w-th `chunk_len` run of the tile order, so
        // the assignment is a pure function of (n, threads). A
        // contiguous split of 0..T would give the first worker 1.50×
        // the mean at 2 threads and 1.88–1.90× at 8.
        for n in [2_400usize, 9_600] {
            let tiles = (n - 1).div_ceil(TILE_ROWS);
            let order = tile_order(tiles);
            let mut seen = order.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..tiles).collect::<Vec<_>>(), "n={n}");
            let total: usize = (0..tiles).map(|t| tile_cells(n, t)).sum();
            assert_eq!(total, n * (n - 1) / 2);
            for threads in [2usize, 3, 8] {
                let loads: Vec<usize> = order
                    .chunks(towerlens_par::chunk_len(tiles, threads))
                    .map(|run| run.iter().map(|&t| tile_cells(n, t)).sum())
                    .collect();
                assert_eq!(loads.len(), threads, "n={n}");
                let mean = total as f64 / threads as f64;
                let worst = *loads.iter().max().unwrap() as f64 / mean;
                assert!(worst <= 1.10, "n={n} threads={threads}: {worst:.3} × mean");
            }
        }
    }

    #[test]
    fn build_validates_input() {
        assert!(matches!(
            DistanceMatrix::build(&[], 1),
            Err(ClusterError::EmptyInput)
        ));
        assert!(matches!(
            DistanceMatrix::build(&[vec![1.0], vec![1.0, 2.0]], 1),
            Err(ClusterError::DimensionMismatch { .. })
        ));
        // A million values and more: the check runs over the workers
        // and still names the lowest bad point.
        let mut points: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64; 10_500]).collect();
        points[90].push(1.0);
        points[30][4] = f64::INFINITY;
        for threads in [1, 2, 3] {
            assert_eq!(
                DistanceMatrix::build(&points, threads).unwrap_err(),
                ClusterError::NonFinite { index: 30 }
            );
        }
    }

    #[test]
    fn from_condensed_checks_length() {
        assert!(DistanceMatrix::from_condensed(3, vec![1.0, 2.0, 3.0]).is_ok());
        assert_eq!(
            DistanceMatrix::from_condensed(3, vec![1.0]).unwrap_err(),
            ClusterError::CondensedLengthMismatch {
                n: 3,
                expected: 3,
                actual: 1,
            }
        );
        let msg = DistanceMatrix::from_condensed(4, vec![0.0; 5])
            .unwrap_err()
            .to_string();
        assert!(msg.contains("6") && msg.contains("5"), "{msg}");
    }

    #[test]
    fn set_then_get_roundtrips() {
        let mut m = DistanceMatrix::build(&pts(), 1).unwrap();
        m.set(1, 3, 42.0);
        assert_eq!(m.get(3, 1), 42.0);
        m.set(2, 2, 7.0); // silently ignored: diagonal is fixed at 0
        assert_eq!(m.get(2, 2), 0.0);
    }
}
