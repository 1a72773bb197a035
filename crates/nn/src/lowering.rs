//! Convolution lowering: im2col / col2im.
//!
//! [`im2col`] unrolls one `(C, H, W)` sample into a `(C·K·K, OH·OW)`
//! column matrix so that convolution becomes a single GEMM against the
//! `(OC, C·K·K)` weight matrix; [`col2im_add`] is its exact adjoint,
//! scattering a column-matrix gradient back onto the input plane. Both
//! cover exactly the geometry [`Conv2d`] uses: stride 1 and symmetric
//! zero padding.
//!
//! [`Conv2d`]: crate::layers::Conv2d

use std::ops::Range;

/// Geometry of one lowered stride-1 convolution: input plane, kernel and
/// symmetric zero padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels.
    pub channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Symmetric zero padding (both axes).
    pub pad: usize,
}

impl ConvGeom {
    /// Output height: `H + 2·pad − K + 1`.
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel.
    pub fn out_h(&self) -> usize {
        let padded = self.height + 2 * self.pad;
        assert!(padded >= self.kernel, "input too small for kernel");
        padded - self.kernel + 1
    }

    /// Output width: `W + 2·pad − K + 1`.
    pub fn out_w(&self) -> usize {
        let padded = self.width + 2 * self.pad;
        assert!(padded >= self.kernel, "input too small for kernel");
        padded - self.kernel + 1
    }

    /// Rows of the column matrix (`C·K·K`).
    pub fn col_rows(&self) -> usize {
        self.channels * self.kernel * self.kernel
    }

    /// Columns of the column matrix (`OH·OW`).
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Elements of one input sample (`C·H·W`).
    pub fn sample_len(&self) -> usize {
        self.channels * self.height * self.width
    }
}

/// The output positions `o` in `0..outs` whose input coordinate
/// `o + tap − pad` lies in `0..len`, and the input coordinate of the
/// first of them (0 when there is none).
fn span(len: usize, outs: usize, tap: usize, pad: usize) -> (Range<usize>, usize) {
    // o ≥ pad − tap
    let lo = pad.saturating_sub(tap);
    // o ≤ len − 1 + pad − tap
    let hi = (len + pad).saturating_sub(tap).min(outs);
    if lo < hi {
        (lo..hi, lo + tap - pad)
    } else {
        (0..0, 0)
    }
}

/// Lowers one `(C, H, W)` sample into the `(C·K·K, OH·OW)` column matrix.
///
/// Every element of `col` is written (out-of-bounds taps become zero), so
/// the buffer may be reused across calls without clearing. Each kernel
/// tap's in-bounds output range is computed once; rows are copied in
/// bulk and the padding border is zero-filled around them.
///
/// # Panics
///
/// Panics if the slice lengths do not match the geometry.
pub fn im2col(g: &ConvGeom, sample: &[f32], col: &mut [f32]) {
    assert_eq!(sample.len(), g.sample_len(), "im2col input length");
    assert_eq!(col.len(), g.col_rows() * g.col_cols(), "im2col col length");
    let (k, pad) = (g.kernel, g.pad);
    let (h, w) = (g.height, g.width);
    let (out_h, out_w) = (g.out_h(), g.out_w());
    if h * w == 0 {
        col.fill(0.0);
        return;
    }
    let mut rows = col.chunks_exact_mut(out_h * out_w);
    for plane in sample.chunks_exact(h * w) {
        for ky in 0..k {
            let (oys, iy0) = span(h, out_h, ky, pad);
            for kx in 0..k {
                let (oxs, ix0) = span(w, out_w, kx, pad);
                let dst = rows.next().expect("one column row per tap");
                let (above, rest) = dst.split_at_mut(oys.start * out_w);
                let (mid, below) = rest.split_at_mut(oys.len() * out_w);
                above.fill(0.0);
                below.fill(0.0);
                let src_rows = plane.chunks_exact(w).skip(iy0);
                for (dst_row, src_row) in mid.chunks_exact_mut(out_w).zip(src_rows) {
                    let (left, rest) = dst_row.split_at_mut(oxs.start);
                    let (inside, right) = rest.split_at_mut(oxs.len());
                    left.fill(0.0);
                    right.fill(0.0);
                    inside.copy_from_slice(&src_row[ix0..ix0 + inside.len()]);
                }
            }
        }
    }
}

/// Scatters a `(C·K·K, OH·OW)` column-matrix gradient back onto a
/// `(C, H, W)` input gradient, accumulating overlapping taps — the exact
/// adjoint of [`im2col`]. Each input element receives its additions in
/// tap-then-output order, so the result does not depend on how the
/// in-bounds ranges are found.
///
/// # Panics
///
/// Panics if the slice lengths do not match the geometry.
pub fn col2im_add(g: &ConvGeom, col: &[f32], grad_sample: &mut [f32]) {
    assert_eq!(grad_sample.len(), g.sample_len(), "col2im output length");
    assert_eq!(col.len(), g.col_rows() * g.col_cols(), "col2im col length");
    let (k, pad) = (g.kernel, g.pad);
    let (h, w) = (g.height, g.width);
    let (out_h, out_w) = (g.out_h(), g.out_w());
    if h * w == 0 {
        return;
    }
    let mut rows = col.chunks_exact(out_h * out_w);
    for plane in grad_sample.chunks_exact_mut(h * w) {
        for ky in 0..k {
            let (oys, iy0) = span(h, out_h, ky, pad);
            for kx in 0..k {
                let (oxs, ix0) = span(w, out_w, kx, pad);
                let src = rows.next().expect("one column row per tap");
                let mid = &src[oys.start * out_w..oys.end * out_w];
                let dst_rows = plane.chunks_exact_mut(w).skip(iy0);
                for (src_row, dst_row) in mid.chunks_exact(out_w).zip(dst_rows) {
                    for (d, &v) in dst_row[ix0..].iter_mut().zip(&src_row[oxs.clone()]) {
                        *d += v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(c: usize, h: usize, w: usize, k: usize, pad: usize) -> ConvGeom {
        ConvGeom {
            channels: c,
            height: h,
            width: w,
            kernel: k,
            pad,
        }
    }

    #[test]
    fn out_sizes() {
        assert_eq!(geom(1, 65, 65, 5, 2).out_h(), 65);
        assert_eq!(geom(1, 65, 65, 5, 0).out_h(), 61);
        assert_eq!(geom(1, 7, 9, 3, 0).out_h(), 5);
        assert_eq!(geom(1, 7, 9, 3, 0).out_w(), 7);
    }

    #[test]
    fn identity_kernel_is_copy() {
        // K=1, no padding: the column matrix is the input.
        let g = geom(2, 3, 3, 1, 0);
        let x: Vec<f32> = (0..g.sample_len()).map(|i| i as f32).collect();
        let mut col = vec![f32::NAN; g.col_rows() * g.col_cols()];
        im2col(&g, &x, &mut col);
        assert_eq!(col, x);
    }

    #[test]
    fn overwrites_stale_buffer_contents() {
        // Padding taps must be written as zero even when the buffer holds
        // garbage from a previous call (the scratch-reuse contract).
        let g = geom(1, 2, 2, 3, 1);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let mut col = vec![f32::NAN; g.col_rows() * g.col_cols()];
        im2col(&g, &x, &mut col);
        assert!(col.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn adjoint_identity_exact() {
        // ⟨im2col(x), y⟩ == ⟨x, col2im(y)⟩ for integer data (exact in f32).
        let g = geom(2, 6, 5, 3, 1);
        let x: Vec<f32> = (0..g.sample_len()).map(|i| (i % 7) as f32 - 3.0).collect();
        let cols = g.col_rows() * g.col_cols();
        let y: Vec<f32> = (0..cols).map(|i| (i % 5) as f32 - 2.0).collect();
        let mut cx = vec![0.0; cols];
        im2col(&g, &x, &mut cx);
        let mut cty = vec![0.0; g.sample_len()];
        col2im_add(&g, &y, &mut cty);
        let lhs: f32 = cx.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&cty).map(|(a, b)| a * b).sum();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn col2im_accumulates() {
        let g = geom(1, 3, 3, 3, 1);
        let cols = g.col_rows() * g.col_cols();
        let mut grad = vec![1.0f32; g.sample_len()];
        col2im_add(&g, &vec![0.0; cols], &mut grad);
        assert_eq!(grad, vec![1.0; 9]);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn kernel_larger_than_padded_input_panics() {
        geom(1, 2, 2, 5, 0).out_h();
    }
}
