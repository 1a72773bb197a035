//! The AVX2 GEMM micro-kernel, written with `std::arch` intrinsics. It
//! runs only behind an [`Avx2`] token, which [`Avx2::detect`] hands out
//! when the CPU reports AVX2; the driver in the parent module falls back
//! to the portable kernel otherwise.

use super::{MR, NR};
use std::arch::x86_64::{
    __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
};

/// Proof that the running CPU has AVX2; only [`Avx2::detect`] makes
/// one.
#[derive(Clone, Copy)]
pub(super) struct Avx2(());

impl Avx2 {
    pub(super) fn detect() -> Option<Self> {
        is_x86_feature_detected!("avx2").then_some(Avx2(()))
    }

    /// Same contract and rounding as [`super::kernel_portable`].
    #[inline]
    pub(super) fn kernel(self, kc: usize, a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
        // SAFETY: `self` exists only if `detect` found AVX2 on this CPU.
        unsafe { kernel_avx2(kc, a, b, c, ldc) }
    }
}

/// Calling it is `unsafe` from code not compiled for AVX2: the caller
/// must make sure the CPU has AVX2, which holding an [`Avx2`] proves.
#[target_feature(enable = "avx2")]
fn kernel_avx2(kc: usize, a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
    assert!(a.len() >= kc * MR && b.len() >= kc * NR);
    assert!(ldc >= NR && c.len() >= (MR - 1) * ldc + NR);
    // SAFETY: the asserts above keep every pointer below in bounds:
    // row `r < MR` of the tile reads and writes `c[r·ldc..r·ldc+NR]`,
    // step `p < kc` reads `a[p·MR..p·MR+MR]` and `b[p·NR..p·NR+NR]`.
    // Unaligned loads and stores have no alignment requirement.
    unsafe {
        let cp = c.as_mut_ptr();
        let mut acc: [[__m256; 2]; MR] = [[_mm256_set1_ps(0.0); 2]; MR];
        for (r, row) in acc.iter_mut().enumerate() {
            row[0] = _mm256_loadu_ps(cp.add(r * ldc));
            row[1] = _mm256_loadu_ps(cp.add(r * ldc + 8));
        }
        let (mut ap, mut bp) = (a.as_ptr(), b.as_ptr());
        for _ in 0..kc {
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            for (r, row) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*ap.add(r));
                row[0] = _mm256_add_ps(row[0], _mm256_mul_ps(av, b0));
                row[1] = _mm256_add_ps(row[1], _mm256_mul_ps(av, b1));
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        for (r, row) in acc.iter().enumerate() {
            _mm256_storeu_ps(cp.add(r * ldc), row[0]);
            _mm256_storeu_ps(cp.add(r * ldc + 8), row[1]);
        }
    }
}
