//! The AVX2 build of the GEMM micro-kernel. [`kernel_avx2`] compiles
//! [`super::kernel_portable`] with AVX2 enabled; it runs only behind an
//! [`Avx2`] token, which [`Avx2::detect`] hands out when the CPU reports
//! AVX2. The driver in the parent module calls the baseline build
//! otherwise.
//!
//! The wrapper compiles to the loop hand-written `std::arch` intrinsics
//! would give (ten `ymm` accumulators, a broadcast per `A` value, separate
//! multiply and add); an intrinsics version measured no faster over 20
//! alternating `conv_bench` rounds (EXPERIMENTS.md, "One GEMM
//! micro-kernel").

use super::kernel_portable;

/// Proof that the running CPU has AVX2; only [`Avx2::detect`] makes
/// one.
#[derive(Clone, Copy)]
pub(super) struct Avx2(());

impl Avx2 {
    pub(super) fn detect() -> Option<Self> {
        is_x86_feature_detected!("avx2").then_some(Avx2(()))
    }

    /// [`super::kernel_portable`], compiled for AVX2.
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
    kernel_portable(kc, a, b, c, ldc)
}
