//! The AVX2 and AVX-512F builds of the GEMM micro-kernel. [`kernel_avx2`]
//! and [`kernel_avx512`] compile [`super::kernel_portable`] with those
//! features enabled; each runs only behind a token ([`Avx2`], [`Avx512`])
//! that its `detect` hands out when the CPU reports the feature. The
//! driver in the parent module prefers AVX-512F, then AVX2, and calls the
//! baseline build otherwise.
//!
//! The AVX2 wrapper compiles to the loop hand-written `std::arch`
//! intrinsics would give (ten `ymm` accumulators, a broadcast per `A`
//! value, separate multiply and add); an intrinsics version measured no
//! faster over 20 alternating `conv_bench` rounds (EXPERIMENTS.md, "One
//! GEMM micro-kernel"). The AVX-512F wrapper holds each 16-wide tile row
//! in one `zmm` register: five accumulators, `{1to16}` broadcasts of the
//! `A` values, and still a separate `vmulps` and `vaddps` per step (the
//! feature set enables no FMA), so all three builds round every output
//! element identically.

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

/// Proof that the running CPU has AVX-512F; only [`Avx512::detect`]
/// makes one.
#[derive(Clone, Copy)]
pub(super) struct Avx512(());

impl Avx512 {
    pub(super) fn detect() -> Option<Self> {
        is_x86_feature_detected!("avx512f").then_some(Avx512(()))
    }

    /// [`super::kernel_portable`], compiled for AVX-512F.
    #[inline]
    pub(super) fn kernel(self, kc: usize, a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
        // SAFETY: `self` exists only if `detect` found AVX-512F on this
        // CPU.
        unsafe { kernel_avx512(kc, a, b, c, ldc) }
    }
}

/// Calling it is `unsafe` from code not compiled for AVX2: the caller
/// must make sure the CPU has AVX2, which holding an [`Avx2`] proves.
#[target_feature(enable = "avx2")]
fn kernel_avx2(kc: usize, a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
    kernel_portable(kc, a, b, c, ldc)
}

/// Calling it is `unsafe` from code not compiled for AVX-512F: the caller
/// must make sure the CPU has AVX-512F, which holding an [`Avx512`]
/// proves.
#[target_feature(enable = "avx512f")]
fn kernel_avx512(kc: usize, a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
    kernel_portable(kc, a, b, c, ldc)
}
