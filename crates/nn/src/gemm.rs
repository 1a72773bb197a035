//! Packed, register-tiled GEMM for the convolution and linear hot paths.
//!
//! All three entry points *accumulate* (`out += …`) over row-major flat
//! slices, mirroring BLAS semantics with `beta = 1`:
//!
//! * [`gemm_nn`] — `out += A·B` (`A: m×k`, `B: k×n`);
//! * [`gemm_nt`] — `out += A·Bᵀ` (`A: m×k`, `B: n×k`);
//! * [`gemm_tn`] — `out += Aᵀ·B` (`A: k×m`, `B: k×n`).
//!
//! They share one driver over strided views of `A` and `B`. For each `KC`
//! slice of the `k` dimension it packs an `MC×KC` block of `A` into
//! `MR`-row strips, then packs `B` one `NR`-column panel at a time, both
//! zero-padded, into per-thread buffers whose size is capped by the block
//! constants whatever `m` and `n` are. A micro-kernel holds one `MR×NR`
//! tile of `out` in registers for the whole `k` slice: it loads the tile,
//! adds `a·b` for every `p` in ascending order with a separate multiply
//! and add (never a fused multiply-add), and stores it back. Every output
//! element is therefore rounded exactly as the plain `out[i][j] +=
//! a[i][p] · b[p][j]` loop rounds it, and storing and reloading the tile
//! between slices is exact, so all three variants are **bit-identical** to
//! [`naive_matmul`] (kept as the oracle) for any `A` without zero entries
//! (the oracle skips zeros; see its docs). Tiles cut by the edge of `out`
//! run through a stack temporary.
//!
//! There is one micro-kernel, `kernel_portable`, in plain Rust. It is
//! compiled three times: for the build's baseline target, and inside an
//! `avx2`-enabled and an `avx512f`-enabled wrapper (`gemm/x86.rs`). Each
//! call runs the widest build the CPU reports at run time; all three do
//! the same separate multiplies and adds in the same order, so they are
//! bit-identical to one another, and the unit tests check every build the
//! CPU offers against the others. The AVX-512F build holds a tile row in
//! one `zmm` register instead of two `ymm` ones and runs the flux CNN's
//! nine crop-60 conv GEMMs 1.26x faster in total than the AVX2 build on a
//! 2-vCPU AVX-512 host (EXPERIMENTS.md, "AVX-512 eval forward"). A
//! hand-written `std::arch` intrinsics kernel buys nothing: one was
//! bit-identical to the AVX2 wrapper on the flux CNN's nine crop-60 conv
//! GEMMs and no faster (EXPERIMENTS.md, "One GEMM micro-kernel"). The
//! axpy driver the tiled one replaced streamed each output row through
//! `out_row += a · b_row` per `p`; an earlier packed tile had lost to it at the SSE2 baseline, but loading
//! and storing the output row on every multiply-add held it to 3.5–13
//! GFLOP/s on the flux CNN's convolutions. On a 2-vCPU AVX2 host the tiled
//! driver runs those nine GEMM shapes about 3.1x faster in total, and the
//! portable kernel alone 1.4–1.5x faster than axpy (EXPERIMENTS.md,
//! "Register-tiled GEMM").

use std::cell::RefCell;

/// Rows of an `A` strip and of the register tile. 5 divides the flux
/// CNN's channel counts (10/20/30) and `C·K·K` (25/250/500), so its
/// convolutions cut no fringe strips.
const MR: usize = 5;
/// Columns of a `B` panel and of the register tile (two AVX vectors, one
/// AVX-512 vector).
const NR: usize = 16;
/// `k`-dimension block: one packed `B` panel is `KC·NR·4` = 16 KiB.
const KC: usize = 256;
/// `m`-dimension block (a multiple of `MR`): packed `A` is ≤ 120 KiB.
const MC: usize = 120;

/// Per-thread pack buffers, reused across calls so steady-state GEMM
/// does no allocation (the batch executor runs one GEMM stream per worker
/// thread, so per-thread reuse is exactly the right scope). They grow to
/// what a call needs and never beyond `MC·KC` (`A`) and `KC·NR` (one `B`
/// panel) elements.
#[derive(Default)]
struct Pack {
    a: Vec<f32>,
    b: Vec<f32>,
}

thread_local! {
    static PACK: RefCell<Pack> = RefCell::new(Pack::default());
}

/// One operand seen along the `k` axis: element `(x, p)` is
/// `data[x·xs + p·ps]`, where `p` runs over `k` and `x` over the rows of
/// `A` or the columns of `B`. One of the two strides is 1.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    xs: usize,
    ps: usize,
}

impl<'a> View<'a> {
    fn new(data: &'a [f32], xs: usize, ps: usize) -> Self {
        View { data, xs, ps }
    }
}

/// `out += A·B` with `A: m×k`, `B: k×n`, all row-major.
pub fn gemm_nn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    gemm(View::new(a, k, 1), View::new(b, 1, n), out, m, k, n);
}

/// `out += A·Bᵀ` with `A: m×k`, `B: n×k`, all row-major.
pub fn gemm_nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    gemm(View::new(a, k, 1), View::new(b, k, 1), out, m, k, n);
}

/// `out += Aᵀ·B` with `A: k×m`, `B: k×n`, all row-major.
pub fn gemm_tn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    gemm(View::new(a, 1, m), View::new(b, 1, n), out, m, k, n);
}

/// Name of the micro-kernel this CPU runs: `"avx512f"`, `"avx2"` or
/// `"portable"`.
pub fn kernel_name() -> &'static str {
    Kernel::detect().name()
}

/// One build of the micro-kernel. The `x86` builds carry the token that
/// proves the CPU has their feature.
#[derive(Clone, Copy)]
enum Kernel {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2(x86::Avx2),
    #[cfg(target_arch = "x86_64")]
    Avx512(x86::Avx512),
}

impl Kernel {
    /// The widest build this CPU runs.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx512) = x86::Avx512::detect() {
            return Kernel::Avx512(avx512);
        }
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = x86::Avx2::detect() {
            return Kernel::Avx2(avx2);
        }
        Kernel::Portable
    }

    fn name(self) -> &'static str {
        match self {
            Kernel::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2(_) => "avx2",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512(_) => "avx512f",
        }
    }
}

/// Runs the blocked driver with the widest micro-kernel this CPU runs.
fn gemm(a: View<'_>, b: View<'_>, out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    gemm_with(Kernel::detect(), a, b, out, m, k, n);
}

/// The blocked driver with `kernel`, monomorphised per build so each
/// kernel call is a direct call.
fn gemm_with(
    kernel: Kernel,
    a: View<'_>,
    b: View<'_>,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    match kernel {
        Kernel::Portable => blocked(a, b, out, m, k, n, kernel_portable),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2(avx2) => blocked(a, b, out, m, k, n, |kc, ap, bp, c, ldc| {
            avx2.kernel(kc, ap, bp, c, ldc)
        }),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512(avx512) => blocked(a, b, out, m, k, n, |kc, ap, bp, c, ldc| {
            avx512.kernel(kc, ap, bp, c, ldc)
        }),
    }
}

/// The blocked driver: `KC` slices of `k` outermost, so every output tile
/// sees its `p` in ascending order. Within a slice, each packed `B` panel
/// (L1-sized) sweeps the packed `A` block (L2-sized).
fn blocked(
    a: View<'_>,
    b: View<'_>,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    kernel: impl Fn(usize, &[f32], &[f32], &mut [f32], usize),
) {
    PACK.with(|pack| {
        let pack = &mut *pack.borrow_mut();
        for p0 in (0..k).step_by(KC) {
            let kc = KC.min(k - p0);
            for i0 in (0..m).step_by(MC) {
                let mc = MC.min(m - i0);
                pack_panels::<MR>(a, i0, mc, p0, kc, &mut pack.a);
                for j in (0..n).step_by(NR) {
                    let nr = NR.min(n - j);
                    pack_panels::<NR>(b, j, nr, p0, kc, &mut pack.b);
                    for (ip, a_strip) in pack.a.chunks_exact(kc * MR).enumerate() {
                        let i = i0 + ip * MR;
                        let mr = MR.min(i0 + mc - i);
                        if mr == MR && nr == NR {
                            let c = &mut out[i * n + j..(i + MR - 1) * n + j + NR];
                            kernel(kc, a_strip, &pack.b, c, n);
                        } else {
                            // Fringe tile: run the full-size kernel on a
                            // stack copy and write back the valid part.
                            let mut tile = [0.0f32; MR * NR];
                            for r in 0..mr {
                                let row = &out[(i + r) * n + j..][..nr];
                                tile[r * NR..][..nr].copy_from_slice(row);
                            }
                            kernel(kc, a_strip, &pack.b, &mut tile, NR);
                            for r in 0..mr {
                                let row = &mut out[(i + r) * n + j..][..nr];
                                row.copy_from_slice(&tile[r * NR..][..nr]);
                            }
                        }
                    }
                }
            }
        }
    });
}

/// Zero lines that pad the last strip or panel of a pack.
static ZEROS: [f32; KC] = [0.0; KC];

/// Packs lines `x0..x0+len` (rows of `A` or columns of `B`) over
/// `p0..p0+kc` into `W`-line panels: panel `s` holds `(x0+s·W+c, p0+p)` at
/// `s·kc·W + p·W + c`, with lines past `len` zero. Reads run along the
/// operand's contiguous axis.
fn pack_panels<const W: usize>(
    v: View<'_>,
    x0: usize,
    len: usize,
    p0: usize,
    kc: usize,
    buf: &mut Vec<f32>,
) {
    buf.resize(len.div_ceil(W) * kc * W, 0.0);
    for (s, panel) in buf.chunks_exact_mut(kc * W).enumerate() {
        let x = x0 + s * W;
        let width = W.min(x0 + len - x);
        if v.xs == 1 {
            // The W values of one `p` lie side by side.
            for (p, dst) in panel.chunks_exact_mut(W).enumerate() {
                let start = (p0 + p) * v.ps + x;
                if width == W {
                    dst.copy_from_slice(&v.data[start..start + W]);
                } else {
                    dst[..width].copy_from_slice(&v.data[start..start + width]);
                    dst[width..].fill(0.0);
                }
            }
        } else {
            // Each line runs contiguously along `p`: interleave W of them.
            debug_assert_eq!(v.ps, 1);
            let lines: [&[f32]; W] = std::array::from_fn(|c| {
                if c < width {
                    &v.data[(x + c) * v.xs + p0..][..kc]
                } else {
                    &ZEROS[..kc]
                }
            });
            for (p, dst) in panel.chunks_exact_mut(W).enumerate() {
                for (d, line) in dst.iter_mut().zip(&lines) {
                    *d = line[p];
                }
            }
        }
    }
}

/// The micro-kernel: `C[r][c] += Σ_p a[p·MR+r] · b[p·NR+c]` over
/// `p < kc` in ascending order, where `C[r][c]` is `c[r·ldc + c]`.
///
/// Each step reads its `A` and `B` values through fixed-size array views,
/// so the tile loops have constant trip counts and no bounds checks; it is
/// inlined into every caller, so the compiler vectorises the `NR`-wide
/// rows for the caller's target features (two `ymm` vectors per row in
/// `x86`'s AVX2 wrapper, one `zmm` vector in its AVX-512F wrapper).
#[inline(always)]
fn kernel_portable(kc: usize, a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[r * ldc..r * ldc + NR]);
    }
    for (ap, bp) in a[..kc * MR]
        .chunks_exact(MR)
        .zip(b[..kc * NR].chunks_exact(NR))
    {
        let ap: &[f32; MR] = ap.try_into().expect("MR-wide step");
        let bp: &[f32; NR] = bp.try_into().expect("NR-wide step");
        for (row, &av) in acc.iter_mut().zip(ap) {
            for (o, &bv) in row.iter_mut().zip(bp) {
                *o += av * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[r * ldc..r * ldc + NR].copy_from_slice(row);
    }
}

/// The AVX2 and AVX-512F builds of the micro-kernel, the one module in
/// the workspace allowed `unsafe_code`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

/// Reference matrix multiply (`out += A·B`), kept alive as the oracle for
/// the blocked kernels. Deliberately the simple i-p-j loop nest. It skips
/// zero entries of `A`, so it can differ from the blocked kernels where
/// `out` holds `-0.0` or `B` holds a non-finite value.
pub fn naive_matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pseudo-random non-zero floats with full mantissas over a spread of
    /// magnitudes: products and partial sums round, so any change in the
    /// order of the `k` sum changes some output bits.
    fn frac_data(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let unit = ((state >> 40) as f32 + 0.5) / (1u64 << 24) as f32;
                let scale = f32::powi(2.0, (state >> 33) as i32 % 7 - 3);
                let sign = if state >> 63 == 0 { 1.0 } else { -1.0 };
                sign * (0.25 + unit) * scale
            })
            .collect()
    }

    fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut t = vec![0.0f32; x.len()];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = x[r * cols + c];
            }
        }
        t
    }

    fn check_all_variants(m: usize, k: usize, n: usize, seed: u64) {
        let a = frac_data(m * k, seed);
        let b = frac_data(k * n, seed ^ 0xABCD);
        let init = frac_data(m * n, seed ^ 0x1234);
        let mut want = init.clone();
        naive_matmul(&a, &b, &mut want, m, k, n);
        let want = bits(&want);

        let mut got = init.clone();
        gemm_nn(&a, &b, &mut got, m, k, n);
        assert_eq!(bits(&got), want, "gemm_nn {m}x{k}x{n}");

        let mut got = init.clone();
        gemm_nt(&a, &transpose(&b, k, n), &mut got, m, k, n);
        assert_eq!(bits(&got), want, "gemm_nt {m}x{k}x{n}");

        let mut got = init;
        gemm_tn(&transpose(&a, m, k), &b, &mut got, m, k, n);
        assert_eq!(bits(&got), want, "gemm_tn {m}x{k}x{n}");
    }

    #[test]
    fn matches_naive_on_small_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (2, 3, 4),
            (3, 5, 7),
            (4, 16, 16),
            (5, 17, 19),
            (7, 1, 33),
        ] {
            check_all_variants(m, k, n, (m * 1000 + k * 10 + n) as u64);
        }
    }

    #[test]
    fn matches_naive_across_block_boundaries() {
        // Shapes straddling the MR/NR tile and KC/MC block edges
        // exercise the fringe paths.
        for &(m, k, n) in &[
            (MR, KC, NR),
            (MR + 1, KC + 3, NR + 1),
            (2 * MR - 1, KC - 1, 2 * NR - 1),
            (MC + 7, 2 * KC + 5, 3 * NR + 7),
            (10, 25, 3600), // conv1's forward at crop 60
        ] {
            check_all_variants(m, k, n, (m + k + n) as u64);
        }
    }

    /// Every build of the micro-kernel this CPU runs, portable first,
    /// named on stderr so a test log shows which builds were checked.
    fn available_kernels() -> Vec<Kernel> {
        #[allow(unused_mut)]
        let mut kernels = vec![Kernel::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            kernels.extend(x86::Avx2::detect().map(Kernel::Avx2));
            kernels.extend(x86::Avx512::detect().map(Kernel::Avx512));
        }
        let names: Vec<_> = kernels.iter().map(|k| k.name()).collect();
        eprintln!("GEMM micro-kernel builds on this CPU: {names:?}");
        kernels
    }

    fn run_kernel(kernel: Kernel, kc: usize, a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
        match kernel {
            Kernel::Portable => kernel_portable(kc, a, b, c, ldc),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2(avx2) => avx2.kernel(kc, a, b, c, ldc),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512(avx512) => avx512.kernel(kc, a, b, c, ldc),
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn kernel_builds_are_bit_identical() {
        let kernels = available_kernels();
        for (kc, ldc) in [(1, NR), (7, NR + 3), (KC, 40)] {
            let a = frac_data(kc * MR, kc as u64);
            let b = frac_data(kc * NR, ldc as u64);
            let c0 = frac_data((MR - 1) * ldc + NR, 99);
            let mut want = c0.clone();
            kernel_portable(kc, &a, &b, &mut want, ldc);
            for &kernel in &kernels {
                let mut got = c0.clone();
                run_kernel(kernel, kc, &a, &b, &mut got, ldc);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{} kc={kc} ldc={ldc}",
                    kernel.name()
                );
            }
        }
    }

    /// The whole driver with each build, at the nine GEMMs the flux CNN's
    /// convolutions run at crop 60 (forward `nn`, weight gradient `nt`,
    /// input gradient `tn`): bit-identical to the oracle and to one
    /// another. Only this test runs the narrower builds on a CPU that has
    /// a wider one.
    #[test]
    fn driver_is_bit_identical_with_every_kernel_build() {
        let kernels = available_kernels();
        let (mut side, mut in_ch) = (60usize, 1usize);
        for out_ch in [10usize, 20, 30] {
            let (oc, ckk, owl) = (out_ch, in_ch * 25, side * side);
            // (variant, m, k, n, A strides, B strides) as conv.rs calls them.
            for (variant, m, k, n, a_t, b_t) in [
                ("nn", oc, ckk, owl, false, false),
                ("nt", oc, owl, ckk, false, true),
                ("tn", ckk, oc, owl, true, false),
            ] {
                let seed = (m * 7 + k * 3 + n) as u64;
                let a = frac_data(m * k, seed);
                let b = frac_data(k * n, seed ^ 0xABCD);
                let init = frac_data(m * n, seed ^ 0x1234);
                let mut want = init.clone();
                naive_matmul(&a, &b, &mut want, m, k, n);
                let a_stored = if a_t { transpose(&a, m, k) } else { a.clone() };
                let b_stored = if b_t { transpose(&b, k, n) } else { b.clone() };
                let a_view = if a_t {
                    View::new(&a_stored, 1, m)
                } else {
                    View::new(&a_stored, k, 1)
                };
                let b_view = if b_t {
                    View::new(&b_stored, k, 1)
                } else {
                    View::new(&b_stored, 1, n)
                };
                for &kernel in &kernels {
                    let mut got = init.clone();
                    gemm_with(kernel, a_view, b_view, &mut got, m, k, n);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{} {variant} {m}x{k}x{n}",
                        kernel.name()
                    );
                }
            }
            side /= 2;
            in_ch = out_ch;
        }
    }

    #[test]
    fn kernel_name_is_the_widest_build() {
        let widest = *available_kernels().last().expect("portable always runs");
        eprintln!("gemm::kernel_name() = {}", kernel_name());
        assert_eq!(kernel_name(), widest.name());
    }

    #[test]
    fn accumulates_into_out() {
        let a = frac_data(2 * 3, 1);
        let b = frac_data(3 * 2, 2);
        let mut base = vec![1.0f32, -2.0, 3.0, -4.0];
        let mut want = base.clone();
        naive_matmul(&a, &b, &mut want, 2, 3, 2);
        gemm_nn(&a, &b, &mut base, 2, 3, 2);
        assert_eq!(base, want);
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut empty: Vec<f32> = vec![];
        gemm_nn(&[], &[], &mut empty, 0, 0, 0);
        assert!(empty.is_empty());
        // k = 0: out has m·n elements but nothing is accumulated.
        let mut out = vec![5.0f32; 4];
        gemm_nn(&[], &[], &mut out, 2, 0, 2);
        assert_eq!(out, vec![5.0; 4]);
        let mut out = vec![5.0f32; 4];
        gemm_nt(&[], &[], &mut out, 2, 0, 2);
        assert_eq!(out, vec![5.0; 4]);
    }
}
