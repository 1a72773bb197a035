//! Property-based tests (proptest) for the convolution lowering and the
//! blocked GEMM kernels.
//!
//! Most inputs are *integer-valued* floats: every product and partial sum
//! is exactly representable in `f32`, so the lowered (im2col + GEMM) and
//! naive convolution paths must agree to full precision regardless of
//! summation order — far inside the 1e-10 equivalence budget. The GEMM
//! bit-identity property uses non-integer data instead, so that any
//! change to the order of the `k` sum shows.

use proptest::prelude::*;

use snia_repro::core::parallel::shard_ranges;
use snia_repro::nn::gemm::{gemm_nn, gemm_nt, gemm_tn, naive_matmul};
use snia_repro::nn::layers::{Conv2d, ConvBackend, Padding};
use snia_repro::nn::lowering::{col2im_add, im2col, ConvGeom};
use snia_repro::nn::{Layer, Mode, Tensor};

/// Deterministic integer-valued data in `{-4,…,4}` (exact in `f32`).
fn int_data(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 9) as f32 - 4.0
        })
        .collect()
}

/// Deterministic finite, non-zero, non-integer data with full mantissas
/// over magnitudes 2⁻³…2³: products and partial sums round, so a
/// reordered sum changes output bits. Non-zero because `naive_matmul`
/// skips zero entries of `A`.
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

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- im2col / col2im ----

    /// `col2im(im2col(x))` multiplies each input element by the number of
    /// kernel windows covering it — computed here independently by
    /// counting window hits position by position.
    #[test]
    fn im2col_col2im_round_trip_is_coverage_count(
        channels in 1usize..4,
        height in 1usize..10,
        width in 1usize..10,
        kernel in 1usize..6,
        stride in 1usize..4,
        pad in 0usize..3,
    ) {
        prop_assume!(height + 2 * pad >= kernel && width + 2 * pad >= kernel);
        let g = ConvGeom { channels, height, width, kernel, stride, pad };
        let x: Vec<f32> = (0..g.sample_len()).map(|i| (i % 7) as f32 - 3.0).collect();
        let mut col = vec![0.0f32; g.col_rows() * g.col_cols()];
        im2col(&g, &x, &mut col);
        let mut back = vec![0.0f32; g.sample_len()];
        col2im_add(&g, &col, &mut back);

        let (h, w, k, s) = (g.height, g.width, g.kernel, g.stride);
        let p = g.pad as isize;
        for ci in 0..g.channels {
            for iy in 0..h {
                for ix in 0..w {
                    let mut cover = 0usize;
                    for oy in 0..g.out_h() {
                        for ox in 0..g.out_w() {
                            let y0 = (oy * s) as isize - p;
                            let x0 = (ox * s) as isize - p;
                            let (yy, xx) = (iy as isize, ix as isize);
                            if yy >= y0 && yy < y0 + k as isize && xx >= x0 && xx < x0 + k as isize
                            {
                                cover += 1;
                            }
                        }
                    }
                    let idx = (ci * h + iy) * w + ix;
                    prop_assert_eq!(back[idx], x[idx] * cover as f32, "at {}", idx);
                }
            }
        }
    }

    /// The adjoint identity `⟨im2col(x), y⟩ = ⟨x, col2im(y)⟩` — exact for
    /// integer data, and the property the conv backward pass rests on.
    #[test]
    fn im2col_col2im_adjoint(
        channels in 1usize..4,
        height in 1usize..10,
        width in 1usize..10,
        kernel in 1usize..6,
        stride in 1usize..4,
        pad in 0usize..3,
        seed in 0u64..1000,
    ) {
        prop_assume!(height + 2 * pad >= kernel && width + 2 * pad >= kernel);
        let g = ConvGeom { channels, height, width, kernel, stride, pad };
        let x = int_data(g.sample_len(), seed);
        let cols = g.col_rows() * g.col_cols();
        let y = int_data(cols, seed ^ 0x5EED);
        let mut cx = vec![0.0f32; cols];
        im2col(&g, &x, &mut cx);
        let mut cty = vec![0.0f32; g.sample_len()];
        col2im_add(&g, &y, &mut cty);
        let lhs: f64 = cx.iter().zip(&y).map(|(a, b)| f64::from(a * b)).sum();
        let rhs: f64 = x.iter().zip(&cty).map(|(a, b)| f64::from(a * b)).sum();
        prop_assert!((lhs - rhs).abs() < 1e-10, "⟨Ax,y⟩={} vs ⟨x,Aᵀy⟩={}", lhs, rhs);
    }

    // ---- GEMM vs naive ----

    #[test]
    fn gemm_variants_match_naive(
        m in 1usize..25,
        k in 1usize..41,
        n in 1usize..49,
        seed in 0u64..1000,
    ) {
        let a = int_data(m * k, seed);
        let b = int_data(k * n, seed ^ 0xABCD);
        let mut want = vec![0.0f32; m * n];
        naive_matmul(&a, &b, &mut want, m, k, n);

        let mut got = vec![0.0f32; m * n];
        gemm_nn(&a, &b, &mut got, m, k, n);
        prop_assert_eq!(&got, &want, "gemm_nn");

        let mut bt = vec![0.0f32; n * k];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        let mut got = vec![0.0f32; m * n];
        gemm_nt(&a, &bt, &mut got, m, k, n);
        prop_assert_eq!(&got, &want, "gemm_nt");

        let mut at = vec![0.0f32; k * m];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut got = vec![0.0f32; m * n];
        gemm_tn(&at, &b, &mut got, m, k, n);
        prop_assert_eq!(&got, &want, "gemm_tn");
    }

    /// All three GEMM variants round every output exactly as the naive
    /// i-p-j loop does: `to_bits` equality on order-sensitive data, into a
    /// pre-filled `out`, on shapes straddling the register tile (5×16)
    /// and the 256-deep `k` block.
    #[test]
    fn gemm_variants_are_bit_identical_to_naive_on_fractional_data(
        m in 1usize..13,
        k in prop::sample::select(vec![1usize, 2, 7, 31, 255, 256, 257, 300]),
        n in 1usize..50,
        seed in 0u64..1000,
    ) {
        let a = frac_data(m * k, seed);
        let b = frac_data(k * n, seed ^ 0xABCD);
        let init = frac_data(m * n, seed ^ 0x1234);
        let mut want = init.clone();
        naive_matmul(&a, &b, &mut want, m, k, n);
        let want = bits(&want);

        let mut got = init.clone();
        gemm_nn(&a, &b, &mut got, m, k, n);
        prop_assert_eq!(bits(&got), want.clone(), "gemm_nn {}x{}x{}", m, k, n);

        let mut got = init.clone();
        gemm_nt(&a, &transpose(&b, k, n), &mut got, m, k, n);
        prop_assert_eq!(bits(&got), want.clone(), "gemm_nt {}x{}x{}", m, k, n);

        let mut got = init;
        gemm_tn(&transpose(&a, m, k), &b, &mut got, m, k, n);
        prop_assert_eq!(bits(&got), want, "gemm_tn {}x{}x{}", m, k, n);
    }

    // ---- conv backends ----

    /// Forward and full backward equivalence of the im2col/GEMM and naive
    /// conv backends within 1e-10, across batch, channels, spatial size and
    /// both padding policies.
    #[test]
    fn conv_backends_equivalent(
        n in 1usize..4,
        in_c in 1usize..3,
        out_c in 1usize..4,
        k in prop::sample::select(vec![1usize, 3, 5]),
        size in 5usize..10,
        same in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let padding = if same { Padding::Same } else { Padding::Valid };
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
        let mut a = Conv2d::new(in_c, out_c, k, padding, &mut rng);
        let mut b = Conv2d::new(in_c, out_c, k, padding, &mut rng);
        b.set_backend(ConvBackend::NaiveReference);
        // Integer weights and biases shared by both layers.
        for conv in [&mut a, &mut b] {
            let mut params = conv.params_mut();
            let wlen = params[0].value.len();
            params[0].value.data_mut().copy_from_slice(&int_data(wlen, seed ^ 0xF00D));
            let blen = params[1].value.len();
            params[1].value.data_mut().copy_from_slice(&int_data(blen, seed ^ 0xB1A5));
        }

        let x = Tensor::from_vec(
            vec![n, in_c, size, size],
            int_data(n * in_c * size * size, seed),
        );
        let ya = a.forward(&x, Mode::Train);
        let yb = b.forward(&x, Mode::Train);
        prop_assert_eq!(ya.shape(), yb.shape());
        for (p, q) in ya.data().iter().zip(yb.data()) {
            prop_assert!((f64::from(*p) - f64::from(*q)).abs() < 1e-10, "fwd {} vs {}", p, q);
        }

        let g = Tensor::from_vec(
            ya.shape().to_vec(),
            (0..ya.len()).map(|i| (i % 5) as f32 - 2.0).collect(),
        );
        let gxa = a.backward(&g);
        let gxb = b.backward(&g);
        for (p, q) in gxa.data().iter().zip(gxb.data()) {
            prop_assert!((f64::from(*p) - f64::from(*q)).abs() < 1e-10, "dx {} vs {}", p, q);
        }
        for (pa, pb) in a.params().iter().zip(b.params()) {
            for (p, q) in pa.grad.data().iter().zip(pb.grad.data()) {
                prop_assert!(
                    (f64::from(*p) - f64::from(*q)).abs() < 1e-10,
                    "{} grad {} vs {}", pa.name, p, q
                );
            }
        }
    }

    // ---- executor sharding ----

    #[test]
    fn shard_ranges_partition_the_batch(total in 0usize..200, shards in 1usize..9) {
        let ranges = shard_ranges(total, shards);
        prop_assert_eq!(ranges.len(), shards);
        let mut expected_start = 0usize;
        for r in &ranges {
            prop_assert_eq!(r.start, expected_start);
            expected_start = r.end;
        }
        prop_assert_eq!(expected_start, total);
        let (min, max) = ranges
            .iter()
            .fold((usize::MAX, 0), |(lo, hi), r| (lo.min(r.len()), hi.max(r.len())));
        prop_assert!(max - min <= 1, "unbalanced shards: {:?}", ranges);
    }
}
