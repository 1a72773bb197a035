//! Property-based tests (proptest) for the convolution lowering and the
//! blocked GEMM kernels.
//!
//! Most inputs are *integer-valued* floats: every product and partial sum
//! is exactly representable in `f32`, so `Conv2d` (im2col + GEMM) and the
//! direct six-deep loop nest in [`direct_conv_oracle`] must agree to full
//! precision regardless of summation order — far inside the 1e-10
//! equivalence budget. The bit-identity properties (lowering against its
//! per-element oracles, GEMM against the naive loop, the whole layer
//! against the lowered oracle) use non-integer data instead, so that any
//! change to the order of a sum shows. The same holds for the layers that
//! may rewrite an owned input in place (`Layer::forward_owned`), and for
//! `MaxPool2d` against the generic window loop.

use proptest::prelude::*;

use snia_repro::core::parallel::shard_ranges;
use snia_repro::nn::gemm::{gemm_nn, gemm_nt, gemm_tn, naive_matmul};
use snia_repro::nn::layers::{BatchNorm, Conv2d, Flatten, MaxPool2d, PRelu, Padding};
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

/// The per-element `im2col` the lowering replaced: every output column
/// tests its input coordinate. Kept as the bit-level oracle.
fn im2col_oracle(g: &ConvGeom, sample: &[f32]) -> Vec<f32> {
    let (k, h, w) = (g.kernel, g.height, g.width);
    let (out_h, out_w) = (g.out_h(), g.out_w());
    let pad = g.pad as isize;
    let mut col = vec![f32::NAN; g.col_rows() * g.col_cols()];
    for ci in 0..g.channels {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ci * k + ky) * k + kx;
                for oy in 0..out_h {
                    for ox in 0..out_w {
                        let iy = oy as isize + ky as isize - pad;
                        let ix = ox as isize + kx as isize - pad;
                        let inside = iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize;
                        col[(row * out_h + oy) * out_w + ox] = if inside {
                            sample[(ci * h + iy as usize) * w + ix as usize]
                        } else {
                            0.0
                        };
                    }
                }
            }
        }
    }
    col
}

/// The per-element `col2im_add` the lowering replaced, in the same
/// tap-then-output order. Kept as the bit-level oracle.
fn col2im_add_oracle(g: &ConvGeom, col: &[f32], grad_sample: &mut [f32]) {
    let (k, h, w) = (g.kernel, g.height, g.width);
    let (out_h, out_w) = (g.out_h(), g.out_w());
    let pad = g.pad as isize;
    for ci in 0..g.channels {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ci * k + ky) * k + kx;
                for oy in 0..out_h {
                    for ox in 0..out_w {
                        let iy = oy as isize + ky as isize - pad;
                        let ix = ox as isize + kx as isize - pad;
                        if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            grad_sample[(ci * h + iy as usize) * w + ix as usize] +=
                                col[(row * out_h + oy) * out_w + ox];
                        }
                    }
                }
            }
        }
    }
}

/// One convolution case: batch, channels, square planes, kernel and
/// padding policy.
#[derive(Debug, Clone, Copy)]
struct ConvCase {
    n: usize,
    in_c: usize,
    out_c: usize,
    size: usize,
    k: usize,
    same: bool,
}

impl ConvCase {
    fn padding(&self) -> Padding {
        if self.same {
            Padding::Same
        } else {
            Padding::Valid
        }
    }

    fn geom(&self) -> ConvGeom {
        ConvGeom {
            channels: self.in_c,
            height: self.size,
            width: self.size,
            kernel: self.k,
            pad: if self.same { self.k / 2 } else { 0 },
        }
    }

    fn x_len(&self) -> usize {
        self.n * self.in_c * self.size * self.size
    }

    fn w_len(&self) -> usize {
        self.out_c * self.in_c * self.k * self.k
    }

    fn y_len(&self) -> usize {
        self.n * self.out_c * self.geom().col_cols()
    }
}

/// What one training forward + backward of a convolution produces.
#[derive(Debug)]
struct ConvRun {
    y: Vec<f32>,
    dx: Vec<f32>,
    dw: Vec<f32>,
    db: Vec<f32>,
}

impl ConvRun {
    fn zeros(case: ConvCase) -> Self {
        ConvRun {
            y: vec![0.0; case.y_len()],
            dx: vec![0.0; case.x_len()],
            dw: vec![0.0; case.w_len()],
            db: vec![0.0; case.out_c],
        }
    }
}

/// `Conv2d` with weight `w` and bias `b`: a training forward of `x`, then
/// a backward of `dy`.
fn run_conv2d(case: ConvCase, x: &[f32], w: &[f32], b: &[f32], dy: &[f32]) -> ConvRun {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
    let mut conv = Conv2d::new(case.in_c, case.out_c, case.k, case.padding(), &mut rng);
    {
        let mut params = conv.params_mut();
        params[0].value.data_mut().copy_from_slice(w);
        params[1].value.data_mut().copy_from_slice(b);
    }
    let x = Tensor::from_vec(vec![case.n, case.in_c, case.size, case.size], x.to_vec());
    let y = conv.forward(&x, Mode::Train);
    let dy = Tensor::from_vec(y.shape().to_vec(), dy.to_vec());
    let dx = conv.backward(&dy);
    let params = conv.params();
    ConvRun {
        y: y.data().to_vec(),
        dx: dx.data().to_vec(),
        dw: params[0].grad.data().to_vec(),
        db: params[1].grad.data().to_vec(),
    }
}

/// The direct six-deep loop nest `Conv2d` once carried as a second
/// backend: every output sums its bias and in-bounds taps, and backward
/// scatters each output gradient straight into `dx`, `dw` and `db`.
/// Independently written, so it checks the lowering's index arithmetic.
fn direct_conv_oracle(case: ConvCase, x: &[f32], w: &[f32], b: &[f32], dy: &[f32]) -> ConvRun {
    let ConvCase {
        n, in_c, out_c, k, ..
    } = case;
    let g = case.geom();
    let (h, wd, pad) = (g.height, g.width, g.pad as isize);
    let (out_h, out_w) = (g.out_h(), g.out_w());
    // Input and weight index of tap (ci, ky, kx) at output (ni, oc, oy, ox),
    // or `None` in the padding.
    let tap = |ni: usize, oc: usize, oy: usize, ox: usize, ci: usize, ky: usize, kx: usize| {
        let iy = oy as isize + ky as isize - pad;
        let ix = ox as isize + kx as isize - pad;
        if iy < 0 || ix < 0 || iy >= h as isize || ix >= wd as isize {
            return None;
        }
        let xi = ((ni * in_c + ci) * h + iy as usize) * wd + ix as usize;
        Some((xi, ((oc * in_c + ci) * k + ky) * k + kx))
    };
    let mut run = ConvRun::zeros(case);
    for ni in 0..n {
        for (oc, &bias) in b.iter().enumerate() {
            for oy in 0..out_h {
                for ox in 0..out_w {
                    let yi = ((ni * out_c + oc) * out_h + oy) * out_w + ox;
                    let (mut acc, gy) = (bias, dy[yi]);
                    run.db[oc] += gy;
                    for ci in 0..in_c {
                        for ky in 0..k {
                            for kx in 0..k {
                                if let Some((xi, wi)) = tap(ni, oc, oy, ox, ci, ky, kx) {
                                    acc += w[wi] * x[xi];
                                    run.dw[wi] += gy * x[xi];
                                    run.dx[xi] += gy * w[wi];
                                }
                            }
                        }
                    }
                    run.y[yi] = acc;
                }
            }
        }
    }
    run
}

/// `Conv2d`'s computation spelt out per sample with the naive GEMM and
/// the per-element lowering oracles, in the layer's summation order:
/// `W · im2col(x)` then `+ b` per plane; `dW += dy · colᵀ`; `db +=` each
/// plane's left-to-right sum from −0.0; `dx += col2im(Wᵀ · dy)`.
fn lowered_conv_oracle(case: ConvCase, x: &[f32], w: &[f32], b: &[f32], dy: &[f32]) -> ConvRun {
    let g = case.geom();
    let (oc, ckk, owl) = (case.out_c, g.col_rows(), g.col_cols());
    let wt = transpose(w, oc, ckk);
    let mut run = ConvRun::zeros(case);
    let samples = x.chunks_exact(g.sample_len());
    let dys = dy.chunks_exact(oc * owl);
    let ys = run.y.chunks_exact_mut(oc * owl);
    let dxs = run.dx.chunks_exact_mut(g.sample_len());
    for (((sample, dy), y), dx) in samples.zip(dys).zip(ys).zip(dxs) {
        let col = im2col_oracle(&g, sample);
        naive_matmul(w, &col, y, oc, ckk, owl);
        for (plane, &bv) in y.chunks_exact_mut(owl).zip(b) {
            for v in plane {
                *v += bv;
            }
        }
        naive_matmul(dy, &transpose(&col, ckk, owl), &mut run.dw, oc, owl, ckk);
        for (d, plane) in run.db.iter_mut().zip(dy.chunks_exact(owl)) {
            *d += plane.iter().fold(-0.0f32, |acc, &v| acc + v);
        }
        let mut dcol = vec![0.0f32; ckk * owl];
        naive_matmul(&wt, dy, &mut dcol, ckk, oc, owl);
        col2im_add_oracle(&g, &dcol, dx);
    }
    run
}

/// The generic `MaxPool2d` window loop: every window scanned rows then
/// columns from −∞, keeping the first element greater than all before it
/// (the window's own first element when none is). Returns the output and
/// the flat input index each output's gradient goes to. Kept as the
/// oracle for the layer's loop, which stores window offsets instead.
fn max_pool_oracle(x: &[f32], shape: [usize; 4], k: usize) -> (Vec<f32>, Vec<usize>) {
    let [n, c, h, w] = shape;
    let (oh, ow) = (h / k, w / k);
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut argmax = vec![0usize; out.len()];
    for p in 0..n * c {
        let (plane, out_off) = (p * h * w, p * oh * ow);
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = plane + oy * k * w + ox * k;
                for ky in 0..k {
                    for kx in 0..k {
                        let idx = plane + (oy * k + ky) * w + ox * k + kx;
                        if x[idx] > best {
                            best = x[idx];
                            best_idx = idx;
                        }
                    }
                }
                out[out_off + oy * ow + ox] = best;
                argmax[out_off + oy * ow + ox] = best_idx;
            }
        }
    }
    (out, argmax)
}

/// Pooling input drawn from a small set of values, so windows tie, with
/// NaN and −∞ among them; a whole NaN plane and a whole −∞ plane follow
/// the drawn ones when there are at least three planes.
fn pool_data(shape: [usize; 4], seed: u64) -> Vec<f32> {
    const VALUES: [f32; 8] = [
        -1.5,
        0.0,
        -0.0,
        0.75,
        0.75,
        2.25,
        f32::NAN,
        f32::NEG_INFINITY,
    ];
    let [n, c, h, w] = shape;
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x: Vec<f32> = (0..n * c * h * w)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            VALUES[(state >> 33) as usize % VALUES.len()]
        })
        .collect();
    if n * c >= 3 {
        let plane = h * w;
        x[plane..2 * plane].fill(f32::NAN);
        x[2 * plane..3 * plane].fill(f32::NEG_INFINITY);
    }
    x
}

/// A layer through `forward` and through `forward_owned`, each on its
/// own copy made by `make`: the outputs, and after a training forward the
/// input gradients and parameter gradients of a backward of `dy`, must
/// be bit-identical, as must any state the forward updates.
fn check_owned_forward(make: impl Fn() -> Box<dyn Layer>, x: &Tensor, dy_seed: u64) {
    for mode in [Mode::Train, Mode::Eval] {
        let (mut borrowed, mut owned) = (make(), make());
        let y = borrowed.forward(x, mode);
        let y_owned = owned.forward_owned(x.clone(), mode);
        let what = format!("{} {mode:?} {:?}", borrowed.name(), x.shape());
        assert_eq!(y.shape(), y_owned.shape(), "shape {what}");
        assert_eq!(bits(y.data()), bits(y_owned.data()), "forward {what}");
        assert_eq!(
            bits(&borrowed.extra_state()),
            bits(&owned.extra_state()),
            "state {what}"
        );
        if mode == Mode::Train {
            let dy = Tensor::from_vec(y.shape().to_vec(), frac_data(y.len(), dy_seed));
            let dx = borrowed.backward(&dy);
            let dx_owned = owned.backward(&dy);
            assert_eq!(bits(dx.data()), bits(dx_owned.data()), "backward {what}");
            for (p, q) in borrowed.params().iter().zip(owned.params()) {
                assert_eq!(
                    bits(p.grad.data()),
                    bits(q.grad.data()),
                    "{} {what}",
                    p.name
                );
            }
        }
    }
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
        pad in 0usize..3,
    ) {
        prop_assume!(height + 2 * pad >= kernel && width + 2 * pad >= kernel);
        let g = ConvGeom { channels, height, width, kernel, pad };
        let x: Vec<f32> = (0..g.sample_len()).map(|i| (i % 7) as f32 - 3.0).collect();
        let mut col = vec![0.0f32; g.col_rows() * g.col_cols()];
        im2col(&g, &x, &mut col);
        let mut back = vec![0.0f32; g.sample_len()];
        col2im_add(&g, &col, &mut back);

        let (h, w, k) = (g.height, g.width, g.kernel);
        let p = g.pad as isize;
        for ci in 0..g.channels {
            for iy in 0..h {
                for ix in 0..w {
                    let mut cover = 0usize;
                    for oy in 0..g.out_h() {
                        for ox in 0..g.out_w() {
                            let y0 = oy as isize - p;
                            let x0 = ox as isize - p;
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
        pad in 0usize..3,
        seed in 0u64..1000,
    ) {
        prop_assume!(height + 2 * pad >= kernel && width + 2 * pad >= kernel);
        let g = ConvGeom { channels, height, width, kernel, pad };
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

    /// `im2col` and `col2im_add` match the per-element oracles bit for
    /// bit on fractional data: `col2im_add` accumulates into a pre-filled
    /// non-zero gradient, so any change to the order of the additions
    /// shows. Padding and kernels past the plane edges, on non-square
    /// planes.
    #[test]
    fn lowering_is_bit_identical_to_per_element_oracle(
        channels in 1usize..4,
        height in 1usize..10,
        width in 1usize..10,
        kernel in 1usize..6,
        pad in 0usize..4,
        seed in 0u64..1000,
    ) {
        prop_assume!(height + 2 * pad >= kernel && width + 2 * pad >= kernel);
        let g = ConvGeom { channels, height, width, kernel, pad };
        let x = frac_data(g.sample_len(), seed);
        let mut col = vec![f32::NAN; g.col_rows() * g.col_cols()];
        im2col(&g, &x, &mut col);
        prop_assert_eq!(bits(&col), bits(&im2col_oracle(&g, &x)), "im2col {:?}", g);

        let dcol = frac_data(col.len(), seed ^ 0xC01);
        let init = frac_data(g.sample_len(), seed ^ 0x1A1);
        let mut want = init.clone();
        col2im_add_oracle(&g, &dcol, &mut want);
        let mut got = init;
        col2im_add(&g, &dcol, &mut got);
        prop_assert_eq!(bits(&got), bits(&want), "col2im_add {:?}", g);
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

    // ---- Conv2d ----

    /// Forward, input gradient, weight gradient and bias gradient of
    /// `Conv2d` match the direct convolution within 1e-10, across batch,
    /// channels, spatial size, kernel and both padding policies.
    #[test]
    fn conv_matches_direct_oracle(
        n in 1usize..4,
        in_c in 1usize..3,
        out_c in 1usize..4,
        k in prop::sample::select(vec![1usize, 3, 5]),
        size in 5usize..10,
        same in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let case = ConvCase { n, in_c, out_c, size, k, same };
        let x = int_data(case.x_len(), seed);
        let w = int_data(case.w_len(), seed ^ 0xF00D);
        let b = int_data(out_c, seed ^ 0xB1A5);
        let dy: Vec<f32> = (0..case.y_len()).map(|i| (i % 5) as f32 - 2.0).collect();
        let got = run_conv2d(case, &x, &w, &b, &dy);
        let want = direct_conv_oracle(case, &x, &w, &b, &dy);
        for (name, p, q) in [
            ("fwd", &got.y, &want.y),
            ("dx", &got.dx, &want.dx),
            ("dw", &got.dw, &want.dw),
            ("db", &got.db, &want.db),
        ] {
            prop_assert_eq!(p.len(), q.len(), "{} length", name);
            for (p, q) in p.iter().zip(q) {
                prop_assert!(
                    (f64::from(*p) - f64::from(*q)).abs() < 1e-10,
                    "{} {} vs {} ({:?})", name, p, q, case
                );
            }
        }
    }

    /// The whole layer, forward and backward, is bit-identical to the
    /// lowered oracle on fractional data: any change to the order of a
    /// sum in `Conv2d` (bias before the GEMM, a reordered GEMM, a
    /// different bias-gradient reduction) shows in `to_bits`.
    #[test]
    fn conv_is_bit_identical_to_lowered_oracle(
        n in 1usize..3,
        in_c in 1usize..3,
        out_c in 1usize..4,
        k in prop::sample::select(vec![1usize, 3, 5]),
        size in 5usize..10,
        same in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let case = ConvCase { n, in_c, out_c, size, k, same };
        let x = frac_data(case.x_len(), seed);
        let w = frac_data(case.w_len(), seed ^ 0xF00D);
        let b = frac_data(out_c, seed ^ 0xB1A5);
        let dy = frac_data(case.y_len(), seed ^ 0xD1);
        let got = run_conv2d(case, &x, &w, &b, &dy);
        let want = lowered_conv_oracle(case, &x, &w, &b, &dy);
        prop_assert_eq!(bits(&got.y), bits(&want.y), "fwd {:?}", case);
        prop_assert_eq!(bits(&got.dx), bits(&want.dx), "dx {:?}", case);
        prop_assert_eq!(bits(&got.dw), bits(&want.dw), "dw {:?}", case);
        prop_assert_eq!(bits(&got.db), bits(&want.db), "db {:?}", case);
    }

    // ---- MaxPool2d ----

    /// `MaxPool2d` forward (both modes) and the gradient routing of its
    /// backward match the generic window loop bit for bit: ties, NaN and
    /// −∞ windows, odd planes whose trailing row and column are dropped,
    /// windows 2 and 3.
    #[test]
    fn max_pool_matches_generic_window_oracle(
        n in 1usize..3,
        c in 1usize..4,
        h in 3usize..10,
        w in 3usize..10,
        k in 2usize..4,
        seed in 0u64..1000,
    ) {
        let shape = [n, c, h, w];
        let x = Tensor::from_vec(shape.to_vec(), pool_data(shape, seed));
        let (want, argmax) = max_pool_oracle(x.data(), shape, k);
        let mut pool = MaxPool2d::new(k);
        let eval = pool.forward(&x, Mode::Eval);
        let y = pool.forward(&x, Mode::Train);
        prop_assert_eq!(bits(eval.data()), bits(&want), "eval {:?} k={}", shape, k);
        prop_assert_eq!(bits(y.data()), bits(&want), "train {:?} k={}", shape, k);

        let dy = Tensor::from_vec(y.shape().to_vec(), frac_data(y.len(), seed ^ 0xD1));
        let mut want_dx = vec![0.0f32; x.len()];
        for (&idx, &g) in argmax.iter().zip(dy.data()) {
            want_dx[idx] += g;
        }
        let dx = pool.backward(&dy);
        prop_assert_eq!(bits(dx.data()), bits(&want_dx), "backward {:?} k={}", shape, k);
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

/// The layers that rewrite an owned input in place match the
/// per-element expressions they replaced, each written into a fresh
/// output: BatchNorm's eval normalisation, PReLU's activation in both
/// modes and its input gradient, Flatten's row-major reshape. `Conv2d`,
/// the one layer with separate borrowed and owned bodies, is checked
/// owned against borrowed.
#[test]
fn owned_forward_matches_the_per_element_expressions() {
    let seeded = |seed: u64| <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let shapes = [vec![4, 3, 5, 7], vec![2, 6, 1, 9], vec![6, 3]];
    for (i, shape) in shapes.iter().enumerate() {
        let seed = i as u64;
        let channels = shape[1];
        let plane: usize = shape[2..].iter().product();
        let channel = |j: usize| j / plane % channels;
        let mut data = frac_data(shape.iter().product(), seed);
        // Signed zeros, which PReLU and BatchNorm must pass through alike.
        for (j, v) in data.iter_mut().enumerate().step_by(5) {
            *v = if j % 2 == 0 { 0.0 } else { -0.0 };
        }
        let x = Tensor::from_vec(shape.clone(), data);

        let (gamma, beta) = (frac_data(channels, 40), frac_data(channels, 41));
        let stats: Vec<f32> = frac_data(2 * channels, 50)
            .iter()
            .map(|v| v.abs())
            .collect();
        let (mean, var) = stats.split_at(channels);
        let mut bn = BatchNorm::new(channels);
        bn.params_mut()[0].value.data_mut().copy_from_slice(&gamma);
        bn.params_mut()[1].value.data_mut().copy_from_slice(&beta);
        bn.load_extra_state(&stats).expect("running stats fit");
        let want: Vec<f32> = x
            .data()
            .iter()
            .enumerate()
            .map(|(j, &v)| {
                let c = channel(j);
                let inv_std = 1.0 / (var[c] + 1e-5).sqrt();
                gamma[c] * ((v - mean[c]) * inv_std) + beta[c]
            })
            .collect();
        let y = bn.forward_owned(x.clone(), Mode::Eval);
        assert_eq!(bits(y.data()), bits(&want), "BatchNorm eval {shape:?}");

        for slopes in [1, channels] {
            let alpha = frac_data(slopes, 60);
            let slope = |j: usize| alpha[channel(j) % slopes];
            let want: Vec<f32> = x
                .data()
                .iter()
                .enumerate()
                .map(|(j, &v)| if v > 0.0 { v } else { slope(j) * v })
                .collect();
            for mode in [Mode::Eval, Mode::Train] {
                let mut prelu = if slopes == 1 {
                    PRelu::shared()
                } else {
                    PRelu::channelwise(channels)
                };
                prelu.params_mut()[0]
                    .value
                    .data_mut()
                    .copy_from_slice(&alpha);
                let y = prelu.forward_owned(x.clone(), mode);
                let what = format!("PRelu {slopes} slopes {mode:?} {shape:?}");
                assert_eq!(bits(y.data()), bits(&want), "forward {what}");
                if mode == Mode::Train {
                    let dy = frac_data(x.len(), seed ^ 0xD1);
                    let want_dx: Vec<f32> = x
                        .data()
                        .iter()
                        .zip(&dy)
                        .enumerate()
                        .map(|(j, (&v, &g))| if v > 0.0 { g } else { g * slope(j) })
                        .collect();
                    let dx = prelu.backward(&Tensor::from_vec(shape.clone(), dy));
                    assert_eq!(bits(dx.data()), bits(&want_dx), "backward {what}");
                }
            }
        }

        let y = Flatten::new().forward_owned(x.clone(), Mode::Eval);
        assert_eq!(y.shape(), &[shape[0], x.len() / shape[0]]);
        assert_eq!(bits(y.data()), bits(x.data()), "Flatten {shape:?}");

        if shape.len() == 4 {
            for padding in [Padding::Same, Padding::Valid] {
                let conv = || -> Box<dyn Layer> {
                    Box::new(Conv2d::new(channels, 4, 1, padding, &mut seeded(70)))
                };
                check_owned_forward(conv, &x, seed);
            }
            let conv = || -> Box<dyn Layer> {
                Box::new(Conv2d::new(channels, 2, 3, Padding::Same, &mut seeded(71)))
            };
            check_owned_forward(conv, &x, seed);
        }
    }
}
