//! Bit-exact reductions over channel planes, shared by [`BatchNorm`],
//! [`PRelu`] and [`Conv2d`].
//!
//! A plane is one contiguous `(sample, channel)` run of an `(N, C, L)`
//! tensor. Two reductions run several independent sums in lockstep, which
//! hides the add latency without reordering any single sum:
//!
//! - [`plane_sums`] / [`plane_sums_by`] sum each plane on its own, left to
//!   right from −0.0, which is exactly what `Iterator::<f32>::sum` does,
//!   eight planes at a time;
//! - [`channel_sums`] sums each channel through all of its planes, from
//!   +0.0 in (sample, position) order, four channels at a time.
//!
//! [`BatchNorm`]: crate::layers::BatchNorm
//! [`PRelu`]: crate::layers::PRelu
//! [`Conv2d`]: crate::layers::Conv2d

/// Planes summed in lockstep.
const LANES: usize = 8;

/// `out[p] = Σ_j x_pj` over the `out.len()` consecutive `len`-long planes
/// of `data`.
pub(crate) fn plane_sums(data: &[f32], len: usize, out: &mut [f32]) {
    plane_sums_by(data, len, out, |_| 0.0, |x, _| x);
}

/// `out[p] = Σ_j term(x_pj, param(p))` over the `out.len()` consecutive
/// `len`-long planes of `data`, each summed left to right from −0.0.
/// `param` is called once per plane.
///
/// # Panics
///
/// Panics if `len == 0` or `data.len() != len · out.len()`.
pub(crate) fn plane_sums_by(
    data: &[f32],
    len: usize,
    out: &mut [f32],
    param: impl Fn(usize) -> f32,
    term: impl Fn(f32, f32) -> f32,
) {
    assert!(len > 0, "plane length must be positive");
    assert_eq!(data.len(), len * out.len(), "plane_sums length");
    let mut groups = data.chunks_exact(LANES * len);
    let mut sums = out.chunks_exact_mut(LANES);
    let mut p0 = 0;
    for (group, sums) in (&mut groups).zip(&mut sums) {
        let planes: [&[f32]; LANES] = std::array::from_fn(|k| &group[k * len..(k + 1) * len]);
        let params: [f32; LANES] = std::array::from_fn(|k| param(p0 + k));
        let mut acc = [-0.0f32; LANES];
        // Position-major over the eight planes: `j` indexes each of them.
        #[allow(clippy::needless_range_loop)]
        for j in 0..len {
            for k in 0..LANES {
                acc[k] += term(planes[k][j], params[k]);
            }
        }
        sums.copy_from_slice(&acc);
        p0 += LANES;
    }
    let rest = groups.remainder().chunks_exact(len);
    for (p, (plane, s)) in (p0..).zip(rest.zip(sums.into_remainder())) {
        let c = param(p);
        *s = plane.iter().map(|&x| term(x, c)).sum();
    }
}

/// Channels summed in lockstep by [`channel_sums`].
const QUAD: usize = 4;

/// `Σ term(a, b)` per channel over two `(N, C, L)` tensors, for `S`
/// sums at once. Each sum starts at +0.0 and adds element by element in
/// (sample, position) order.
///
/// # Panics
///
/// Panics if `c · l == 0` or the lengths are not a whole number of
/// `(C, L)` samples.
pub(crate) fn channel_sums<const S: usize>(
    a: &[f32],
    b: &[f32],
    c: usize,
    l: usize,
    term: impl Fn(f32, f32) -> [f32; S],
) -> Vec<[f32; S]> {
    assert!(c * l > 0, "channel_sums needs non-empty samples");
    assert_eq!(a.len(), b.len(), "channel_sums operand lengths");
    assert_eq!(a.len() % (c * l), 0, "channel_sums sample length");
    let mut sums = vec![[0.0f32; S]; c];
    let quads = c - c % QUAD;
    for (c0, out) in (0..)
        .step_by(QUAD)
        .zip(sums[..quads].chunks_exact_mut(QUAD))
    {
        lockstep_channel_sums::<QUAD, S>(a, b, c, l, c0, out, &term);
    }
    for c0 in quads..c {
        lockstep_channel_sums::<1, S>(a, b, c, l, c0, &mut sums[c0..=c0], &term);
    }
    sums
}

/// [`channel_sums`] for channels `c0..c0 + K`.
fn lockstep_channel_sums<const K: usize, const S: usize>(
    a: &[f32],
    b: &[f32],
    c: usize,
    l: usize,
    c0: usize,
    out: &mut [[f32; S]],
    term: &impl Fn(f32, f32) -> [f32; S],
) {
    let mut acc = [[0.0f32; S]; K];
    for (a, b) in a.chunks_exact(c * l).zip(b.chunks_exact(c * l)) {
        let pa: [&[f32]; K] = std::array::from_fn(|k| &a[(c0 + k) * l..(c0 + k + 1) * l]);
        let pb: [&[f32]; K] = std::array::from_fn(|k| &b[(c0 + k) * l..(c0 + k + 1) * l]);
        for j in 0..l {
            for k in 0..K {
                let t = term(pa[k][j], pb[k][j]);
                for (acc, t) in acc[k].iter_mut().zip(t) {
                    *acc += t;
                }
            }
        }
    }
    out.copy_from_slice(&acc);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_iterator_sum_bit_for_bit() {
        // Every remainder of the 8-plane group, on order-sensitive data.
        for planes in 1..=17 {
            for len in [1usize, 2, 7] {
                let data: Vec<f32> = (0..planes * len)
                    .map(|i| ((i * 2_654_435_761) % 997) as f32 * 1.37e-3 - 0.61)
                    .collect();
                let mut got = vec![f32::NAN; planes];
                plane_sums(&data, len, &mut got);
                for (plane, g) in data.chunks_exact(len).zip(&got) {
                    assert_eq!(g.to_bits(), plane.iter().sum::<f32>().to_bits());
                }
            }
        }
    }

    #[test]
    fn all_negative_zero_plane_sums_to_negative_zero() {
        let mut got = [0.0f32; 9];
        plane_sums(&[-0.0; 18], 2, &mut got);
        assert!(got.iter().all(|s| s.to_bits() == (-0.0f32).to_bits()));
    }

    #[test]
    fn param_is_per_plane() {
        let data = [1.0f32, 2.0, 3.0, 4.0];
        let mut got = [0.0f32; 2];
        plane_sums_by(&data, 2, &mut got, |p| p as f32 * 10.0, |x, c| x + c);
        assert_eq!(got, [3.0, 27.0]);
    }

    #[test]
    fn channel_sums_follow_sample_then_position_order() {
        // (N=3, C, L=5) for every remainder of the 4-channel group.
        for c in 1..=9 {
            let len = 3 * c * 5;
            let a: Vec<f32> = (0..len)
                .map(|i| ((i * 7919) % 613) as f32 * 2.9e-3 - 0.8)
                .collect();
            let b: Vec<f32> = (0..len)
                .map(|i| ((i * 104_729) % 211) as f32 * 5.1e-3 - 0.5)
                .collect();
            let got = channel_sums(&a, &b, c, 5, |x, y| [x, x * y]);
            for (ci, g) in got.iter().enumerate() {
                let (mut s0, mut s1) = (0.0f32, 0.0f32);
                for ni in 0..3 {
                    for j in 0..5 {
                        let i = (ni * c + ci) * 5 + j;
                        s0 += a[i];
                        s1 += a[i] * b[i];
                    }
                }
                assert_eq!(g[0].to_bits(), s0.to_bits(), "c={c} channel {ci}");
                assert_eq!(g[1].to_bits(), s1.to_bits(), "c={c} channel {ci}");
            }
        }
    }
}
