//! A long short-term memory layer (Hochreiter & Schmidhuber 1997),
//! processing `(N, T, F)` sequences and returning the final hidden state.
//!
//! Charnock & Moss (2016) — the recurrent baseline of Table 2 — used
//! LSTMs; `snia-baselines`' sequence classifier runs this layer.

use rand::Rng;

use crate::init;
use crate::layer::{Layer, Mode, Param};
use crate::layers::activation::sigmoid_scalar;
use crate::tensor::Tensor;

/// A single-layer LSTM.
///
/// Gates (for step `t`, with `c = [x_t, h_{t-1}]`):
///
/// ```text
/// i = σ(W_i c + b_i)          input gate
/// f = σ(W_f c + b_f)          forget gate
/// o = σ(W_o c + b_o)          output gate
/// g = tanh(W_g c + b_g)       candidate cell
/// s_t = f ⊙ s_{t-1} + i ⊙ g   cell state
/// h_t = o ⊙ tanh(s_t)
/// ```
///
/// The forget-gate bias is initialised to +1 (the standard trick that lets
/// gradients flow early in training). Backpropagation through time is
/// exact (full unroll).
#[derive(Debug)]
pub struct Lstm {
    wi: Param,
    bi: Param,
    wf: Param,
    bf: Param,
    wo: Param,
    bo: Param,
    wg: Param,
    bg: Param,
    input_size: usize,
    hidden_size: usize,
    cache: Option<LstmCache>,
}

#[derive(Debug)]
struct StepCache {
    cat: Tensor,
    i: Tensor,
    f: Tensor,
    o: Tensor,
    g: Tensor,
    s_prev: Tensor,
    s: Tensor,
}

#[derive(Debug)]
struct LstmCache {
    steps: Vec<StepCache>,
    input_shape: Vec<usize>,
}

impl Lstm {
    /// Creates an LSTM with Xavier-initialised weights, zero biases and a
    /// +1 forget-gate bias.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero.
    pub fn new<R: Rng + ?Sized>(input_size: usize, hidden_size: usize, rng: &mut R) -> Self {
        assert!(input_size > 0 && hidden_size > 0, "sizes must be positive");
        let fan_in = input_size + hidden_size;
        let mk =
            |rng: &mut R| init::xavier_uniform(rng, vec![hidden_size, fan_in], fan_in, hidden_size);
        let wi = mk(rng);
        let wf = mk(rng);
        let wo = mk(rng);
        let wg = mk(rng);
        Lstm {
            wi: Param::new("wi", wi),
            bi: Param::new("bi", Tensor::zeros(vec![hidden_size])),
            wf: Param::new("wf", wf),
            bf: Param::new("bf", Tensor::ones(vec![hidden_size])),
            wo: Param::new("wo", wo),
            bo: Param::new("bo", Tensor::zeros(vec![hidden_size])),
            wg: Param::new("wg", wg),
            bg: Param::new("bg", Tensor::zeros(vec![hidden_size])),
            input_size,
            hidden_size,
            cache: None,
        }
    }

    /// Hidden-state dimensionality.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    fn affine(cat: &Tensor, w: &Tensor, b: &Tensor) -> Tensor {
        let mut out = cat.matmul_t(w);
        let (n, h) = (out.shape()[0], out.shape()[1]);
        for i in 0..n {
            for (o, &bv) in out.data_mut()[i * h..(i + 1) * h].iter_mut().zip(b.data()) {
                *o += bv;
            }
        }
        out
    }

    fn time_slice(input: &Tensor, t: usize) -> Tensor {
        let (n, tt, f) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let mut out = Tensor::zeros(vec![n, f]);
        for ni in 0..n {
            let src = &input.data()[(ni * tt + t) * f..(ni * tt + t + 1) * f];
            out.data_mut()[ni * f..(ni + 1) * f].copy_from_slice(src);
        }
        out
    }
}

impl Layer for Lstm {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(
            input.ndim(),
            3,
            "Lstm expects (N, T, F), got {:?}",
            input.shape()
        );
        let (n, t_len, f) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        assert_eq!(f, self.input_size, "Lstm input size mismatch");
        assert!(t_len > 0, "Lstm requires at least one timestep");

        let hs = self.hidden_size;
        let mut h = Tensor::zeros(vec![n, hs]);
        let mut s = Tensor::zeros(vec![n, hs]);
        let mut steps = Vec::with_capacity(if mode == Mode::Train { t_len } else { 0 });
        for t in 0..t_len {
            let x_t = Self::time_slice(input, t);
            let cat = Tensor::concat_cols(&[&x_t, &h]);
            let i = Self::affine(&cat, &self.wi.value, &self.bi.value).map(sigmoid_scalar);
            let fgate = Self::affine(&cat, &self.wf.value, &self.bf.value).map(sigmoid_scalar);
            let o = Self::affine(&cat, &self.wo.value, &self.bo.value).map(sigmoid_scalar);
            let g = Self::affine(&cat, &self.wg.value, &self.bg.value).map(f32::tanh);
            let mut s_new = Tensor::zeros(vec![n, hs]);
            let mut h_new = Tensor::zeros(vec![n, hs]);
            for k in 0..n * hs {
                let sv = fgate.data()[k] * s.data()[k] + i.data()[k] * g.data()[k];
                s_new.data_mut()[k] = sv;
                h_new.data_mut()[k] = o.data()[k] * sv.tanh();
            }
            if mode == Mode::Train {
                steps.push(StepCache {
                    cat,
                    i,
                    f: fgate,
                    o,
                    g,
                    s_prev: s.clone(),
                    s: s_new.clone(),
                });
            }
            h = h_new;
            s = s_new;
        }
        if mode == Mode::Train {
            self.cache = Some(LstmCache {
                steps,
                input_shape: input.shape().to_vec(),
            });
        }
        h
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("Lstm::backward called without a training forward pass");
        let (n, t_len, f) = (
            cache.input_shape[0],
            cache.input_shape[1],
            cache.input_shape[2],
        );
        let hs = self.hidden_size;
        let mut grad_input = Tensor::zeros(cache.input_shape.clone());
        let mut dh = grad_output.clone();
        let mut ds = Tensor::zeros(vec![n, hs]);

        for t in (0..t_len).rev() {
            let step = &cache.steps[t];
            let mut da_i = Tensor::zeros(vec![n, hs]);
            let mut da_f = Tensor::zeros(vec![n, hs]);
            let mut da_o = Tensor::zeros(vec![n, hs]);
            let mut da_g = Tensor::zeros(vec![n, hs]);
            let mut ds_prev = Tensor::zeros(vec![n, hs]);
            for k in 0..n * hs {
                let sv = step.s.data()[k];
                let tanh_s = sv.tanh();
                let ov = step.o.data()[k];
                let gh = dh.data()[k];
                // h = o · tanh(s):
                da_o.data_mut()[k] = gh * tanh_s * ov * (1.0 - ov);
                let ds_total = ds.data()[k] + gh * ov * (1.0 - tanh_s * tanh_s);
                let iv = step.i.data()[k];
                let fv = step.f.data()[k];
                let gv = step.g.data()[k];
                let sp = step.s_prev.data()[k];
                // s = f·s_prev + i·g:
                da_f.data_mut()[k] = ds_total * sp * fv * (1.0 - fv);
                da_i.data_mut()[k] = ds_total * gv * iv * (1.0 - iv);
                da_g.data_mut()[k] = ds_total * iv * (1.0 - gv * gv);
                ds_prev.data_mut()[k] = ds_total * fv;
            }

            // Parameter gradients and the concat gradient.
            let mut dcat = Tensor::zeros(vec![n, f + hs]);
            for (da, w, b) in [
                (&da_i, &mut self.wi, &mut self.bi),
                (&da_f, &mut self.wf, &mut self.bf),
                (&da_o, &mut self.wo, &mut self.bo),
                (&da_g, &mut self.wg, &mut self.bg),
            ] {
                w.grad += &da.t_matmul(&step.cat);
                b.grad += &da.sum_rows();
                dcat += &da.matmul(&w.value);
            }
            let parts = dcat.split_cols(&[f, hs]);
            for ni in 0..n {
                let dst =
                    &mut grad_input.data_mut()[(ni * t_len + t) * f..(ni * t_len + t + 1) * f];
                dst.copy_from_slice(&parts[0].data()[ni * f..(ni + 1) * f]);
            }
            dh = parts[1].clone();
            ds = ds_prev;
        }
        grad_input
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![
            &mut self.wi,
            &mut self.bi,
            &mut self.wf,
            &mut self.bf,
            &mut self.wo,
            &mut self.bo,
            &mut self.wg,
            &mut self.bg,
        ]
    }

    fn params(&self) -> Vec<&Param> {
        vec![
            &self.wi, &self.bi, &self.wf, &self.bf, &self.wo, &self.bo, &self.wg, &self.bg,
        ]
    }

    fn name(&self) -> &'static str {
        "Lstm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_shape_is_final_hidden() {
        let mut rng = StdRng::seed_from_u64(80);
        let mut lstm = Lstm::new(3, 5, &mut rng);
        let x = init::randn_tensor(&mut rng, vec![2, 4, 3], 1.0);
        let h = lstm.forward(&x, Mode::Eval);
        assert_eq!(h.shape(), &[2, 5]);
        assert!(h.all_finite());
    }

    #[test]
    fn hidden_state_is_bounded() {
        // |h| = |o·tanh(s)| ≤ 1.
        let mut rng = StdRng::seed_from_u64(81);
        let mut lstm = Lstm::new(2, 4, &mut rng);
        let x = init::randn_tensor(&mut rng, vec![3, 12, 2], 5.0);
        let h = lstm.forward(&x, Mode::Eval);
        assert!(h.max() <= 1.0 && h.min() >= -1.0);
    }

    #[test]
    fn forget_bias_is_one() {
        let mut rng = StdRng::seed_from_u64(82);
        let lstm = Lstm::new(2, 3, &mut rng);
        assert!(lstm.bf.value.data().iter().all(|&b| b == 1.0));
        assert!(lstm.bi.value.data().iter().all(|&b| b == 0.0));
    }

    #[test]
    fn gradcheck_multi_step() {
        let mut rng = StdRng::seed_from_u64(83);
        let lstm = Lstm::new(2, 3, &mut rng);
        let x = init::randn_tensor(&mut rng, vec![2, 3, 2], 1.0);
        check_layer_gradients(Box::new(lstm), &x, 1e-2, 4e-2);
    }

    #[test]
    fn gradcheck_single_step() {
        // T = 1 isolates the c0 = h0 = 0 boundary: the forget gate
        // multiplies a zero cell state, so only the input/candidate path
        // carries gradient.
        let mut rng = StdRng::seed_from_u64(85);
        let lstm = Lstm::new(2, 3, &mut rng);
        let x = init::randn_tensor(&mut rng, vec![4, 1, 2], 1.0);
        check_layer_gradients(Box::new(lstm), &x, 1e-2, 4e-2);
    }

    #[test]
    fn order_sensitivity() {
        let mut rng = StdRng::seed_from_u64(84);
        let mut lstm = Lstm::new(1, 4, &mut rng);
        let fwd = Tensor::from_vec(vec![1, 3, 1], vec![1.0, 0.0, -1.0]);
        let rev = Tensor::from_vec(vec![1, 3, 1], vec![-1.0, 0.0, 1.0]);
        let hf = lstm.forward(&fwd, Mode::Eval);
        let hr = lstm.forward(&rev, Mode::Eval);
        assert!((&hf - &hr).norm() > 1e-4);
    }

    #[test]
    fn remembers_early_input() {
        // With the +1 forget bias, information from step 0 must influence
        // the final state across several steps.
        let mut rng = StdRng::seed_from_u64(85);
        let mut lstm = Lstm::new(1, 4, &mut rng);
        let mut a = vec![0.0f32; 8];
        let mut b = vec![0.0f32; 8];
        a[0] = 2.0;
        b[0] = -2.0;
        let ha = lstm.forward(&Tensor::from_vec(vec![1, 8, 1], a), Mode::Eval);
        let hb = lstm.forward(&Tensor::from_vec(vec![1, 8, 1], b), Mode::Eval);
        assert!((&ha - &hb).norm() > 1e-3, "first-step signal was forgotten");
    }
}
