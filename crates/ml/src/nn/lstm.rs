//! A single LSTM layer with hand-derived backpropagation-through-time.
//!
//! Gate layout in the fused weight matrix (rows of `W ∈ ℝ^{4H×(I+H)}`):
//! `[input i | forget f | cell g | output o]`, each block of `H` rows. The
//! forget-gate bias is initialized to +1 (standard practice for sequence
//! stability).

use super::Param;
use rand::rngs::StdRng;

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Per-timestep forward cache needed by the backward pass.
#[derive(Debug, Clone)]
pub struct StepCache {
    /// Concatenated `[x; h_prev]`.
    pub xh: Vec<f64>,
    /// Previous cell state.
    pub c_prev: Vec<f64>,
    /// Gate activations i, f, g, o (each length H).
    pub i: Vec<f64>,
    /// Forget gate.
    pub f: Vec<f64>,
    /// Candidate cell.
    pub g: Vec<f64>,
    /// Output gate.
    pub o: Vec<f64>,
    /// tanh(c) of the new cell state.
    pub tanh_c: Vec<f64>,
}

/// One step's gradients for a block of lanes, from
/// [`LstmLayer::backward_batch`].
#[derive(Debug, Clone)]
pub(crate) struct StepGrads {
    /// Per lane, the gate pre-activation gradient `dz` (length 4H). The
    /// weight and bias gradients are `dz ⊗ xh` and `dz`; the caller keeps
    /// these and applies them with [`LstmLayer::accumulate_grads`].
    pub(crate) dz: Vec<Vec<f64>>,
    /// Per lane, `Wᵀ·dz` (length I+H): the input gradient followed by the
    /// gradient into the previous hidden state.
    pub(crate) dxh: Vec<Vec<f64>>,
    /// Per lane, the gradient into the previous cell state.
    pub(crate) dc_prev: Vec<Vec<f64>>,
}

/// One LSTM layer: fused gate weights and biases.
#[derive(Debug, Clone)]
pub struct LstmLayer {
    /// Input dimension.
    pub input_dim: usize,
    /// Hidden dimension.
    pub hidden: usize,
    /// Fused gate weights, `4H × (I+H)` row-major.
    pub w: Param,
    /// Fused gate biases, `4H`.
    pub b: Param,
}

impl LstmLayer {
    /// Initialize with Xavier weights; forget-gate bias +1.
    pub fn new(input_dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        let cols = input_dim + hidden;
        let w = Param::xavier(4 * hidden * cols, cols, hidden, rng);
        let mut b = Param::zeros(4 * hidden);
        for j in hidden..2 * hidden {
            b.w[j] = 1.0;
        }
        LstmLayer {
            input_dim,
            hidden,
            w,
            b,
        }
    }

    /// Forward one step for a block of independent lanes sharing this
    /// layer's weights: `xs[b]` / `h_prev[b]` / `c_prev[b]` are lane `b`'s
    /// input, hidden and cell state. Returns `(h, c)` per lane. With
    /// `caches: Some(..)` (training) one [`StepCache`] per lane is appended,
    /// in lane order; inference passes `None` and builds none.
    ///
    /// This is the only LSTM step: serving, validation and training all go
    /// through it. The fused-gate matmul is blocked over weight rows (see
    /// [`super::batched_matvec_bias`]) so batching changes only memory
    /// traffic, never the per-lane floating-point order: every lane's
    /// result is the same bits for any number of lanes.
    pub fn forward_batch(
        &self,
        xs: &[&[f64]],
        h_prev: &[&[f64]],
        c_prev: &[&[f64]],
        mut caches: Option<&mut Vec<StepCache>>,
    ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let hdim = self.hidden;
        assert_eq!(h_prev.len(), xs.len(), "lane count mismatch");
        assert_eq!(c_prev.len(), xs.len(), "lane count mismatch");
        let cols = self.input_dim + hdim;
        let xh: Vec<Vec<f64>> = xs
            .iter()
            .zip(h_prev)
            .map(|(x, h)| {
                assert_eq!(x.len(), self.input_dim, "input dim mismatch");
                assert_eq!(h.len(), hdim, "hidden dim mismatch");
                let mut v = Vec::with_capacity(cols);
                v.extend_from_slice(x);
                v.extend_from_slice(h);
                v
            })
            .collect();
        let xh_refs: Vec<&[f64]> = xh.iter().map(|v| v.as_slice()).collect();
        let z = super::batched_matvec_bias(&self.w.w, 4 * hdim, cols, &self.b.w, &xh_refs);
        let mut hs = Vec::with_capacity(xs.len());
        let mut cs = Vec::with_capacity(xs.len());
        for ((z, xh), c_prev) in z.iter().zip(xh).zip(c_prev) {
            let mut h = vec![0.0; hdim];
            let mut c = vec![0.0; hdim];
            let mut cache = caches.is_some().then(|| StepCache {
                xh,
                c_prev: c_prev.to_vec(),
                i: vec![0.0; hdim],
                f: vec![0.0; hdim],
                g: vec![0.0; hdim],
                o: vec![0.0; hdim],
                tanh_c: vec![0.0; hdim],
            });
            for j in 0..hdim {
                let i = sigmoid(z[j]);
                let f = sigmoid(z[hdim + j]);
                let g = z[2 * hdim + j].tanh();
                let o = sigmoid(z[3 * hdim + j]);
                c[j] = f * c_prev[j] + i * g;
                let tanh_c = c[j].tanh();
                h[j] = o * tanh_c;
                if let Some(cache) = cache.as_mut() {
                    cache.i[j] = i;
                    cache.f[j] = f;
                    cache.g[j] = g;
                    cache.o[j] = o;
                    cache.tanh_c[j] = tanh_c;
                }
            }
            if let (Some(caches), Some(cache)) = (caches.as_deref_mut(), cache) {
                caches.push(cache);
            }
            hs.push(h);
            cs.push(c);
        }
        (hs, cs)
    }

    /// This layer's fused gate weights transposed, `(I+H) × 4H`: the matrix
    /// [`Self::backward_batch`] takes. The weights do not change within a
    /// minibatch, so training transposes them once per minibatch.
    pub(crate) fn weights_t(&self) -> Vec<f64> {
        super::transpose(&self.w.w, 4 * self.hidden, self.input_dim + self.hidden)
    }

    /// Backward one step for a block of lanes: `dh[b]` / `dc[b]` are the
    /// gradients flowing into lane `b`'s outputs of the step cached in
    /// `caches[b]`, and `w_t` is [`Self::weights_t`]. Returns each lane's
    /// `dz`, `dxh = Wᵀ·dz` and `dc_prev`; the weights' gradient accumulators
    /// are left untouched — apply the returned `dz`s with
    /// [`Self::accumulate_grads`].
    ///
    /// `Wᵀ·dz` goes through the forward kernel, [`super::batched_matvec_bias`]
    /// over `Wᵀ` with a zero bias (see [`super::transpose`]): one lane-tiled
    /// pass over the weights per tile, each lane still summing over `W`'s
    /// rows in ascending order, so every lane is bit-identical to a lone
    /// backward.
    pub(crate) fn backward_batch(
        &self,
        w_t: &[f64],
        dh: &[&[f64]],
        dc: &[&[f64]],
        caches: &[&StepCache],
    ) -> StepGrads {
        let hdim = self.hidden;
        let cols = self.input_dim + hdim;
        assert_eq!(
            w_t.len(),
            self.w.w.len(),
            "transposed weight shape mismatch"
        );
        assert_eq!(dh.len(), caches.len(), "lane count mismatch");
        assert_eq!(dc.len(), caches.len(), "lane count mismatch");
        let mut dzs = Vec::with_capacity(caches.len());
        let mut dc_prevs = Vec::with_capacity(caches.len());
        for ((dh, dc_in), cache) in dh.iter().zip(dc).zip(caches) {
            let mut dz = vec![0.0; 4 * hdim];
            let mut dc_prev = vec![0.0; hdim];
            for j in 0..hdim {
                let do_ = dh[j] * cache.tanh_c[j];
                let dc = dc_in[j] + dh[j] * cache.o[j] * (1.0 - cache.tanh_c[j] * cache.tanh_c[j]);
                let di = dc * cache.g[j];
                let df = dc * cache.c_prev[j];
                let dg = dc * cache.i[j];
                dc_prev[j] = dc * cache.f[j];
                dz[j] = di * cache.i[j] * (1.0 - cache.i[j]);
                dz[hdim + j] = df * cache.f[j] * (1.0 - cache.f[j]);
                dz[2 * hdim + j] = dg * (1.0 - cache.g[j] * cache.g[j]);
                dz[3 * hdim + j] = do_ * cache.o[j] * (1.0 - cache.o[j]);
            }
            dzs.push(dz);
            dc_prevs.push(dc_prev);
        }
        let dz_refs: Vec<&[f64]> = dzs.iter().map(|v| v.as_slice()).collect();
        let dxh = super::batched_matvec_bias(w_t, cols, 4 * hdim, &vec![0.0; cols], &dz_refs);
        StepGrads {
            dz: dzs,
            dxh,
            dc_prev: dc_prevs,
        }
    }

    /// Accumulate `W.g += Σₖ dzs[k] ⊗ xhs[k]` and `b.g += Σₖ dzs[k]`, each
    /// element summed in `k` order (see [`super::accumulate_outer`]).
    /// Training passes a whole minibatch's terms ordered by (sample,
    /// reverse step) — the order a per-sample backward adds them in.
    pub(crate) fn accumulate_grads(&mut self, dzs: &[&[f64]], xhs: &[&[f64]]) {
        let cols = self.input_dim + self.hidden;
        super::accumulate_outer(
            &mut self.w.g,
            &mut self.b.g,
            4 * self.hidden,
            cols,
            dzs,
            xhs,
        );
    }

    /// All parameters, for the optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }
}

/// The single-lane step this layer's batched kernels must reproduce bit
/// for bit: a per-sample forward and a backward with the fused `dW += dz ⊗
/// xh; dxh = Wᵀ·dz` loop, which fix the summation order of every output.
/// A test oracle only.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Forward one step. Returns `(h, c, cache)`.
    pub fn forward(
        layer: &LstmLayer,
        x: &[f64],
        h_prev: &[f64],
        c_prev: &[f64],
    ) -> (Vec<f64>, Vec<f64>, StepCache) {
        let hdim = layer.hidden;
        assert_eq!(x.len(), layer.input_dim, "input dim mismatch");
        assert_eq!(h_prev.len(), hdim, "hidden dim mismatch");
        let cols = layer.input_dim + hdim;
        let mut xh = Vec::with_capacity(cols);
        xh.extend_from_slice(x);
        xh.extend_from_slice(h_prev);

        // z = W·xh + b
        let mut z = vec![0.0; 4 * hdim];
        for (r, zr) in z.iter_mut().enumerate() {
            let row = &layer.w.w[r * cols..(r + 1) * cols];
            *zr = layer.b.w[r] + row.iter().zip(&xh).map(|(a, b)| a * b).sum::<f64>();
        }

        let mut i = vec![0.0; hdim];
        let mut f = vec![0.0; hdim];
        let mut g = vec![0.0; hdim];
        let mut o = vec![0.0; hdim];
        let mut c = vec![0.0; hdim];
        let mut tanh_c = vec![0.0; hdim];
        let mut h = vec![0.0; hdim];
        for j in 0..hdim {
            i[j] = sigmoid(z[j]);
            f[j] = sigmoid(z[hdim + j]);
            g[j] = z[2 * hdim + j].tanh();
            o[j] = sigmoid(z[3 * hdim + j]);
            c[j] = f[j] * c_prev[j] + i[j] * g[j];
            tanh_c[j] = c[j].tanh();
            h[j] = o[j] * tanh_c[j];
        }
        let cache = StepCache {
            xh,
            c_prev: c_prev.to_vec(),
            i,
            f,
            g,
            o,
            tanh_c,
        };
        (h, c, cache)
    }

    /// Backward one step. `dh`/`dc` are gradients flowing into this step's
    /// outputs. Accumulates weight/bias gradients and returns
    /// `(dx, dh_prev, dc_prev)`.
    pub fn backward(
        layer: &mut LstmLayer,
        dh: &[f64],
        dc_in: &[f64],
        cache: &StepCache,
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let hdim = layer.hidden;
        let cols = layer.input_dim + hdim;
        let mut dz = vec![0.0; 4 * hdim];
        let mut dc_prev = vec![0.0; hdim];
        for j in 0..hdim {
            let do_ = dh[j] * cache.tanh_c[j];
            let dc = dc_in[j] + dh[j] * cache.o[j] * (1.0 - cache.tanh_c[j] * cache.tanh_c[j]);
            let di = dc * cache.g[j];
            let df = dc * cache.c_prev[j];
            let dg = dc * cache.i[j];
            dc_prev[j] = dc * cache.f[j];
            dz[j] = di * cache.i[j] * (1.0 - cache.i[j]);
            dz[hdim + j] = df * cache.f[j] * (1.0 - cache.f[j]);
            dz[2 * hdim + j] = dg * (1.0 - cache.g[j] * cache.g[j]);
            dz[3 * hdim + j] = do_ * cache.o[j] * (1.0 - cache.o[j]);
        }
        // dW += dz ⊗ xh ; db += dz ; dxh = Wᵀ dz
        let mut dxh = vec![0.0; cols];
        for (r, &dzr) in dz.iter().enumerate() {
            layer.b.g[r] += dzr;
            let row_w = &layer.w.w[r * cols..(r + 1) * cols];
            let row_g = &mut layer.w.g[r * cols..(r + 1) * cols];
            for cidx in 0..cols {
                row_g[cidx] += dzr * cache.xh[cidx];
                dxh[cidx] += dzr * row_w[cidx];
            }
        }
        let dx = dxh[..layer.input_dim].to_vec();
        let dh_prev = dxh[layer.input_dim..].to_vec();
        (dx, dh_prev, dc_prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn layer(i: usize, h: usize, seed: u64) -> LstmLayer {
        let mut rng = StdRng::seed_from_u64(seed);
        LstmLayer::new(i, h, &mut rng)
    }

    /// One lane through the batched step: `(h, c)`.
    fn step(l: &LstmLayer, x: &[f64], h0: &[f64], c0: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let (mut h, mut c) = l.forward_batch(&[x], &[h0], &[c0], None);
        (h.remove(0), c.remove(0))
    }

    /// One lane forward and backward for the loss `Σh²`: accumulates the
    /// weight gradients and returns `dxh`.
    fn step_grad(l: &mut LstmLayer, x: &[f64], h0: &[f64], c0: &[f64]) -> Vec<f64> {
        let mut caches = Vec::new();
        let (h, _) = l.forward_batch(&[x], &[h0], &[c0], Some(&mut caches));
        let dh: Vec<f64> = h[0].iter().map(|v| 2.0 * v).collect();
        let dc = vec![0.0; l.hidden];
        let grads = l.backward_batch(&l.weights_t(), &[&dh], &[&dc], &[&caches[0]]);
        l.accumulate_grads(&[&grads.dz[0]], &[&caches[0].xh]);
        grads.dxh.into_iter().next().unwrap()
    }

    #[test]
    fn forward_shapes_and_bounds() {
        let l = layer(3, 4, 1);
        let (h, c) = step(&l, &[0.5, -0.2, 1.0], &[0.0; 4], &[0.0; 4]);
        assert_eq!(h.len(), 4);
        assert_eq!(c.len(), 4);
        // |h| < 1 always (o·tanh(c)).
        assert!(h.iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn zero_input_zero_state_gives_small_output() {
        let l = layer(2, 3, 2);
        let (h, _) = step(&l, &[0.0, 0.0], &[0.0; 3], &[0.0; 3]);
        // With zero inputs, z = b; h is bounded by tanh of small cell values.
        assert!(h.iter().all(|v| v.abs() < 0.8));
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let l = layer(2, 3, 3);
        for j in 3..6 {
            assert_eq!(l.b.w[j], 1.0);
        }
        assert_eq!(l.b.w[0], 0.0);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn forward_batch_bit_matches_forward_per_lane() {
        let l = layer(3, 5, 11);
        let lanes: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = (0..4)
            .map(|b| {
                let s = b as f64;
                (
                    vec![0.1 * s, -0.3, 0.7 - s],
                    vec![0.05 * s, -0.1, 0.2, 0.0, 0.4],
                    vec![0.3, -0.2 * s, 0.1, 0.6, -0.5],
                )
            })
            .collect();
        let xs: Vec<&[f64]> = lanes.iter().map(|(x, _, _)| x.as_slice()).collect();
        let hp: Vec<&[f64]> = lanes.iter().map(|(_, h, _)| h.as_slice()).collect();
        let cp: Vec<&[f64]> = lanes.iter().map(|(_, _, c)| c.as_slice()).collect();
        let (hb, cb) = l.forward_batch(&xs, &hp, &cp, None);
        let mut caches = Vec::new();
        let (hc, cc) = l.forward_batch(&xs, &hp, &cp, Some(&mut caches));
        assert_eq!(caches.len(), lanes.len());
        for (b, (x, h0, c0)) in lanes.iter().enumerate() {
            let (h1, c1, cache) = reference::forward(&l, x, h0, c0);
            assert_eq!(bits(&hb[b]), bits(&h1), "lane {b} hidden state diverged");
            assert_eq!(bits(&cb[b]), bits(&c1), "lane {b} cell state diverged");
            assert_eq!(bits(&hc[b]), bits(&h1), "lane {b} cached step diverged");
            assert_eq!(bits(&cc[b]), bits(&c1), "lane {b} cached step diverged");
            let got = &caches[b];
            for (a, want) in [
                (&got.xh, &cache.xh),
                (&got.c_prev, &cache.c_prev),
                (&got.i, &cache.i),
                (&got.f, &cache.f),
                (&got.g, &cache.g),
                (&got.o, &cache.o),
                (&got.tanh_c, &cache.tanh_c),
            ] {
                assert_eq!(bits(a), bits(want), "lane {b} cache diverged");
            }
        }
    }

    /// Finite-difference gradient check for a single step: loss = Σh².
    #[test]
    fn gradient_check_single_step() {
        let mut l = layer(2, 3, 4);
        let x = [0.3, -0.7];
        let h0 = [0.1, -0.2, 0.05];
        let c0 = [0.2, 0.0, -0.1];

        let loss = |l: &LstmLayer| -> f64 {
            let (h, _) = step(l, &x, &h0, &c0);
            h.iter().map(|v| v * v).sum()
        };

        // Analytic gradients.
        l.w.zero_grad();
        l.b.zero_grad();
        let _dxh = step_grad(&mut l, &x, &h0, &c0);

        // Compare a scattering of weight entries.
        let eps = 1e-6;
        for &idx in &[0usize, 7, 13, 29, 41, 59] {
            let orig = l.w.w[idx];
            l.w.w[idx] = orig + eps;
            let lp = loss(&l);
            l.w.w[idx] = orig - eps;
            let lm = loss(&l);
            l.w.w[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = l.w.g[idx];
            assert!(
                (numeric - analytic).abs() < 1e-6 * (1.0 + numeric.abs()),
                "idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
        // And bias entries.
        for &idx in &[0usize, 4, 8, 11] {
            let orig = l.b.w[idx];
            l.b.w[idx] = orig + eps;
            let lp = loss(&l);
            l.b.w[idx] = orig - eps;
            let lm = loss(&l);
            l.b.w[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = l.b.g[idx];
            assert!(
                (numeric - analytic).abs() < 1e-6 * (1.0 + numeric.abs()),
                "bias {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    /// Check the input/state gradients too, via a two-step chain.
    #[test]
    fn gradient_check_input_gradients() {
        let mut l = layer(2, 3, 5);
        let h0 = [0.0; 3];
        let c0 = [0.0; 3];
        let x = [0.4, -0.1];

        let loss_of_x = |l: &LstmLayer, x: &[f64]| -> f64 {
            let (h, _) = step(l, x, &h0, &c0);
            h.iter().map(|v| v * v).sum()
        };

        let dxh = step_grad(&mut l, &x, &h0, &c0);
        let dx = &dxh[..2];

        let eps = 1e-6;
        for j in 0..2 {
            let mut xp = x;
            xp[j] += eps;
            let mut xm = x;
            xm[j] -= eps;
            let numeric = (loss_of_x(&l, &xp) - loss_of_x(&l, &xm)) / (2.0 * eps);
            assert!(
                (numeric - dx[j]).abs() < 1e-6 * (1.0 + numeric.abs()),
                "dx[{j}]: numeric {numeric} vs analytic {}",
                dx[j]
            );
        }
    }
}
