//! Neural-network substrate: parameters, Adam, LSTM cells and the Seq2Seq
//! encoder–decoder of §5.2 / Fig 15.
//!
//! Everything is implemented directly on `Vec<f64>` buffers — no BLAS, no
//! autograd. Gradients are hand-derived and validated against finite
//! differences in the test suite (`seq2seq::tests::gradient_check_*`).
//!
//! Inference and training share the batched kernels below: every LSTM
//! step, in serving, evaluation, validation and the training minibatch,
//! advances a block of lanes through [`batched_matvec_bias`], which also
//! computes the backward data gradient `Wᵀ·dz` (over `transpose`d
//! weights), and `accumulate_outer` adds a minibatch's weight gradients.
//! Each keeps every output element's floating-point summation order fixed,
//! so results are the same bits for any number of lanes.

pub mod lstm;
pub mod seq2seq;

use rand::rngs::StdRng;
use rand::Rng;

/// A weight tensor with its gradient accumulator and Adam moments.
#[derive(Debug, Clone)]
pub struct Param {
    /// Weights (row-major for matrices).
    pub w: Vec<f64>,
    /// Gradient accumulator.
    pub g: Vec<f64>,
    /// Adam first moment.
    m: Vec<f64>,
    /// Adam second moment.
    v: Vec<f64>,
}

impl Param {
    /// Xavier-uniform initialized tensor of `len` weights with the given
    /// fan-in/fan-out.
    pub fn xavier(len: usize, fan_in: usize, fan_out: usize, rng: &mut StdRng) -> Self {
        let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
        Param {
            w: (0..len).map(|_| rng.gen_range(-limit..limit)).collect(),
            g: vec![0.0; len],
            m: vec![0.0; len],
            v: vec![0.0; len],
        }
    }

    /// Zero-initialized tensor (biases).
    pub fn zeros(len: usize) -> Self {
        Param {
            w: vec![0.0; len],
            g: vec![0.0; len],
            m: vec![0.0; len],
            v: vec![0.0; len],
        }
    }

    /// Reset the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.g.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Squared L2 norm of the gradient.
    pub fn grad_norm_sq(&self) -> f64 {
        self.g.iter().map(|g| g * g).sum()
    }

    /// Scale the gradient in place (for global-norm clipping).
    pub fn scale_grad(&mut self, s: f64) {
        self.g.iter_mut().for_each(|g| *g *= s);
    }
}

/// Lanes advanced in lockstep by the batched kernels: 8 independent f64
/// chains cover fadd latency×throughput on current cores; more just spills
/// accumulators.
const LANE_TILE: usize = 8;

/// Lane-interleaved batched bias + matrix–vector product:
/// `out[b] = bias + W · xs[b]` for a block of input vectors sharing one
/// row-major `rows × cols` weight matrix.
///
/// This is the one forward kernel of the LSTM step, for batched Seq2Seq
/// decoding and for the lockstep training minibatch alike, and it attacks
/// the scalar path's actual bottleneck: one dot product is a single serial
/// `fadd` dependency chain, so an unbatched matvec runs at FP-add
/// *latency*, not throughput. Here up to `LANE_TILE` lanes advance
/// through each weight row in lockstep — independent accumulator chains
/// the CPU overlaps — and each weight element is loaded once per lane tile
/// instead of once per lane. Every lane still accumulates its dot product
/// from zero, left-to-right, with the bias added last, exactly like the
/// scalar `b + row.zip(x).map(*).sum()` — so every result is bit-identical
/// to the unbatched computation, for any batch size.
pub fn batched_matvec_bias(
    w: &[f64],
    rows: usize,
    cols: usize,
    bias: &[f64],
    xs: &[&[f64]],
) -> Vec<Vec<f64>> {
    assert_eq!(w.len(), rows * cols, "weight shape mismatch");
    assert_eq!(bias.len(), rows, "bias shape mismatch");
    let mut out: Vec<Vec<f64>> = xs
        .iter()
        .map(|x| {
            assert_eq!(x.len(), cols, "input dim mismatch");
            vec![0.0; rows]
        })
        .collect();
    // Column-major staging buffer for one lane tile: `xt[j*LANE_TILE + l]`
    // holds lane `l`'s element `j`, so the lockstep loop below reads one
    // contiguous 8-wide chunk per weight element (vectorizable broadcast-FMA)
    // instead of gathering from 8 separate slices.
    let mut xt = vec![0.0; cols * LANE_TILE];
    let mut l0 = 0;
    while l0 + LANE_TILE <= xs.len() {
        for (l, x) in xs[l0..l0 + LANE_TILE].iter().enumerate() {
            for (j, &v) in x.iter().enumerate() {
                xt[j * LANE_TILE + l] = v;
            }
        }
        for r in 0..rows {
            let row = &w[r * cols..(r + 1) * cols];
            let mut acc = [0.0f64; LANE_TILE];
            for (&wj, col) in row.iter().zip(xt.chunks_exact(LANE_TILE)) {
                for (a, &v) in acc.iter_mut().zip(col) {
                    *a += wj * v;
                }
            }
            for (lane, a) in acc.into_iter().enumerate() {
                out[l0 + lane][r] = bias[r] + a;
            }
        }
        l0 += LANE_TILE;
    }
    // Remainder lanes (< LANE_TILE): the plain scalar matvec — the very
    // accumulation the lockstep path reproduces.
    for (lane, x) in xs.iter().enumerate().skip(l0) {
        for r in 0..rows {
            let row = &w[r * cols..(r + 1) * cols];
            out[lane][r] = bias[r] + row.iter().zip(x.iter()).map(|(a, b)| a * b).sum::<f64>();
        }
    }
    out
}

/// Transpose a row-major `rows × cols` matrix into a row-major
/// `cols × rows` one. With it the data gradient of a layer, `Wᵀ·dz`, is
/// [`batched_matvec_bias`] over `Wᵀ` with a zero bias: each element is
/// then summed from zero over `W`'s rows in ascending order, exactly as the
/// per-lane `for r { for c { out[c] += dz[r] * W[r][c] } }` loop sums it
/// (a sum started at `+0.0` is never `-0.0`, so the zero bias added last
/// changes no bit).
pub(crate) fn transpose(w: &[f64], rows: usize, cols: usize) -> Vec<f64> {
    assert_eq!(w.len(), rows * cols, "matrix shape mismatch");
    let mut t = vec![0.0; rows * cols];
    for (r, row) in w.chunks_exact(cols.max(1)).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            t[c * rows + r] = v;
        }
    }
    t
}

/// Blocked rank-K gradient update: `g[r][c] += Σₖ dzs[k][r] · xs[k][c]`
/// for a row-major `rows × cols` accumulator, and `bias_g[r] += Σₖ
/// dzs[k][r]`.
///
/// Every element is accumulated onto its current value in `k` order —
/// the order a per-term `g += dz ⊗ x` loop adds them in — so the result is
/// bit-identical to that loop. The terms are packed once into 4-row and
/// 8-column panels (`k`-major) and `g` into 4 × 8 blocks, all zero-padded
/// past the matrix edge; each block then stays in registers while all `K`
/// terms stream past it. Padding elements only ever add `0 · x` to a
/// discarded accumulator.
pub(crate) fn accumulate_outer(
    g: &mut [f64],
    bias_g: &mut [f64],
    rows: usize,
    cols: usize,
    dzs: &[&[f64]],
    xs: &[&[f64]],
) {
    const RB: usize = 2;
    const CB: usize = 8;
    assert_eq!(g.len(), rows * cols, "gradient shape mismatch");
    assert_eq!(bias_g.len(), rows, "bias gradient shape mismatch");
    assert_eq!(dzs.len(), xs.len(), "term count mismatch");
    let k_n = dzs.len();
    let (n_rb, n_cb) = (rows.div_ceil(RB), cols.div_ceil(CB));
    // Panels: `dp[(rb*K + k)*RB + i]` = dzs[k][rb*RB + i] and
    // `xp[(cb*K + k)*CB + j]` = xs[k][cb*CB + j], zero past the edge.
    let mut dp = vec![0.0; n_rb * RB * k_n];
    let mut xp = vec![0.0; n_cb * CB * k_n];
    for (k, (dz, x)) in dzs.iter().zip(xs).enumerate() {
        assert_eq!(dz.len(), rows, "gradient dim mismatch");
        assert_eq!(x.len(), cols, "input dim mismatch");
        for (rb, d) in dz.chunks(RB).enumerate() {
            dp[(rb * k_n + k) * RB..][..d.len()].copy_from_slice(d);
        }
        for (cb, x) in x.chunks(CB).enumerate() {
            xp[(cb * k_n + k) * CB..][..x.len()].copy_from_slice(x);
        }
        for (b, &v) in bias_g.iter_mut().zip(dz.iter()) {
            *b += v;
        }
    }
    // The accumulator, block-major and zero-padded alike:
    // `gp[((rb*n_cb + cb)*RB + i)*CB + j]` = g[rb*RB + i][cb*CB + j].
    let mut gp = vec![0.0; n_rb * n_cb * RB * CB];
    let at = |r: usize, c: usize| (((r / RB) * n_cb + c / CB) * RB + r % RB) * CB + c % CB;
    for (r, row) in g.chunks_exact(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            gp[at(r, c)] = v;
        }
    }
    for (rb, dpanel) in dp.chunks_exact(k_n * RB).enumerate() {
        for (cb, xpanel) in xp.chunks_exact(k_n * CB).enumerate() {
            let block = &mut gp[(rb * n_cb + cb) * RB * CB..][..RB * CB];
            let mut acc = [[0.0f64; CB]; RB];
            for (a, src) in acc.iter_mut().zip(block.chunks_exact(CB)) {
                a.copy_from_slice(src);
            }
            for (d, x) in dpanel.chunks_exact(RB).zip(xpanel.chunks_exact(CB)) {
                for (a, &d) in acc.iter_mut().zip(d) {
                    for (a, &x) in a.iter_mut().zip(x) {
                        *a += d * x;
                    }
                }
            }
            for (a, dst) in acc.iter().zip(block.chunks_exact_mut(CB)) {
                dst.copy_from_slice(a);
            }
        }
    }
    for (r, row) in g.chunks_exact_mut(cols).enumerate() {
        for (c, v) in row.iter_mut().enumerate() {
            *v = gp[at(r, c)];
        }
    }
}

/// Adam optimizer state shared across a parameter set.
#[derive(Debug, Clone, Copy)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical floor.
    pub eps: f64,
    /// Step counter (for bias correction).
    pub t: u64,
}

impl Adam {
    /// Standard Adam with the given learning rate.
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }

    /// Advance the shared step counter; call once per optimizer step before
    /// updating the individual parameters.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Apply one Adam update to `p` using its accumulated gradient.
    pub fn update(&self, p: &mut Param) {
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..p.w.len() {
            p.m[i] = self.beta1 * p.m[i] + (1.0 - self.beta1) * p.g[i];
            p.v[i] = self.beta2 * p.v[i] + (1.0 - self.beta2) * p.g[i] * p.g[i];
            let mhat = p.m[i] / bc1;
            let vhat = p.v[i] / bc2;
            p.w[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn xavier_init_within_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = Param::xavier(100, 10, 10, &mut rng);
        let limit = (6.0 / 20.0f64).sqrt();
        assert!(p.w.iter().all(|&w| w.abs() <= limit));
    }

    #[test]
    fn adam_minimizes_quadratic() {
        // Minimize (w − 3)² with Adam.
        let mut p = Param::zeros(1);
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            p.zero_grad();
            p.g[0] = 2.0 * (p.w[0] - 3.0);
            opt.begin_step();
            opt.update(&mut p);
        }
        assert!((p.w[0] - 3.0).abs() < 1e-3, "w = {}", p.w[0]);
    }

    #[test]
    fn batched_matvec_bit_matches_scalar_matvec() {
        let mut rng = StdRng::seed_from_u64(9);
        let (rows, cols) = (37, 11); // not multiples of the row tile
        let w = Param::xavier(rows * cols, cols, rows, &mut rng);
        let bias = Param::xavier(rows, rows, 1, &mut rng);
        let lanes: Vec<Vec<f64>> = (0..5)
            .map(|_| (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let refs: Vec<&[f64]> = lanes.iter().map(|v| v.as_slice()).collect();
        let batched = batched_matvec_bias(&w.w, rows, cols, &bias.w, &refs);
        for (lane, x) in lanes.iter().enumerate() {
            for (r, got) in batched[lane].iter().enumerate() {
                let row = &w.w[r * cols..(r + 1) * cols];
                let scalar = bias.w[r] + row.iter().zip(x.iter()).map(|(a, b)| a * b).sum::<f64>();
                assert_eq!(got.to_bits(), scalar.to_bits());
            }
        }
    }

    fn random_rows(n: usize, len: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect()
    }

    #[test]
    fn transposed_matvec_bit_matches_per_lane_backward_loop() {
        let mut rng = StdRng::seed_from_u64(10);
        let (rows, cols) = (37, 11);
        let w = Param::xavier(rows * cols, cols, rows, &mut rng);
        let w_t = transpose(&w.w, rows, cols);
        // 17 lanes: two full lane tiles and a remainder.
        let dzs = random_rows(17, rows, &mut rng);
        let refs: Vec<&[f64]> = dzs.iter().map(|v| v.as_slice()).collect();
        let batched = batched_matvec_bias(&w_t, cols, rows, &vec![0.0; cols], &refs);
        for (lane, dz) in dzs.iter().enumerate() {
            let mut want = vec![0.0; cols];
            for (r, &d) in dz.iter().enumerate() {
                for (c, o) in want.iter_mut().enumerate() {
                    *o += d * w.w[r * cols + c];
                }
            }
            for (got, want) in batched[lane].iter().zip(&want) {
                assert_eq!(got.to_bits(), want.to_bits(), "lane {lane}");
            }
        }
    }

    #[test]
    fn accumulate_outer_bit_matches_per_term_loop() {
        let mut rng = StdRng::seed_from_u64(12);
        // Neither dimension a multiple of the register block.
        let (rows, cols, terms) = (13, 19, 23);
        let dzs = random_rows(terms, rows, &mut rng);
        let xs = random_rows(terms, cols, &mut rng);
        // Start from non-zero accumulators: the update adds onto them.
        let g0 = random_rows(1, rows * cols, &mut rng).remove(0);
        let b0 = random_rows(1, rows, &mut rng).remove(0);
        let (mut want_g, mut want_b) = (g0.clone(), b0.clone());
        for (dz, x) in dzs.iter().zip(&xs) {
            for r in 0..rows {
                want_b[r] += dz[r];
                for c in 0..cols {
                    want_g[r * cols + c] += dz[r] * x[c];
                }
            }
        }
        let (mut g, mut b) = (g0, b0);
        let dz_refs: Vec<&[f64]> = dzs.iter().map(|v| v.as_slice()).collect();
        let x_refs: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        accumulate_outer(&mut g, &mut b, rows, cols, &dz_refs, &x_refs);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&g), bits(&want_g));
        assert_eq!(bits(&b), bits(&want_b));
    }

    #[test]
    fn grad_clipping_scales() {
        let mut p = Param::zeros(2);
        p.g = vec![3.0, 4.0];
        assert!((p.grad_norm_sq() - 25.0).abs() < 1e-12);
        p.scale_grad(0.5);
        assert_eq!(p.g, vec![1.5, 2.0]);
    }
}
