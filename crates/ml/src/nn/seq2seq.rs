//! LSTM Seq2Seq encoder–decoder (Fig 15 of the paper).
//!
//! The encoder ingests a history of feature vectors `x_1..x_T`; its final
//! hidden/cell states (per layer) seed the decoder, which autoregressively
//! emits `k` future throughput values through a linear head. The paper uses
//! a 2-layer, 128-unit architecture with input/output length 20, trained
//! for 2000 epochs with batch 256 and MSE loss; [`Seq2SeqConfig::paper_scale`]
//! reproduces that configuration, while the default is a laptop-scale
//! equivalent.
//!
//! Training uses Adam, BPTT through decoder *and* encoder, global-norm
//! gradient clipping, and teacher forcing. The feedback edge from one
//! decoder output into the next decoder input is detached (the standard
//! simplification; gradients flow through the recurrent state instead).
//! Targets are expected pre-standardized (see `dataset::TargetScaler`).
//!
//! Each minibatch trains in lockstep: all its samples are lanes of one
//! batched forward and backward pass, bit-identical to training them one
//! at a time (see `Seq2Seq::train_step`). Inference is the same lockstep
//! forward without the tape, [`Seq2Seq::predict_batch`].

use super::lstm::{LstmLayer, StepCache};
use super::{Adam, Param};
use crate::codec::{ByteReader, ByteWriter, CodecError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Architecture and training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Seq2SeqConfig {
    /// Feature-vector dimension of the encoder input.
    pub input_dim: usize,
    /// Hidden units per LSTM layer.
    pub hidden: usize,
    /// Number of stacked LSTM layers in encoder and decoder.
    pub layers: usize,
    /// Output sequence length `k`.
    pub horizon: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Probability of feeding the ground-truth previous target to the
    /// decoder during training (teacher forcing).
    pub teacher_forcing: f64,
    /// Global gradient-norm clip.
    pub clip_norm: f64,
    /// RNG seed (init + shuffling + forcing decisions).
    pub seed: u64,
}

impl Default for Seq2SeqConfig {
    fn default() -> Self {
        Seq2SeqConfig {
            input_dim: 1,
            hidden: 32,
            layers: 2,
            horizon: 20,
            epochs: 30,
            batch_size: 64,
            lr: 3e-3,
            teacher_forcing: 0.7,
            clip_norm: 5.0,
            seed: 0,
        }
    }
}

impl Seq2SeqConfig {
    /// The paper's §6.1 setup: 2×128 LSTM, sequence length 20, 2000 epochs,
    /// batch 256.
    pub fn paper_scale(input_dim: usize) -> Self {
        Seq2SeqConfig {
            input_dim,
            hidden: 128,
            layers: 2,
            horizon: 20,
            epochs: 2000,
            batch_size: 256,
            lr: 1e-3,
            teacher_forcing: 0.7,
            clip_norm: 5.0,
            seed: 0,
        }
    }
}

/// The encoder–decoder model.
#[derive(Debug, Clone)]
pub struct Seq2Seq {
    cfg: Seq2SeqConfig,
    enc: Vec<LstmLayer>,
    dec: Vec<LstmLayer>,
    w_out: Param,
    b_out: Param,
    adam: Adam,
}

/// Lanes per lockstep block in [`Seq2Seq::predict_batch`]: enough to fill
/// every lane tile of the kernels while each block's states stay in cache.
const PREDICT_CHUNK: usize = 64;

/// What the training forward records for the backward pass, per lane.
struct Tape {
    /// `enc[b][t * layers + l]`: lane `b`'s encoder step `t`, layer `l`.
    enc: Vec<Vec<StepCache>>,
    /// `dec[b][t * layers + l]`: lane `b`'s decoder step `t`, layer `l`.
    dec: Vec<Vec<StepCache>>,
    /// `h_top[b][t]`: lane `b`'s top decoder hidden state at step `t`.
    h_top: Vec<Vec<Vec<f64>>>,
}

impl Seq2Seq {
    /// Build a fresh model.
    pub fn new(cfg: Seq2SeqConfig) -> Self {
        assert!(cfg.layers >= 1, "need at least one layer");
        assert!(cfg.horizon >= 1, "horizon must be positive");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let enc = (0..cfg.layers)
            .map(|l| {
                let input = if l == 0 { cfg.input_dim } else { cfg.hidden };
                LstmLayer::new(input, cfg.hidden, &mut rng)
            })
            .collect();
        let dec = (0..cfg.layers)
            .map(|l| {
                let input = if l == 0 { 1 } else { cfg.hidden };
                LstmLayer::new(input, cfg.hidden, &mut rng)
            })
            .collect();
        let w_out = Param::xavier(cfg.hidden, cfg.hidden, 1, &mut rng);
        let b_out = Param::zeros(1);
        Seq2Seq {
            adam: Adam::new(cfg.lr),
            cfg,
            enc,
            dec,
            w_out,
            b_out,
        }
    }

    /// Model configuration.
    pub fn config(&self) -> &Seq2SeqConfig {
        &self.cfg
    }

    /// Run encoder and decoder over a block of lanes in lockstep and return
    /// each lane's `horizon` outputs. Lanes may have different lengths: a
    /// lane leaves the encoder block after its last step and holds its
    /// state until the decoder starts.
    ///
    /// Inference passes `teacher: None, tape: None`. Training passes the
    /// targets with one teacher-forcing decision per lane and step
    /// (`forced[b * horizon + t]`: feed `targets[b][t]` instead of the
    /// lane's own output as the next decoder input) and a [`Tape`] that
    /// records every step for the backward pass.
    fn forward_lockstep(
        &self,
        seqs: &[&[Vec<f64>]],
        teacher: Option<(&[&[f64]], &[bool])>,
        mut tape: Option<&mut Tape>,
    ) -> Vec<Vec<f64>> {
        let lanes = seqs.len();
        let hdim = self.cfg.hidden;
        let layers = self.cfg.layers;
        let horizon = self.cfg.horizon;
        // Per-layer, per-lane recurrent state; encoder finals seed the
        // decoder.
        let mut h: Vec<Vec<Vec<f64>>> = vec![vec![vec![0.0; hdim]; lanes]; layers];
        let mut c: Vec<Vec<Vec<f64>>> = vec![vec![vec![0.0; hdim]; lanes]; layers];

        let max_len = seqs.iter().map(|s| s.len()).max().unwrap_or(0);
        for t in 0..max_len {
            let active: Vec<usize> = (0..lanes).filter(|&b| t < seqs[b].len()).collect();
            let mut below: Option<Vec<Vec<f64>>> = None;
            for (l, layer) in self.enc.iter().enumerate() {
                let xs: Vec<&[f64]> = match &below {
                    None => active.iter().map(|&b| seqs[b][t].as_slice()).collect(),
                    Some(hn) => hn.iter().map(|v| v.as_slice()).collect(),
                };
                let hp: Vec<&[f64]> = active.iter().map(|&b| h[l][b].as_slice()).collect();
                let cp: Vec<&[f64]> = active.iter().map(|&b| c[l][b].as_slice()).collect();
                let mut caches = tape.is_some().then(Vec::new);
                let (hn, cn) = layer.forward_batch(&xs, &hp, &cp, caches.as_mut());
                if let (Some(tape), Some(caches)) = (tape.as_deref_mut(), caches) {
                    for (&b, cache) in active.iter().zip(caches) {
                        tape.enc[b].push(cache);
                    }
                }
                for (&b, cnb) in active.iter().zip(cn) {
                    c[l][b] = cnb;
                }
                for (&b, hnb) in active.iter().zip(&hn) {
                    h[l][b].clone_from(hnb);
                }
                below = Some(hn);
            }
        }

        let mut outputs: Vec<Vec<f64>> = vec![Vec::with_capacity(horizon); lanes];
        let mut prev: Vec<[f64; 1]> = vec![[0.0]; lanes]; // start token per lane
        for t in 0..horizon {
            for (l, layer) in self.dec.iter().enumerate() {
                let xs: Vec<&[f64]> = if l == 0 {
                    prev.iter().map(|p| p.as_slice()).collect()
                } else {
                    h[l - 1].iter().map(|v| v.as_slice()).collect()
                };
                let hp: Vec<&[f64]> = h[l].iter().map(|v| v.as_slice()).collect();
                let cp: Vec<&[f64]> = c[l].iter().map(|v| v.as_slice()).collect();
                let mut caches = tape.is_some().then(Vec::new);
                let (hn, cn) = layer.forward_batch(&xs, &hp, &cp, caches.as_mut());
                if let (Some(tape), Some(caches)) = (tape.as_deref_mut(), caches) {
                    for (b, cache) in caches.into_iter().enumerate() {
                        tape.dec[b].push(cache);
                    }
                }
                c[l] = cn;
                h[l] = hn;
            }
            for (b, (out, prev)) in outputs.iter_mut().zip(prev.iter_mut()).enumerate() {
                let h_top = &h[layers - 1][b];
                let y: f64 = self.b_out.w[0]
                    + self
                        .w_out
                        .w
                        .iter()
                        .zip(h_top)
                        .map(|(w, h)| w * h)
                        .sum::<f64>();
                out.push(y);
                if let Some(tape) = tape.as_deref_mut() {
                    tape.h_top[b].push(h_top.clone());
                }
                // Next decoder input: teacher-forced truth or own output.
                prev[0] = match teacher {
                    Some((targets, forced)) if forced[b * horizon + t] => targets[b][t],
                    _ => y,
                };
            }
        }
        outputs
    }

    /// Batched inference: decode `horizon` (standardized) values for each
    /// input sequence, or `None` if any lane is empty (a warm-up session has
    /// nothing to encode, so a short history can never unwind a shard
    /// worker). Lanes may have different lengths; any number of lanes is
    /// decoded, in lockstep blocks of 64.
    ///
    /// This is the only inference path — serving, offline evaluation and
    /// early-stopping validation all call it — and each lane's result is
    /// the same bits whatever else is in the batch: the fused-gate matmuls
    /// are blocked over weight rows (see [`super::batched_matvec_bias`]),
    /// which reorders memory traffic, never the per-lane floating-point
    /// operations. That is what lets the serving engine drain B sessions
    /// per dispatch without perturbing the bit-exactness contract.
    pub fn predict_batch(&self, seqs: &[&[Vec<f64>]]) -> Option<Vec<Vec<f64>>> {
        if seqs.iter().any(|s| s.is_empty()) {
            return None;
        }
        Some(
            seqs.chunks(PREDICT_CHUNK)
                .flat_map(|block| self.forward_lockstep(block, None, None))
                .collect(),
        )
    }

    /// Serialize the configuration and all weights (raw IEEE-754 bits, so
    /// a round trip is bit-exact). Optimizer moments are deliberately not
    /// persisted: a decoded model serves identically, and simply restarts
    /// Adam cold if it is ever retrained.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_len(self.cfg.input_dim);
        w.put_len(self.cfg.hidden);
        w.put_len(self.cfg.layers);
        w.put_len(self.cfg.horizon);
        w.put_len(self.cfg.epochs);
        w.put_len(self.cfg.batch_size);
        w.put_f64(self.cfg.lr);
        w.put_f64(self.cfg.teacher_forcing);
        w.put_f64(self.cfg.clip_norm);
        w.put_u64(self.cfg.seed);
        for layer in self.enc.iter().chain(self.dec.iter()) {
            w.put_f64s(&layer.w.w);
            w.put_f64s(&layer.b.w);
        }
        w.put_f64s(&self.w_out.w);
        w.put_f64s(&self.b_out.w);
    }

    /// Inverse of [`Self::encode`]. Every length is validated against the
    /// decoded architecture, so corrupt input errors instead of panicking.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let cfg = Seq2SeqConfig {
            input_dim: r.len()?,
            hidden: r.len()?,
            layers: r.len()?,
            horizon: r.len()?,
            epochs: r.len()?,
            batch_size: r.len()?,
            lr: r.f64()?,
            teacher_forcing: r.f64()?,
            clip_norm: r.f64()?,
            seed: r.u64()?,
        };
        if cfg.input_dim == 0 || cfg.hidden == 0 || cfg.layers == 0 || cfg.horizon == 0 {
            return Err(CodecError::Invalid(
                "degenerate Seq2Seq architecture".into(),
            ));
        }
        fn param(r: &mut ByteReader<'_>, expect: usize, what: &str) -> Result<Param, CodecError> {
            let vals = r.f64s()?;
            if vals.len() != expect {
                return Err(CodecError::Invalid(format!(
                    "{what}: {} weights, expected {expect}",
                    vals.len()
                )));
            }
            let mut p = Param::zeros(expect);
            p.w = vals;
            Ok(p)
        }
        fn layer(
            r: &mut ByteReader<'_>,
            input_dim: usize,
            hidden: usize,
            what: &str,
        ) -> Result<LstmLayer, CodecError> {
            let wlen = input_dim
                .checked_add(hidden)
                .and_then(|cols| cols.checked_mul(4).and_then(|v| v.checked_mul(hidden)))
                .ok_or_else(|| CodecError::Invalid("Seq2Seq layer shape overflows".into()))?;
            Ok(LstmLayer {
                input_dim,
                hidden,
                w: param(r, wlen, what)?,
                b: param(r, 4 * hidden, what)?,
            })
        }
        let enc = (0..cfg.layers)
            .map(|l| {
                let input = if l == 0 { cfg.input_dim } else { cfg.hidden };
                layer(r, input, cfg.hidden, "encoder layer")
            })
            .collect::<Result<Vec<_>, _>>()?;
        let dec = (0..cfg.layers)
            .map(|l| {
                let input = if l == 0 { 1 } else { cfg.hidden };
                layer(r, input, cfg.hidden, "decoder layer")
            })
            .collect::<Result<Vec<_>, _>>()?;
        let w_out = param(r, cfg.hidden, "output head weights")?;
        let b_out = param(r, 1, "output head bias")?;
        Ok(Seq2Seq {
            adam: Adam::new(cfg.lr),
            cfg,
            enc,
            dec,
            w_out,
            b_out,
        })
    }

    /// The training step: forward and backward over one minibatch, every
    /// sample in lockstep. Accumulates the gradients and returns the sum of
    /// the samples' MSE losses (added in sample order).
    ///
    /// The teacher-forcing decisions are drawn up front, one per decoder
    /// step, sample after sample — the RNG stream a per-sample loop
    /// consumes. The backward pass runs the lanes in lockstep too
    /// ([`LstmLayer::backward_batch`]); it keeps every step's `dz` and
    /// applies the weight and bias gradients once per minibatch, each
    /// element summed in (sample, reverse step) order. Loss, gradients and
    /// hence the trained model are bit-identical to training one sample at
    /// a time.
    fn train_step(&mut self, xs: &[&[Vec<f64>]], ys: &[&[f64]], rng: &mut StdRng) -> f64 {
        assert_eq!(xs.len(), ys.len(), "inputs/targets length mismatch");
        let lanes = xs.len();
        let layers = self.cfg.layers;
        let hdim = self.cfg.hidden;
        let horizon = self.cfg.horizon;
        for y in ys {
            assert_eq!(y.len(), horizon, "target length mismatch");
        }
        let tf = self.cfg.teacher_forcing;
        let forced: Vec<bool> = (0..lanes * horizon)
            .map(|_| rng.gen::<f64>() < tf)
            .collect();
        let mut tape = Tape {
            enc: xs
                .iter()
                .map(|x| Vec::with_capacity(x.len() * layers))
                .collect(),
            dec: (0..lanes)
                .map(|_| Vec::with_capacity(horizon * layers))
                .collect(),
            h_top: (0..lanes).map(|_| Vec::with_capacity(horizon)).collect(),
        };
        let outputs = self.forward_lockstep(xs, Some((ys, &forced)), Some(&mut tape));

        let k = horizon as f64;
        let mut loss = 0.0;
        for (out, y) in outputs.iter().zip(ys) {
            loss += out
                .iter()
                .zip(*y)
                .map(|(o, y)| (o - y) * (o - y))
                .sum::<f64>()
                / k;
        }
        // dL/dy_t = 2 (y_t − t_t) / k
        let dy = |b: usize, t: usize| 2.0 * (outputs[b][t] - ys[b][t]) / k;

        // Output head grads, (sample, reverse step) order.
        for b in 0..lanes {
            for t in (0..horizon).rev() {
                let dy = dy(b, t);
                self.b_out.g[0] += dy;
                for (g, h) in self.w_out.g.iter_mut().zip(&tape.h_top[b][t]) {
                    *g += dy * h;
                }
            }
        }

        // The weights are fixed within the minibatch: transpose them once.
        let enc_t: Vec<Vec<f64>> = self.enc.iter().map(LstmLayer::weights_t).collect();
        let dec_t: Vec<Vec<f64>> = self.dec.iter().map(LstmLayer::weights_t).collect();

        // ---- Backward through the decoder, all lanes per step ----
        // dz_dec[b][t * layers + l], filled in reverse.
        let mut dz_dec: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); horizon * layers]; lanes];
        let mut dh_next: Vec<Vec<Vec<f64>>> = vec![vec![vec![0.0; hdim]; lanes]; layers];
        let mut dc_next: Vec<Vec<Vec<f64>>> = vec![vec![vec![0.0; hdim]; lanes]; layers];
        for t in (0..horizon).rev() {
            let mut dh_layer: Vec<Vec<f64>> = (0..lanes)
                .map(|b| {
                    let dy = dy(b, t);
                    let mut dh = dh_next[layers - 1][b].clone();
                    for (dh, w) in dh.iter_mut().zip(&self.w_out.w) {
                        *dh += dy * w;
                    }
                    dh
                })
                .collect();
            // Through the stacked layers, top to bottom.
            for l in (0..layers).rev() {
                let layer = &self.dec[l];
                let dh: Vec<&[f64]> = dh_layer.iter().map(|v| v.as_slice()).collect();
                let dc: Vec<&[f64]> = dc_next[l].iter().map(|v| v.as_slice()).collect();
                let caches: Vec<&StepCache> = tape.dec.iter().map(|d| &d[t * layers + l]).collect();
                let grads = layer.backward_batch(&dec_t[l], &dh, &dc, &caches);
                let in_dim = layer.input_dim;
                dc_next[l] = grads.dc_prev;
                for (b, (dxh, dz)) in grads.dxh.iter().zip(grads.dz).enumerate() {
                    dh_next[l][b] = dxh[in_dim..].to_vec();
                    dz_dec[b][t * layers + l] = dz;
                    // dx flows into the layer below's hidden output at this
                    // step (for l > 0); at l == 0 the feedback edge is
                    // detached.
                    if l > 0 {
                        dh_layer[b] = dxh[..in_dim]
                            .iter()
                            .zip(&dh_next[l - 1][b])
                            .map(|(a, b)| a + b)
                            .collect();
                    }
                }
            }
        }

        // ---- Backward through the encoder ----
        // Decoder's initial states were the encoder's finals; a lane joins
        // at its own last step.
        let mut dz_enc: Vec<Vec<Vec<f64>>> = xs
            .iter()
            .map(|x| vec![Vec::new(); x.len() * layers])
            .collect();
        let mut dh = dh_next;
        let mut dc = dc_next;
        let max_len = xs.iter().map(|x| x.len()).max().unwrap_or(0);
        for t in (0..max_len).rev() {
            let active: Vec<usize> = (0..lanes).filter(|&b| t < xs[b].len()).collect();
            let mut dh_from_above: Vec<Vec<f64>> = vec![vec![0.0; hdim]; active.len()];
            for l in (0..layers).rev() {
                let layer = &self.enc[l];
                let dh_total: Vec<Vec<f64>> = active
                    .iter()
                    .zip(&dh_from_above)
                    .map(|(&b, above)| dh[l][b].iter().zip(above).map(|(a, b)| a + b).collect())
                    .collect();
                let dh_refs: Vec<&[f64]> = dh_total.iter().map(|v| v.as_slice()).collect();
                let dc_refs: Vec<&[f64]> = active.iter().map(|&b| dc[l][b].as_slice()).collect();
                let caches: Vec<&StepCache> = active
                    .iter()
                    .map(|&b| &tape.enc[b][t * layers + l])
                    .collect();
                let grads = layer.backward_batch(&enc_t[l], &dh_refs, &dc_refs, &caches);
                let in_dim = layer.input_dim;
                for (((&b, dxh), dz), dc_prev) in active
                    .iter()
                    .zip(&grads.dxh)
                    .zip(grads.dz)
                    .zip(grads.dc_prev)
                {
                    dh[l][b] = dxh[in_dim..].to_vec();
                    dc[l][b] = dc_prev;
                    dz_enc[b][t * layers + l] = dz;
                }
                if l > 0 {
                    dh_from_above = grads.dxh.iter().map(|v| v[..in_dim].to_vec()).collect();
                }
            }
        }

        // ---- Weight and bias gradients, once per minibatch ----
        for l in 0..layers {
            for (layer, dz, tape) in [
                (&mut self.enc[l], &dz_enc, &tape.enc),
                (&mut self.dec[l], &dz_dec, &tape.dec),
            ] {
                let mut dzs: Vec<&[f64]> = Vec::new();
                let mut xhs: Vec<&[f64]> = Vec::new();
                for (b, caches) in tape.iter().enumerate() {
                    for t in (0..caches.len() / layers).rev() {
                        dzs.push(&dz[b][t * layers + l]);
                        xhs.push(&caches[t * layers + l].xh);
                    }
                }
                layer.accumulate_grads(&dzs, &xhs);
            }
        }
        loss
    }

    fn zero_grads(&mut self) {
        for l in self.enc.iter_mut().chain(self.dec.iter_mut()) {
            l.w.zero_grad();
            l.b.zero_grad();
        }
        self.w_out.zero_grad();
        self.b_out.zero_grad();
    }

    /// Visit every parameter tensor mutably, in a fixed order (encoder
    /// layers, decoder layers, output head).
    fn for_each_param(&mut self, mut f: impl FnMut(&mut Param)) {
        for l in self.enc.iter_mut().chain(self.dec.iter_mut()) {
            f(&mut l.w);
            f(&mut l.b);
        }
        f(&mut self.w_out);
        f(&mut self.b_out);
    }

    /// Immutable twin of [`Self::for_each_param`], same fixed order.
    fn for_each_param_ref(&self, mut f: impl FnMut(&Param)) {
        for l in self.enc.iter().chain(self.dec.iter()) {
            f(&l.w);
            f(&l.b);
        }
        f(&self.w_out);
        f(&self.b_out);
    }

    /// Number of parameter tensors [`Self::for_each_param`] visits.
    fn param_count(&self) -> usize {
        4 * self.cfg.layers + 2
    }

    fn clip_and_step(&mut self, scale: f64) {
        // Scale by 1/batch, then clip by global norm, then Adam. Each phase
        // is one sequential pass over the parameters in the same fixed
        // order, so the update is bit-identical to a single fused sweep.
        let clip_norm = self.cfg.clip_norm;
        self.for_each_param(|p| p.scale_grad(scale));
        let mut norm_sq = 0.0;
        self.for_each_param(|p| norm_sq += p.grad_norm_sq());
        let norm = norm_sq.sqrt();
        if norm > clip_norm {
            let s = clip_norm / norm;
            self.for_each_param(|p| p.scale_grad(s));
        }
        self.adam.begin_step();
        let adam = self.adam;
        self.for_each_param(|p| adam.update(p));
    }

    /// Train on `(inputs, targets)` pairs; returns the mean training loss
    /// per epoch. Targets should be standardized.
    pub fn train(&mut self, inputs: &[Vec<Vec<f64>>], targets: &[Vec<f64>]) -> Vec<f64> {
        // One epoch loop serves plain, early-stopped and resumed training,
        // so the paths cannot drift apart.
        self.train_resumable(inputs, targets, 0.0, 0, None, 0, |_| {})
    }

    /// [`Self::train`] with two production affordances, both off by default:
    ///
    /// * **Early stopping** — when `val_fraction > 0` and `patience >= 1`,
    ///   a deterministic interleaved slice of the samples is held out;
    ///   after each epoch the model is scored on it (autoregressive MSE, no
    ///   teacher forcing), training stops once `patience` epochs pass
    ///   without improvement, and the best epoch's weights are restored.
    /// * **Crash recovery** — every `checkpoint_every` epochs (0 = never)
    ///   the full training state (weights, Adam moments and step counter,
    ///   best-epoch snapshot, loss history) is handed to `on_checkpoint`;
    ///   a run restarted from that [`Seq2SeqTrainState`] converges
    ///   **bit-identically** to an uninterrupted run.
    ///
    /// `StdRng` is not serializable, so resume fast-forwards a fresh seeded
    /// RNG by replaying exactly what the completed epochs consumed: one
    /// in-place shuffle of the (persistent!) order permutation plus one
    /// `f64` draw per decoder step per training sample. Panics if the
    /// checkpoint disagrees with the config, sample count or early-stop
    /// settings — resuming against different inputs would silently diverge.
    #[allow(clippy::too_many_arguments)]
    pub fn train_resumable(
        &mut self,
        inputs: &[Vec<Vec<f64>>],
        targets: &[Vec<f64>],
        val_fraction: f64,
        patience: usize,
        resume: Option<Seq2SeqTrainState>,
        checkpoint_every: usize,
        mut on_checkpoint: impl FnMut(&Seq2SeqTrainState),
    ) -> Vec<f64> {
        assert_eq!(
            inputs.len(),
            targets.len(),
            "inputs/targets length mismatch"
        );
        assert!(!inputs.is_empty(), "cannot train on empty data");
        let n = inputs.len();
        let (train_idx, val_idx) = split_validation(n, val_fraction, patience);

        let mut rng = StdRng::seed_from_u64(self.cfg.seed.wrapping_add(1));
        let mut order: Vec<usize> = (0..train_idx.len()).collect();
        let draws_per_epoch = train_idx.len() * self.cfg.horizon;

        let (mut epoch_losses, mut best, start_epoch) = match resume {
            None => (Vec::with_capacity(self.cfg.epochs), None, 0),
            Some(st) => {
                assert_eq!(
                    st.model.cfg, self.cfg,
                    "checkpoint config mismatch on resume"
                );
                assert_eq!(
                    st.n_samples, n,
                    "checkpoint sample count mismatch on resume"
                );
                assert_eq!(
                    st.val_fraction.to_bits(),
                    val_fraction.to_bits(),
                    "checkpoint validation fraction mismatch on resume"
                );
                assert_eq!(
                    st.patience, patience,
                    "checkpoint patience mismatch on resume"
                );
                if let Some(why) = st.counters_error() {
                    panic!("inconsistent checkpoint on resume: {why}");
                }
                // Replay the RNG stream of the completed epochs. The order
                // permutation is shuffled in place epoch over epoch, so the
                // shuffles must be replayed on the same evolving vector,
                // interleaved with each epoch's teacher-forcing draws.
                for _ in 0..st.epochs_done {
                    order.shuffle(&mut rng);
                    for _ in 0..draws_per_epoch {
                        let _ = rng.gen::<f64>();
                    }
                }
                let start = st.epochs_done;
                *self = st.model;
                (st.epoch_losses, st.best, start)
            }
        };

        for epoch in start_epoch..self.cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            for batch in order.chunks(self.cfg.batch_size) {
                self.zero_grads();
                let xs: Vec<&[Vec<f64>]> = batch
                    .iter()
                    .map(|&o| inputs[train_idx[o]].as_slice())
                    .collect();
                let ys: Vec<&[f64]> = batch
                    .iter()
                    .map(|&o| targets[train_idx[o]].as_slice())
                    .collect();
                let batch_loss = self.train_step(&xs, &ys, &mut rng);
                self.clip_and_step(1.0 / batch.len() as f64);
                epoch_loss += batch_loss;
            }
            epoch_losses.push(epoch_loss / train_idx.len() as f64);

            // Early stopping: score the held-out slice autoregressively
            // (the way the model is served), track the best epoch.
            let mut stop = false;
            if !val_idx.is_empty() {
                let seqs: Vec<&[Vec<f64>]> =
                    val_idx.iter().map(|&i| inputs[i].as_slice()).collect();
                let preds = self
                    .predict_batch(&seqs)
                    .expect("cannot validate on an empty sequence");
                let mut val_loss = 0.0;
                for (pred, &i) in preds.iter().zip(&val_idx) {
                    val_loss += pred
                        .iter()
                        .zip(&targets[i])
                        .map(|(p, y)| (p - y) * (p - y))
                        .sum::<f64>()
                        / self.cfg.horizon as f64;
                }
                val_loss /= val_idx.len() as f64;
                match &best {
                    Some(b) if val_loss >= b.val_loss => {
                        if epoch - b.epoch >= patience {
                            stop = true;
                        }
                    }
                    _ => {
                        best = Some(BestEpoch {
                            val_loss,
                            epoch,
                            weights: self.snapshot_weights(),
                        });
                    }
                }
            }

            let done = epoch + 1;
            if !stop
                && checkpoint_every > 0
                && done.is_multiple_of(checkpoint_every)
                && done < self.cfg.epochs
            {
                on_checkpoint(&Seq2SeqTrainState {
                    model: self.clone(),
                    epochs_done: done,
                    n_samples: n,
                    val_fraction,
                    patience,
                    epoch_losses: epoch_losses.clone(),
                    best: best.clone(),
                });
            }
            if stop {
                break;
            }
        }

        // Whether training ran out of epochs or stopped early, serve the
        // best validated weights when a validation slice exists.
        if let Some(b) = best {
            self.restore_weights(&b.weights);
        }
        epoch_losses
    }

    /// Clone every weight tensor, in [`Self::for_each_param`] order.
    fn snapshot_weights(&self) -> Vec<Vec<f64>> {
        let mut ws = Vec::with_capacity(self.param_count());
        self.for_each_param_ref(|p| ws.push(p.w.clone()));
        ws
    }

    fn restore_weights(&mut self, ws: &[Vec<f64>]) {
        assert_eq!(
            ws.len(),
            self.param_count(),
            "weight snapshot shape mismatch"
        );
        let mut it = ws.iter();
        self.for_each_param(|p| {
            let w = it.next().expect("length checked above");
            assert_eq!(w.len(), p.w.len(), "weight tensor shape mismatch");
            p.w.clone_from(w);
        });
    }
}

/// Deterministic interleaved train/validation split: every `k`-th sample
/// (k ≈ 1 / `val_fraction`, at least 2) goes to validation. Returns all
/// samples as training data when early stopping is disabled or the set is
/// too small to split.
fn split_validation(n: usize, val_fraction: f64, patience: usize) -> (Vec<usize>, Vec<usize>) {
    if val_fraction <= 0.0 || patience == 0 || n < 4 {
        return ((0..n).collect(), Vec::new());
    }
    let k = ((1.0 / val_fraction).round() as usize).max(2);
    let (mut train, mut val) = (Vec::new(), Vec::new());
    for i in 0..n {
        if i.is_multiple_of(k) {
            val.push(i);
        } else {
            train.push(i);
        }
    }
    if train.is_empty() || val.is_empty() {
        return ((0..n).collect(), Vec::new());
    }
    (train, val)
}

/// The best validated epoch seen so far (early stopping bookkeeping).
#[derive(Debug, Clone)]
struct BestEpoch {
    val_loss: f64,
    epoch: usize,
    /// Weight tensors in `for_each_param` order.
    weights: Vec<Vec<f64>>,
}

/// A mid-training Seq2Seq snapshot: the model **with** its Adam moments
/// and step counter, plus the epoch bookkeeping needed to resume
/// bit-identically (see [`Seq2Seq::train_resumable`]).
#[derive(Debug, Clone)]
pub struct Seq2SeqTrainState {
    model: Seq2Seq,
    epochs_done: usize,
    n_samples: usize,
    val_fraction: f64,
    patience: usize,
    epoch_losses: Vec<f64>,
    best: Option<BestEpoch>,
}

impl Seq2SeqTrainState {
    /// Epochs completed when this snapshot was taken.
    pub fn epochs_done(&self) -> usize {
        self.epochs_done
    }

    /// True when this snapshot can resume a run of `model` over `n_samples`
    /// sequences with the given early-stopping settings — the exact
    /// preconditions [`Seq2Seq::train_resumable`] asserts, exposed so
    /// callers can degrade to a cold start instead of panicking on a stale
    /// checkpoint.
    pub fn resumes(
        &self,
        model: &Seq2Seq,
        n_samples: usize,
        val_fraction: f64,
        patience: usize,
    ) -> bool {
        self.model.cfg == model.cfg
            && self.n_samples == n_samples
            && self.val_fraction.to_bits() == val_fraction.to_bits()
            && self.patience == patience
            && self.counters_error().is_none()
    }

    /// Why the epoch counters cannot come from a real run, if they cannot:
    /// more epochs done than configured (resume would replay up to 2³²
    /// epochs of RNG draws before training), a loss history of another
    /// length, or a best epoch that has not run yet.
    fn counters_error(&self) -> Option<String> {
        let done = self.epochs_done;
        if done > self.model.cfg.epochs {
            return Some(format!(
                "{done} epochs done of {} configured",
                self.model.cfg.epochs
            ));
        }
        if self.epoch_losses.len() != done {
            return Some(format!(
                "{} epoch losses for {done} epochs done",
                self.epoch_losses.len()
            ));
        }
        match &self.best {
            Some(b) if b.epoch >= done => {
                Some(format!("best epoch {} of {done} epochs done", b.epoch))
            }
            _ => None,
        }
    }

    /// Serialize the full training state. Unlike [`Seq2Seq::encode`] this
    /// includes the Adam moments and step counter — a resumed optimizer
    /// must continue exactly where it left off, not restart cold.
    pub fn encode(&self, w: &mut ByteWriter) {
        self.model.encode(w);
        self.model.for_each_param_ref(|p| {
            w.put_f64s(&p.m);
            w.put_f64s(&p.v);
        });
        w.put_u64(self.model.adam.t);
        w.put_len(self.epochs_done);
        w.put_len(self.n_samples);
        w.put_f64(self.val_fraction);
        w.put_len(self.patience);
        w.put_f64s(&self.epoch_losses);
        match &self.best {
            None => w.put_u8(0),
            Some(b) => {
                w.put_u8(1);
                w.put_f64(b.val_loss);
                w.put_len(b.epoch);
                w.put_len(b.weights.len());
                for t in &b.weights {
                    w.put_f64s(t);
                }
            }
        }
    }

    /// Inverse of [`Self::encode`]. Every tensor length is validated
    /// against the decoded architecture.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let mut model = Seq2Seq::decode(r)?;
        let n_params = model.param_count();
        let mut shapes = Vec::with_capacity(n_params);
        model.for_each_param_ref(|p| shapes.push(p.w.len()));
        let mut moments = Vec::with_capacity(n_params);
        for &len in &shapes {
            let m = r.f64s()?;
            let v = r.f64s()?;
            if m.len() != len || v.len() != len {
                return Err(CodecError::Invalid(format!(
                    "Adam moment tensor of {} / {} values, expected {len}",
                    m.len(),
                    v.len()
                )));
            }
            moments.push((m, v));
        }
        let mut it = moments.into_iter();
        model.for_each_param(|p| {
            let (m, v) = it.next().expect("count checked above");
            p.m = m;
            p.v = v;
        });
        model.adam.t = r.u64()?;
        let epochs_done = r.len()?;
        let n_samples = r.len()?;
        let val_fraction = r.f64()?;
        let patience = r.len()?;
        let epoch_losses = r.f64s()?;
        let best = match r.u8()? {
            0 => None,
            1 => {
                let val_loss = r.f64()?;
                let epoch = r.len()?;
                let n_tensors = r.len()?;
                if n_tensors != n_params {
                    return Err(CodecError::Invalid(format!(
                        "best-epoch snapshot of {n_tensors} tensors, expected {n_params}"
                    )));
                }
                let mut weights = Vec::with_capacity(n_params);
                for &len in &shapes {
                    let t = r.f64s()?;
                    if t.len() != len {
                        return Err(CodecError::Invalid(format!(
                            "best-epoch tensor of {} values, expected {len}",
                            t.len()
                        )));
                    }
                    weights.push(t);
                }
                Some(BestEpoch {
                    val_loss,
                    epoch,
                    weights,
                })
            }
            tag => {
                return Err(CodecError::BadTag {
                    what: "best-epoch presence",
                    tag,
                })
            }
        };
        let state = Seq2SeqTrainState {
            model,
            epochs_done,
            n_samples,
            val_fraction,
            patience,
            epoch_losses,
            best,
        };
        match state.counters_error() {
            Some(why) => Err(CodecError::Invalid(format!("Seq2Seq checkpoint: {why}"))),
            None => Ok(state),
        }
    }
}

/// The per-sample training and inference path that the lockstep step must
/// reproduce bit for bit: one sample at a time through the single-lane
/// LSTM step, with the teacher-forcing draws taken as the decoder runs.
/// Kept only as a test oracle.
#[cfg(test)]
mod reference {
    use super::super::lstm::reference::{backward, forward};
    use super::*;

    struct DecoderTrace {
        /// caches[t][layer]
        caches: Vec<Vec<StepCache>>,
        /// Top-layer hidden state at each step.
        h_top: Vec<Vec<f64>>,
        /// Emitted outputs.
        outputs: Vec<f64>,
    }

    /// Encode an input sequence; returns per-layer (h, c) finals plus all
    /// caches.
    #[allow(clippy::type_complexity)]
    fn run_encoder(
        m: &Seq2Seq,
        xs: &[Vec<f64>],
    ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>, Vec<Vec<StepCache>>) {
        let hdim = m.cfg.hidden;
        let mut h: Vec<Vec<f64>> = vec![vec![0.0; hdim]; m.cfg.layers];
        let mut c: Vec<Vec<f64>> = vec![vec![0.0; hdim]; m.cfg.layers];
        let mut caches: Vec<Vec<StepCache>> = Vec::with_capacity(xs.len());
        for x in xs {
            let mut input = x.clone();
            let mut step_caches = Vec::with_capacity(m.cfg.layers);
            for (l, layer) in m.enc.iter().enumerate() {
                let (hn, cn, cache) = forward(layer, &input, &h[l], &c[l]);
                input = hn.clone();
                h[l] = hn;
                c[l] = cn;
                step_caches.push(cache);
            }
            caches.push(step_caches);
        }
        (h, c, caches)
    }

    /// Run the decoder from encoder states; `teacher: Some(targets)`
    /// supplies ground truth for forced steps.
    fn run_decoder(
        m: &Seq2Seq,
        mut h: Vec<Vec<f64>>,
        mut c: Vec<Vec<f64>>,
        mut teacher: Option<(&[f64], &mut StdRng, f64)>,
    ) -> DecoderTrace {
        let mut trace = DecoderTrace {
            caches: Vec::with_capacity(m.cfg.horizon),
            h_top: Vec::with_capacity(m.cfg.horizon),
            outputs: Vec::with_capacity(m.cfg.horizon),
        };
        let mut prev = 0.0f64; // start token
        for t in 0..m.cfg.horizon {
            let mut input = vec![prev];
            let mut step_caches = Vec::with_capacity(m.cfg.layers);
            for (l, layer) in m.dec.iter().enumerate() {
                let (hn, cn, cache) = forward(layer, &input, &h[l], &c[l]);
                input = hn.clone();
                h[l] = hn;
                c[l] = cn;
                step_caches.push(cache);
            }
            let h_top = h[m.cfg.layers - 1].clone();
            let y: f64 = m.b_out.w[0]
                + m.w_out
                    .w
                    .iter()
                    .zip(&h_top)
                    .map(|(w, h)| w * h)
                    .sum::<f64>();
            trace.caches.push(step_caches);
            trace.h_top.push(h_top);
            trace.outputs.push(y);
            prev = if let Some((targets, rng, p)) = &mut teacher {
                if rng.gen::<f64>() < *p {
                    targets[t]
                } else {
                    y
                }
            } else {
                y
            };
        }
        trace
    }

    /// Single-sequence inference.
    pub fn predict(m: &Seq2Seq, xs: &[Vec<f64>]) -> Vec<f64> {
        assert!(!xs.is_empty(), "cannot predict from an empty sequence");
        let (h, c, _) = run_encoder(m, xs);
        run_decoder(m, h, c, None).outputs
    }

    /// Forward + backward on one sample; accumulates gradients and returns
    /// the MSE loss.
    pub fn loss_and_grad(m: &mut Seq2Seq, xs: &[Vec<f64>], ys: &[f64], rng: &mut StdRng) -> f64 {
        assert_eq!(ys.len(), m.cfg.horizon, "target length mismatch");
        let layers = m.cfg.layers;
        let hdim = m.cfg.hidden;

        let (h_enc, c_enc, enc_caches) = run_encoder(m, xs);
        let tf = m.cfg.teacher_forcing;
        let trace = run_decoder(m, h_enc, c_enc, Some((ys, rng, tf)));

        let k = m.cfg.horizon as f64;
        let loss: f64 = trace
            .outputs
            .iter()
            .zip(ys)
            .map(|(o, y)| (o - y) * (o - y))
            .sum::<f64>()
            / k;

        // ---- Backward through the decoder ----
        let mut dh_next: Vec<Vec<f64>> = vec![vec![0.0; hdim]; layers];
        let mut dc_next: Vec<Vec<f64>> = vec![vec![0.0; hdim]; layers];
        for t in (0..m.cfg.horizon).rev() {
            let dy = 2.0 * (trace.outputs[t] - ys[t]) / k;
            m.b_out.g[0] += dy;
            let mut dh_top = dh_next[layers - 1].clone();
            for (j, dh) in dh_top.iter_mut().enumerate() {
                m.w_out.g[j] += dy * trace.h_top[t][j];
                *dh += dy * m.w_out.w[j];
            }
            let mut dh_layer = dh_top;
            for l in (0..layers).rev() {
                let dc_layer = dc_next[l].clone();
                let (dx, dh_prev, dc_prev) =
                    backward(&mut m.dec[l], &dh_layer, &dc_layer, &trace.caches[t][l]);
                dh_next[l] = dh_prev;
                dc_next[l] = dc_prev;
                if l > 0 {
                    dh_layer = dx.iter().zip(&dh_next[l - 1]).map(|(a, b)| a + b).collect();
                }
            }
        }

        // ---- Backward through the encoder ----
        let mut dh = dh_next;
        let mut dc = dc_next;
        for t in (0..xs.len()).rev() {
            let mut dh_from_above: Vec<f64> = vec![0.0; hdim];
            for l in (0..layers).rev() {
                let dh_total: Vec<f64> = dh[l]
                    .iter()
                    .zip(&dh_from_above)
                    .map(|(a, b)| a + b)
                    .collect();
                let (dx, dh_prev, dc_prev) =
                    backward(&mut m.enc[l], &dh_total, &dc[l], &enc_caches[t][l]);
                dh[l] = dh_prev;
                dc[l] = dc_prev;
                dh_from_above = if l > 0 { dx } else { vec![0.0; hdim] };
            }
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> Seq2SeqConfig {
        Seq2SeqConfig {
            input_dim: 2,
            hidden: 4,
            layers: 2,
            horizon: 3,
            epochs: 1,
            batch_size: 4,
            lr: 1e-2,
            teacher_forcing: 1.0, // deterministic path for grad checks
            clip_norm: 1e9,
            seed: 7,
        }
    }

    /// One lane through the batched inference path.
    fn predict1(m: &Seq2Seq, xs: &[Vec<f64>]) -> Vec<f64> {
        m.predict_batch(&[xs]).unwrap().remove(0)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn predict_returns_horizon_values() {
        let m = Seq2Seq::new(tiny_cfg());
        let xs = vec![vec![0.1, 0.2], vec![0.3, -0.1], vec![0.0, 0.5]];
        assert_eq!(predict1(&m, &xs).len(), 3);
    }

    #[test]
    fn prediction_is_deterministic() {
        let m = Seq2Seq::new(tiny_cfg());
        let xs = vec![vec![0.1, 0.2], vec![0.3, -0.1]];
        assert_eq!(predict1(&m, &xs), predict1(&m, &xs));
    }

    #[test]
    fn predict_checked_handles_empty_history() {
        let m = Seq2Seq::new(tiny_cfg());
        assert_eq!(m.predict_batch(&[&[]]), None);
        let xs = vec![vec![0.1, 0.2]];
        assert_eq!(
            m.predict_batch(&[&xs]),
            Some(vec![reference::predict(&m, &xs)])
        );
    }

    #[test]
    fn predict_batch_bit_matches_single_lane_predict() {
        let m = Seq2Seq::new(tiny_cfg());
        // Lanes of different lengths, including one long enough to exercise
        // several encoder steps.
        let seqs: Vec<Vec<Vec<f64>>> = (0..9)
            .map(|b| {
                (0..=(b % 4))
                    .map(|t| {
                        let s = (b * 7 + t) as f64;
                        vec![(s * 0.31).sin(), (s * 0.17).cos()]
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[Vec<f64>]> = seqs.iter().map(|s| s.as_slice()).collect();
        for width in [1usize, 2, 3, 8, 9] {
            for chunk in refs.chunks(width) {
                let batched = m.predict_batch(chunk).unwrap();
                for (lane, seq) in chunk.iter().enumerate() {
                    let single = reference::predict(&m, seq);
                    assert_eq!(
                        bits(&batched[lane]),
                        bits(&single),
                        "lane {lane} of width-{width} batch diverged"
                    );
                }
            }
        }
        // Any empty lane poisons the whole batch into a typed None.
        let with_empty: Vec<&[Vec<f64>]> = vec![&seqs[0], &[]];
        assert_eq!(m.predict_batch(&with_empty), None);
        assert_eq!(m.predict_batch(&[]), Some(Vec::new()));
    }

    #[test]
    fn codec_round_trip_is_bit_identical() {
        let mut m = Seq2Seq::new(tiny_cfg());
        // A trained model has non-initial weights — round-trip those.
        let inputs: Vec<Vec<Vec<f64>>> = (0..8)
            .map(|s| {
                (0..4)
                    .map(|t| vec![(s as f64 + t as f64 * 0.5).sin(), (t as f64).cos()])
                    .collect()
            })
            .collect();
        let targets: Vec<Vec<f64>> = (0..8)
            .map(|s| (0..3).map(|t| ((s + t) as f64 * 0.25).sin()).collect())
            .collect();
        m.train(&inputs, &targets);

        let mut w = ByteWriter::new();
        m.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let restored = Seq2Seq::decode(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(restored.config(), m.config());
        let xs = vec![vec![0.4, -0.2], vec![0.1, 0.9], vec![-0.3, 0.0]];
        let a = predict1(&m, &xs);
        let b = predict1(&restored, &xs);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "decoded model must predict bit-identically"
        );

        // Every truncation must error, never panic.
        for cut in (0..bytes.len()).step_by(41) {
            let mut r = ByteReader::new(&bytes[..cut]);
            let outcome = Seq2Seq::decode(&mut r).and_then(|_| r.finish());
            assert!(outcome.is_err(), "truncation at {cut} bytes must fail");
        }
    }

    /// Full-model finite-difference gradient check with teacher forcing = 1
    /// (eliminates sampling randomness from the loss path).
    #[test]
    fn gradient_check_end_to_end() {
        let cfg = tiny_cfg();
        let mut m = Seq2Seq::new(cfg);
        let xs = vec![vec![0.2, -0.4], vec![0.5, 0.1]];
        let ys = vec![0.3, -0.2, 0.8];

        let loss_of = |m: &mut Seq2Seq| -> f64 {
            // With tf = 1.0 the path is deterministic regardless of RNG.
            let mut rng = StdRng::seed_from_u64(99);
            // Use a cloned model so grads don't touch the original.
            let mut probe = m.clone();
            probe.train_step(&[&xs], &[&ys], &mut rng)
        };

        let mut rng = StdRng::seed_from_u64(99);
        m.zero_grads();
        let _ = m.train_step(&[&xs], &[&ys], &mut rng);

        let eps = 1e-6;
        // Encoder layer-0 weights (tests BPTT through the enc/dec boundary).
        for &idx in &[0usize, 5, 17, 30] {
            let orig = m.enc[0].w.w[idx];
            m.enc[0].w.w[idx] = orig + eps;
            let lp = loss_of(&mut m);
            m.enc[0].w.w[idx] = orig - eps;
            let lm = loss_of(&mut m);
            m.enc[0].w.w[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = m.enc[0].w.g[idx];
            assert!(
                (numeric - analytic).abs() < 1e-5 * (1.0 + numeric.abs()),
                "enc w[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Decoder layer-1 weights.
        for &idx in &[0usize, 9, 25] {
            let orig = m.dec[1].w.w[idx];
            m.dec[1].w.w[idx] = orig + eps;
            let lp = loss_of(&mut m);
            m.dec[1].w.w[idx] = orig - eps;
            let lm = loss_of(&mut m);
            m.dec[1].w.w[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = m.dec[1].w.g[idx];
            assert!(
                (numeric - analytic).abs() < 1e-5 * (1.0 + numeric.abs()),
                "dec w[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Output head.
        for &idx in &[0usize, 3] {
            let orig = m.w_out.w[idx];
            m.w_out.w[idx] = orig + eps;
            let lp = loss_of(&mut m);
            m.w_out.w[idx] = orig - eps;
            let lm = loss_of(&mut m);
            m.w_out.w[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = m.w_out.g[idx];
            assert!(
                (numeric - analytic).abs() < 1e-5 * (1.0 + numeric.abs()),
                "w_out[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    /// Every gradient accumulator, in `for_each_param` order, as bits.
    fn grad_bits(m: &Seq2Seq) -> Vec<Vec<u64>> {
        let mut gs = Vec::new();
        m.for_each_param_ref(|p| gs.push(bits(&p.g)));
        gs
    }

    #[test]
    fn minibatch_step_bit_matches_per_sample_reference() {
        let cfg = Seq2SeqConfig {
            input_dim: 3,
            hidden: 6,
            layers: 2,
            horizon: 4,
            epochs: 1,
            batch_size: 64,
            lr: 1e-2,
            teacher_forcing: 0.5, // the draws decide the decoder inputs
            clip_norm: 5.0,
            seed: 21,
        };
        // Ragged histories of 1..=6 steps.
        let inputs: Vec<Vec<Vec<f64>>> = (0..64)
            .map(|s| {
                (0..1 + (s * 5) % 6)
                    .map(|t| {
                        let v = (s * 11 + t * 3) as f64;
                        vec![(v * 0.13).sin(), (v * 0.07).cos(), (v * 0.29).sin() * 0.5]
                    })
                    .collect()
            })
            .collect();
        let targets: Vec<Vec<f64>> = (0..64)
            .map(|s| (0..4).map(|t| ((s + 2 * t) as f64 * 0.21).cos()).collect())
            .collect();
        // Weights past initialization, so no gradient term is trivially 0.
        let mut base = Seq2Seq::new(cfg);
        base.train(&inputs[..16], &targets[..16]);

        for batch in [1usize, 7, 8, 9, 64] {
            let samples: Vec<usize> = (0..batch).map(|i| (i * 37 + 5) % 64).collect();
            let mut want = base.clone();
            want.zero_grads();
            let mut want_rng = StdRng::seed_from_u64(batch as u64);
            let mut want_loss = 0.0;
            for &s in &samples {
                want_loss +=
                    reference::loss_and_grad(&mut want, &inputs[s], &targets[s], &mut want_rng);
            }

            let mut got = base.clone();
            got.zero_grads();
            let mut got_rng = StdRng::seed_from_u64(batch as u64);
            let xs: Vec<&[Vec<f64>]> = samples.iter().map(|&s| inputs[s].as_slice()).collect();
            let ys: Vec<&[f64]> = samples.iter().map(|&s| targets[s].as_slice()).collect();
            let got_loss = got.train_step(&xs, &ys, &mut got_rng);

            assert_eq!(
                got_loss.to_bits(),
                want_loss.to_bits(),
                "batch {batch}: loss"
            );
            for (i, (g, w)) in grad_bits(&got).iter().zip(grad_bits(&want)).enumerate() {
                assert_eq!(g, &w, "batch {batch}: gradient tensor {i}");
            }
            assert_eq!(
                got_rng.gen::<u64>(),
                want_rng.gen::<u64>(),
                "batch {batch}: RNG stream"
            );
        }
    }

    fn sine_task(n: usize) -> (Vec<Vec<Vec<f64>>>, Vec<Vec<f64>>) {
        let mut inputs = Vec::new();
        let mut targets = Vec::new();
        for s in 0..n {
            let t0 = s as f64 * 0.37;
            let hist: Vec<Vec<f64>> = (0..6).map(|i| vec![(t0 + i as f64 * 0.5).sin()]).collect();
            let fut: Vec<f64> = (6..9).map(|i| (t0 + i as f64 * 0.5).sin()).collect();
            inputs.push(hist);
            targets.push(fut);
        }
        (inputs, targets)
    }

    fn model_bytes(m: &Seq2Seq) -> Vec<u8> {
        let mut w = ByteWriter::new();
        m.encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn resume_from_any_checkpoint_is_bit_identical() {
        let cfg = Seq2SeqConfig {
            input_dim: 1,
            hidden: 6,
            layers: 2,
            horizon: 3,
            epochs: 9,
            batch_size: 8,
            lr: 5e-3,
            teacher_forcing: 0.6, // partial forcing: the RNG stream matters
            clip_norm: 5.0,
            seed: 11,
        };
        let (inputs, targets) = sine_task(24);
        let mut uninterrupted = Seq2Seq::new(cfg);
        uninterrupted.train(&inputs, &targets);
        let want = model_bytes(&uninterrupted);

        let mut checkpoints = Vec::new();
        let mut probe = Seq2Seq::new(cfg);
        probe.train_resumable(&inputs, &targets, 0.0, 0, None, 2, |st| {
            checkpoints.push(st.clone());
        });
        assert_eq!(model_bytes(&probe), want, "checkpointing must not perturb");
        assert_eq!(checkpoints.len(), 4, "9 epochs / every 2 → 4 checkpoints");
        for st in checkpoints {
            let epochs = st.epochs_done();
            let mut resumed = Seq2Seq::new(cfg);
            resumed.train_resumable(&inputs, &targets, 0.0, 0, Some(st), 0, |_| {});
            assert_eq!(
                model_bytes(&resumed),
                want,
                "resume from epoch {epochs} diverged"
            );
        }
    }

    #[test]
    fn train_state_codec_round_trips_and_resumes_bit_identically() {
        let cfg = Seq2SeqConfig {
            input_dim: 1,
            hidden: 5,
            layers: 1,
            horizon: 3,
            epochs: 6,
            batch_size: 8,
            lr: 5e-3,
            teacher_forcing: 0.5,
            clip_norm: 5.0,
            seed: 4,
        };
        let (inputs, targets) = sine_task(20);
        let mut uninterrupted = Seq2Seq::new(cfg);
        uninterrupted.train(&inputs, &targets);
        let want = model_bytes(&uninterrupted);

        let mut saved = None;
        let mut probe = Seq2Seq::new(cfg);
        probe.train_resumable(&inputs, &targets, 0.0, 0, None, 3, |st| {
            saved = Some(st.clone());
        });
        let st = saved.unwrap();
        let mut w = ByteWriter::new();
        st.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let decoded = Seq2SeqTrainState::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded.epochs_done(), st.epochs_done());

        // The state that crossed the byte boundary resumes identically —
        // Adam moments and step counter included.
        let mut resumed = Seq2Seq::new(cfg);
        resumed.train_resumable(&inputs, &targets, 0.0, 0, Some(decoded), 0, |_| {});
        assert_eq!(model_bytes(&resumed), want);

        // Truncated states fail cleanly.
        for cut in (0..bytes.len()).step_by(37).chain([bytes.len() - 1]) {
            let mut r = ByteReader::new(&bytes[..cut]);
            let outcome = Seq2SeqTrainState::decode(&mut r).and_then(|_| r.finish());
            assert!(outcome.is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn early_stopping_restores_best_epoch_and_remains_resumable() {
        let cfg = Seq2SeqConfig {
            input_dim: 1,
            hidden: 8,
            layers: 1,
            horizon: 3,
            epochs: 14,
            batch_size: 8,
            lr: 1e-2,
            teacher_forcing: 0.7,
            clip_norm: 5.0,
            seed: 2,
        };
        let (inputs, targets) = sine_task(28);
        let (val_fraction, patience) = (0.25, 2);

        let mut plain = Seq2Seq::new(cfg);
        let losses =
            plain.train_resumable(&inputs, &targets, val_fraction, patience, None, 0, |_| {});
        assert!(!losses.is_empty());
        let want = model_bytes(&plain);

        // The restored weights really are a validated snapshot: re-scoring
        // the held-out slice beats (or ties) every later epoch by
        // construction, so at minimum the final weights must reproduce the
        // best recorded validation loss.
        let (train_idx, val_idx) = split_validation(inputs.len(), val_fraction, patience);
        assert!(!val_idx.is_empty() && !train_idx.is_empty());
        assert!(val_idx.len() < train_idx.len());

        // Early stopping composes with checkpoint/resume bit-identically.
        let mut checkpoints = Vec::new();
        let mut probe = Seq2Seq::new(cfg);
        probe.train_resumable(&inputs, &targets, val_fraction, patience, None, 3, |st| {
            checkpoints.push(st.clone());
        });
        assert_eq!(model_bytes(&probe), want);
        for st in checkpoints {
            let epochs = st.epochs_done();
            let mut resumed = Seq2Seq::new(cfg);
            resumed.train_resumable(
                &inputs,
                &targets,
                val_fraction,
                patience,
                Some(st),
                0,
                |_| {},
            );
            assert_eq!(
                model_bytes(&resumed),
                want,
                "early-stopped resume from epoch {epochs} diverged"
            );
        }
    }

    #[test]
    fn impossible_train_state_counters_are_rejected() {
        let cfg = Seq2SeqConfig {
            input_dim: 1,
            hidden: 4,
            layers: 1,
            horizon: 3,
            epochs: 6,
            batch_size: 8,
            lr: 1e-2,
            teacher_forcing: 0.7,
            clip_norm: 5.0,
            seed: 5,
        };
        let (inputs, targets) = sine_task(20);
        let (val_fraction, patience) = (0.25, 5);
        let mut saved = None;
        let mut probe = Seq2Seq::new(cfg);
        probe.train_resumable(&inputs, &targets, val_fraction, patience, None, 3, |st| {
            saved = Some(st.clone());
        });
        let genuine = saved.unwrap();
        assert!(
            genuine.best.is_some(),
            "the test needs a best-epoch snapshot"
        );
        let fresh = Seq2Seq::new(cfg);
        let n = inputs.len();
        assert!(genuine.resumes(&fresh, n, val_fraction, patience));

        type Corruption = (&'static str, fn(&mut Seq2SeqTrainState));
        let corruptions: [Corruption; 4] = [
            ("epochs past the config", |st| {
                st.epochs_done = st.model.cfg.epochs + 1;
                st.epoch_losses.resize(st.epochs_done, 0.0);
            }),
            ("effectively endless replay", |st| {
                st.epochs_done = u32::MAX as usize;
            }),
            ("loss history length", |st| st.epoch_losses.push(0.5)),
            ("best epoch not yet run", |st| {
                st.best.as_mut().unwrap().epoch = st.epochs_done;
            }),
        ];
        for (what, corrupt) in corruptions {
            let mut st = genuine.clone();
            corrupt(&mut st);
            assert!(
                !st.resumes(&fresh, n, val_fraction, patience),
                "{what}: must not resume"
            );
            let mut w = ByteWriter::new();
            st.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert!(
                matches!(
                    Seq2SeqTrainState::decode(&mut r),
                    Err(CodecError::Invalid(_))
                ),
                "{what}: must decode to a typed error"
            );
        }
    }

    #[test]
    fn validation_split_is_deterministic_and_guarded() {
        assert_eq!(split_validation(10, 0.0, 3).1.len(), 0);
        assert_eq!(split_validation(10, 0.25, 0).1.len(), 0);
        assert_eq!(split_validation(3, 0.25, 3).1.len(), 0);
        let (train, val) = split_validation(12, 0.25, 2);
        assert_eq!(val, vec![0, 4, 8]);
        assert_eq!(train.len(), 9);
        // Fractions above one half still leave training data (k >= 2).
        let (train, val) = split_validation(10, 0.9, 2);
        assert!(!train.is_empty() && !val.is_empty());
    }

    #[test]
    fn training_reduces_loss_on_learnable_sequence() {
        // Predict the continuation of a noiseless sine from its history.
        let cfg = Seq2SeqConfig {
            input_dim: 1,
            hidden: 12,
            layers: 2,
            horizon: 4,
            epochs: 25,
            batch_size: 16,
            lr: 5e-3,
            teacher_forcing: 0.8,
            clip_norm: 5.0,
            seed: 3,
        };
        let mut inputs = Vec::new();
        let mut targets = Vec::new();
        for s in 0..96 {
            let t0 = s as f64 * 0.37;
            let hist: Vec<Vec<f64>> = (0..8).map(|i| vec![(t0 + i as f64 * 0.5).sin()]).collect();
            let fut: Vec<f64> = (8..12).map(|i| (t0 + i as f64 * 0.5).sin()).collect();
            inputs.push(hist);
            targets.push(fut);
        }
        let mut m = Seq2Seq::new(cfg);
        let losses = m.train(&inputs, &targets);
        let first = losses[0];
        let last = *losses.last().unwrap();
        assert!(
            last < first * 0.35,
            "loss did not drop enough: {first} → {last}"
        );
        // And predictions beat the trivial zero predictor on a held-out phase.
        let hist: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![(100.0 + i as f64 * 0.5).sin()])
            .collect();
        let truth: Vec<f64> = (8..12).map(|i| (100.0f64 + i as f64 * 0.5).sin()).collect();
        let pred = predict1(&m, &hist);
        let model_mse: f64 = pred
            .iter()
            .zip(&truth)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / 4.0;
        let zero_mse: f64 = truth.iter().map(|t| t * t).sum::<f64>() / 4.0;
        assert!(model_mse < zero_mse, "model {model_mse} vs zero {zero_mse}");
    }
}
