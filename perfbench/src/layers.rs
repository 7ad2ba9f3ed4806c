//! Per-layer probes for the traced run.
//!
//! The shards run admission, session update, feature extraction and the
//! model call on their own threads, where the benchmark cannot place
//! spans. These probes make the same public calls from the benchmark, one
//! span per call, on the workload's own records and models. A workload
//! that does not serve a family still reports that family's layers, from
//! a model of the served shape trained on the same campaign, so every
//! traced run has the full table.

use crate::fleet::{Fleet, Stream};
use crate::stats::SplitMix;
use crate::trace::Tracer;
use lumos5g::persist::{atomic_write, decode_regressor, encode_regressor};
use lumos5g::{build_sequences, FeatureSpec, Seq2SeqParams, TrainedRegressor};
use lumos5g_ml::dataset::TargetScaler;
use lumos5g_ml::nn::batched_matvec_bias;
use lumos5g_ml::{Seq2Seq, Seq2SeqConfig, StandardScaler};
use lumos5g_serve::{admit, Session};
use lumos5g_sim::Dataset;
use std::hint::black_box;
use std::path::Path;

/// Lanes of the batched decode probe (the engine's `decode_batch`).
pub const BATCH: usize = 8;

/// Decoder calls timed at each batch size.
const DECODES: usize = 64;

/// The per-record shard pipeline on `records` arrivals of `fleet`:
/// `admit` → `Session::push` → `extract_latest` → model call, plus the
/// Seq2Seq history step, then batched decodes of the histories it built.
pub fn pipeline(
    tr: &mut Tracer,
    stream: &Stream,
    fleet: &Fleet,
    records: usize,
    gdbt: &TrainedRegressor,
    seq: &TrainedRegressor,
) {
    let TrainedRegressor::Gdbt {
        model: booster,
        spec,
    } = gdbt
    else {
        panic!("pipeline probe needs a GDBT model");
    };
    let input_len = seq.seq2seq_params().expect("a Seq2Seq model").input_len;
    let mut sessions: Vec<Session> = (0..fleet.ues())
        .map(|_| Session::for_sequences(spec.required_window(), input_len))
        .collect();
    let mut histories: Vec<Vec<Vec<f64>>> = Vec::new();
    for idx in 0..records {
        let (k, u) = (idx / fleet.ues(), idx % fleet.ues());
        let record = stream.recs[fleet.pos(u, k)].clone();
        let req = idx as u64;
        let root = tr.open("serve.record", req);
        tr.span("serve.admit", req, || admit(&record)).ok();
        let session = &mut sessions[u];
        tr.span("serve.session.push", req, || session.push(record));
        let x = tr.span("core.features.extract", req, || {
            spec.extract_latest(session.window())
        });
        if let Some(x) = x {
            black_box(tr.span("core.predictor.predict_one", req, || gdbt.predict_one(&x)));
            black_box(tr.span("ml.gbdt.predict_row", req, || booster.predict_row(&x)));
            let h = tr.span("serve.session.history", req, || {
                session.record_features(x);
                session.feature_history().to_vec()
            });
            if h.len() == input_len && histories.len() < DECODES * BATCH {
                histories.push(h);
            }
        }
        tr.close(root);
    }
    for (i, h) in histories.iter().enumerate().take(DECODES) {
        black_box(tr.span("core.predictor.decode.b1", i as u64, || {
            seq.predict_sequence_batch(&[h.as_slice()])
        }));
    }
    for (i, lanes) in histories.chunks_exact(BATCH).enumerate() {
        let refs: Vec<&[Vec<f64>]> = lanes.iter().map(|h| h.as_slice()).collect();
        black_box(tr.span("core.predictor.decode.b8", i as u64, || {
            seq.predict_sequence_batch(&refs)
        }));
    }
}

/// The `batched_matvec_bias` calls of one decode, in order: rows, cols
/// and count. Each LSTM step is one fused-gate product of `4H × (in + H)`.
pub fn decode_matvecs(p: &Seq2SeqParams, input_dim: usize) -> Vec<(usize, usize, usize)> {
    let h = p.hidden;
    let mut shapes = Vec::new();
    for l in 0..p.layers {
        shapes.push((4 * h, if l == 0 { input_dim } else { h } + h, p.input_len));
    }
    for l in 0..p.layers {
        shapes.push((4 * h, if l == 0 { 1 } else { h } + h, p.horizon));
    }
    shapes
}

/// Computed (not measured) cost of one decode call of `lanes` sequences:
/// multiply-accumulates, and bytes moved if every weight matrix streams
/// from memory once per lane tile of 8 (the kernel's tiling) while each
/// lane reads its input and writes its output once per product.
pub fn decode_cost(p: &Seq2SeqParams, input_dim: usize, lanes: usize) -> (f64, f64) {
    let passes = lanes / 8 + lanes % 8;
    let (mut macs, mut bytes) = (0.0, 0.0);
    for (rows, cols, steps) in decode_matvecs(p, input_dim) {
        let steps = steps as f64;
        macs += steps * (rows * cols * lanes) as f64;
        bytes += steps * 8.0 * ((rows * cols + rows) * passes + (rows + cols) * lanes) as f64;
    }
    // Output head: one H-dot per decoder step and lane.
    macs += (p.horizon * p.hidden * lanes) as f64;
    bytes += (p.horizon * 8 * (p.hidden + 1) * (passes + lanes)) as f64;
    (macs, bytes)
}

/// `batched_matvec_bias` at the decode shapes, `reps` decodes' worth at
/// `lanes` lanes, on fixed pseudo-random weights (the kernel's speed does
/// not depend on their values). Returns GMAC/s over the spans.
pub fn matvec_kernel(
    tr: &mut Tracer,
    p: &Seq2SeqParams,
    input_dim: usize,
    lanes: usize,
    reps: usize,
) -> f64 {
    let name = if lanes == 1 {
        "ml.nn.batched_matvec_bias.b1"
    } else {
        "ml.nn.batched_matvec_bias.b8"
    };
    let mut rng = SplitMix::new(0x6d61_7476);
    let mut fill = |n: usize| -> Vec<f64> { (0..n).map(|_| rng.unit() * 0.2 - 0.1).collect() };
    let mats: Vec<_> = decode_matvecs(p, input_dim)
        .into_iter()
        .map(|(rows, cols, steps)| {
            let xs: Vec<Vec<f64>> = (0..lanes).map(|_| fill(cols)).collect();
            (rows, cols, steps, fill(rows * cols), fill(rows), xs)
        })
        .collect();
    let first = tr.spans().len();
    let mut macs = 0.0;
    for rep in 0..reps {
        for (rows, cols, steps, w, b, xs) in &mats {
            let refs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
            for _ in 0..*steps {
                let id = tr.open(name, rep as u64);
                black_box(batched_matvec_bias(w, *rows, *cols, b, black_box(&refs)));
                tr.close(id);
                macs += (rows * cols * lanes) as f64;
            }
        }
    }
    let ns: u64 = tr.spans()[first..].iter().map(|s| s.dur_ns()).sum();
    macs / ns.max(1) as f64
}

/// Encode, decode and atomically write the served model `reps` times.
/// Returns the encoded size in bytes.
pub fn persist(tr: &mut Tracer, model: &TrainedRegressor, dir: &Path, reps: usize) -> usize {
    let path = dir.join("probe.l5gm");
    let mut size = 0;
    for rep in 0..reps as u64 {
        let bytes = tr
            .span("core.persist.encode", rep, || encode_regressor(model))
            .expect("served families encode");
        size = bytes.len();
        tr.span("core.persist.decode", rep, || decode_regressor(&bytes))
            .expect("a fresh encoding decodes");
        tr.span("core.persist.atomic_write", rep, || {
            atomic_write(&path, &bytes)
        })
        .expect("write the probe file");
    }
    std::fs::remove_file(&path).ok();
    size
}

/// Train Seq2Seq through the `ml` layer the way `Lumos5G::fit_regression`
/// does (same sequences, scalers and network configuration), with a
/// checkpoint callback after every epoch so each epoch gets a span.
/// Returns the model and the number of epochs run.
pub fn seq2seq_epochs(
    tr: &mut Tracer,
    train: &Dataset,
    spec: &FeatureSpec,
    p: &Seq2SeqParams,
) -> (TrainedRegressor, usize) {
    let root = tr.open("ml.seq2seq.train", 0);
    let sd = build_sequences(train, spec, p.input_len, p.horizon, p.stride);
    let flat: Vec<Vec<f64>> = sd.inputs.iter().flatten().cloned().collect();
    let x_scaler = StandardScaler::fit(&flat);
    let all_y: Vec<f64> = sd.targets.iter().flatten().copied().collect();
    let y_scaler = TargetScaler::fit(&all_y);
    let inputs: Vec<Vec<Vec<f64>>> = sd
        .inputs
        .iter()
        .map(|seq| seq.iter().map(|x| x_scaler.transform_row(x)).collect())
        .collect();
    let targets: Vec<Vec<f64>> = sd
        .targets
        .iter()
        .map(|t| t.iter().map(|&y| y_scaler.transform(y)).collect())
        .collect();
    let mut model = Seq2Seq::new(Seq2SeqConfig {
        input_dim: spec.dim(),
        hidden: p.hidden,
        layers: p.layers,
        horizon: p.horizon,
        epochs: p.epochs,
        batch_size: p.batch_size,
        lr: p.lr,
        teacher_forcing: 0.7,
        clip_norm: 5.0,
        seed: p.seed,
    });
    let epoch = tr.epoch();
    let mut ends = vec![tr.now_ns()];
    let losses = model.train_resumable(
        &inputs,
        &targets,
        p.val_fraction,
        p.patience,
        None,
        1,
        |_| ends.push(epoch.elapsed().as_nanos() as u64),
    );
    ends.push(tr.now_ns());
    for (i, w) in ends.windows(2).enumerate() {
        tr.record("ml.seq2seq.epoch", i as u64, w[0], w[1]);
    }
    tr.close(root);
    let trained = TrainedRegressor::Seq2Seq {
        model: Box::new(model),
        x_scaler,
        y_scaler,
        params: *p,
        spec: *spec,
    };
    (trained, losses.len())
}
