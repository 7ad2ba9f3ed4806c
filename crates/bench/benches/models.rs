//! Criterion benchmarks of the ML substrate: training and inference costs
//! of the paper's models (GDBT is the "light-weight" choice — §5.2 — these
//! benches quantify that claim against Seq2Seq and the baselines).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lumos5g_ml::{
    GbdtConfig, GbdtRegressor, KnnRegressor, OrdinaryKriging, RandomForestRegressor, Seq2Seq,
    Seq2SeqConfig,
};
use std::hint::black_box;
use std::time::Duration;

/// Fast Criterion profile: these benches document relative costs, not
/// publication-grade timings; keep `cargo bench --workspace` minutes-scale.
fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300))
}

/// Deterministic synthetic tabular problem: 1 000 rows × 8 features.
fn tabular() -> (Vec<Vec<f64>>, Vec<f64>) {
    let n = 1_000;
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..8)
                .map(|j| ((i * 37 + j * 101) % 257) as f64 / 257.0)
                .collect()
        })
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 800.0 * x[0] + 400.0 * x[1] * x[2] - 300.0 * x[3] + 50.0 * x[7])
        .collect();
    (xs, ys)
}

fn bench_gbdt(c: &mut Criterion) {
    let (xs, ys) = tabular();
    let cfg = GbdtConfig {
        n_estimators: 50,
        max_depth: 5,
        learning_rate: 0.1,
        min_samples_leaf: 5,
        subsample: 0.8,
        seed: 0,
    };
    c.bench_function("gbdt_train_1k_rows_50_trees", |b| {
        b.iter(|| GbdtRegressor::fit(black_box(&xs), black_box(&ys), &cfg))
    });
    let model = GbdtRegressor::fit(&xs, &ys, &cfg);
    c.bench_function("gbdt_predict_row", |b| {
        b.iter(|| model.predict_row(black_box(&xs[13])))
    });
}

fn bench_forest_knn(c: &mut Criterion) {
    let (xs, ys) = tabular();
    let fcfg = lumos5g_ml::forest::ForestConfig {
        n_trees: 30,
        ..Default::default()
    };
    c.bench_function("rf_train_1k_rows_30_trees", |b| {
        b.iter(|| RandomForestRegressor::fit(black_box(&xs), black_box(&ys), &fcfg))
    });
    let knn = KnnRegressor::fit(&xs, &ys, 5);
    c.bench_function("knn_predict_row_1k_train", |b| {
        b.iter(|| knn.predict_row(black_box(&xs[7])))
    });
}

fn bench_kriging(c: &mut Criterion) {
    let pts: Vec<[f64; 2]> = (0..400)
        .map(|i| [(i % 20) as f64 * 5.0, (i / 20) as f64 * 5.0])
        .collect();
    let vals: Vec<f64> = pts
        .iter()
        .map(|p| (p[0] / 17.0).sin() * 500.0 + 700.0)
        .collect();
    c.bench_function("kriging_fit_400_points", |b| {
        b.iter(|| OrdinaryKriging::fit(black_box(&pts), black_box(&vals), 16))
    });
    let ok = OrdinaryKriging::fit(&pts, &vals, 16);
    c.bench_function("kriging_predict_point", |b| {
        b.iter(|| ok.predict(black_box(42.5), black_box(61.5)))
    });
}

fn bench_seq2seq(c: &mut Criterion) {
    let cfg = Seq2SeqConfig {
        input_dim: 6,
        hidden: 32,
        layers: 2,
        horizon: 10,
        epochs: 1,
        batch_size: 16,
        lr: 3e-3,
        teacher_forcing: 0.7,
        clip_norm: 5.0,
        seed: 0,
    };
    let model = Seq2Seq::new(cfg);
    let input: Vec<Vec<f64>> = (0..20)
        .map(|t| (0..6).map(|j| ((t * 7 + j) % 11) as f64 / 11.0).collect())
        .collect();
    c.bench_function("seq2seq_inference_20in_10out_h32", |b| {
        b.iter(|| model.predict_batch(&[black_box(input.as_slice())]))
    });

    let inputs: Vec<Vec<Vec<f64>>> = (0..32).map(|_| input.clone()).collect();
    let targets: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64 / 32.0; 10]).collect();
    c.bench_function("seq2seq_train_epoch_32_samples", |b| {
        b.iter_batched(
            || Seq2Seq::new(cfg),
            |mut m| m.train(black_box(&inputs), black_box(&targets)),
            BatchSize::LargeInput,
        )
    });
}

fn bench_kdtree(c: &mut Criterion) {
    let pts: Vec<Vec<f64>> = (0..10_000)
        .map(|i| vec![((i * 48271) % 9973) as f64, ((i * 16807) % 7919) as f64])
        .collect();
    c.bench_function("kdtree_build_10k_2d", |b| {
        b.iter_batched(
            || pts.clone(),
            lumos5g_ml::kdtree::KdTree::build,
            BatchSize::LargeInput,
        )
    });
    let tree = lumos5g_ml::kdtree::KdTree::build(pts);
    c.bench_function("kdtree_knn16_10k_2d", |b| {
        b.iter(|| tree.knn(black_box(&[4321.0, 1234.0]), 16))
    });
}

fn bench_abr(c: &mut Criterion) {
    use lumos5g::abr::{simulate_session, PlayerConfig, Predictor};
    let trace: Vec<f64> = (0..600)
        .map(|i| if (i / 30) % 2 == 0 { 1_500.0 } else { 120.0 })
        .collect();
    c.bench_function("abr_session_600s_harmonic", |b| {
        b.iter(|| {
            simulate_session(
                black_box(&trace),
                &Predictor::Harmonic { window: 5 },
                &PlayerConfig::default(),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_gbdt,
    bench_forest_knn,
    bench_kriging,
    bench_seq2seq,
    bench_kdtree,
    bench_abr
}
criterion_main!(benches);
