//! Shard worker: owns the sessions of the UEs hashed to it and turns each
//! incoming record into (at most) one prediction.
//!
//! Every model family is served by one dispatch loop. The worker drains up
//! to [`ShardContext::batch`] queued records (at most one per UE), updates
//! their sessions, and answers every lane with a warm history through one
//! `predict_sequence_batch` call. Single-row families (GDBT, KNN, RF) are
//! the one-row-history case: the model reads the newest feature row with
//! the same `predict_row` that `predict_one` uses offline.
//!
//! The worker is fault-isolated at two levels. Around the model call, a
//! fallback chain guarantees a finite answer: if the call panics or exceeds
//! the configured time budget, every lane it served is answered from its
//! session-local harmonic-mean predictor and tagged `degraded`, as is a
//! lane whose own answer comes back empty or non-finite. Around each
//! record's session update, `catch_unwind` quarantines poison records — a
//! panic in session update or feature extraction discards the (possibly
//! torn) session, counts the record as quarantined, and still emits a
//! degraded response instead of taking the worker down. A panic that
//! escapes both layers unwinds out of [`run_shard`], dropping the shard's
//! sessions; the engine's worker thread catches it and re-enters
//! `run_shard` on the same queue (see `engine.rs`).

use crate::fault::{FaultPlan, PredictFault, RecordFault, RecordKey};
use crate::metrics::ShardMetrics;
use crate::registry::ModelRegistry;
use crate::session::{PendingPrediction, Session};
use crossbeam::channel::{Receiver, Sender};
use lumos5g::FeatureSpec;
use lumos5g_sim::Record;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One unit of ingest work.
#[derive(Debug)]
pub struct Ingest {
    /// UE identity (routing key).
    pub ue: u64,
    /// The 1 Hz sample.
    pub record: Record,
    /// When the record entered the engine (for end-to-end latency).
    pub enqueued: Instant,
}

/// One response — every ingested record produces exactly one (unless the
/// `Deadline` policy shed it as stale at dequeue).
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// UE the response belongs to.
    pub ue: u64,
    /// Pass of the triggering record.
    pub pass_id: u32,
    /// Second of the triggering record (the prediction targets `t + 1`).
    pub t: u32,
    /// Shard that served it.
    pub shard: usize,
    /// Model generation that produced it.
    pub model_version: u64,
    /// Predicted next-second throughput, Mbps (`None` while the session
    /// window is still warming up). Always finite when `Some`.
    pub predicted_mbps: Option<f64>,
    /// Measured throughput of the triggering record (echoed for
    /// closed-loop consumers).
    pub measured_mbps: f64,
    /// Enqueue-to-emit latency, ns.
    pub latency_ns: u64,
    /// Full k-step-ahead horizon when a sequence model (Seq2Seq) served
    /// this response; `horizon_mbps[0]` equals `predicted_mbps`. `None` for
    /// single-row families, warm-ups and degraded responses. Every entry is
    /// finite when `Some`.
    pub horizon_mbps: Option<Vec<f64>>,
    /// True when this response was served on a degraded path: the model
    /// call failed (panic / non-finite / over budget) and the harmonic
    /// fallback answered, or the record was quarantined.
    pub degraded: bool,
}

/// Per-worker serving context: everything a shard needs besides its
/// model registry, channels and metrics. [`run_shard`] borrows it, so a
/// worker that restarts in place re-enters with the same configuration.
#[derive(Debug, Clone)]
pub struct ShardContext {
    /// Feature spec the served models were trained with.
    pub spec: FeatureSpec,
    /// Dequeue-side staleness budget (from [`crate::OverloadPolicy::Deadline`]).
    pub stale_after: Option<Duration>,
    /// Per-call model time budget; a slower model call falls back to the
    /// harmonic predictor. `None` disables the clock entirely (no
    /// `Instant::now` on the hot path).
    pub predict_budget: Option<Duration>,
    /// Deterministic fault injection (chaos testing); `None` in production.
    pub faults: Option<Arc<FaultPlan>>,
    /// Feature rows each session keeps: the encoder input length of the
    /// model the engine started with (`Seq2SeqParams::input_len`), 1 for
    /// single-row families.
    pub input_len: usize,
    /// Maximum records answered per model call
    /// ([`crate::EngineConfig::decode_batch`]).
    pub batch: usize,
}

impl ShardContext {
    /// A plain production context: no deadline, no budget, no faults,
    /// one-row histories and one record per model call.
    pub fn new(spec: FeatureSpec) -> Self {
        ShardContext {
            spec,
            stale_after: None,
            predict_budget: None,
            faults: None,
            input_len: 1,
            batch: 1,
        }
    }
}

/// What phase 1 (session update + feature extraction) decided for one
/// dequeued record, before the shared model call.
enum LaneState {
    /// Panic during session update/extraction: answered degraded-with-None.
    Quarantined,
    /// The session's feature history is shorter than the served model
    /// reads.
    Warmup,
    /// An injected predict fault diverts this lane straight to the
    /// harmonic fallback, never into the shared model call.
    Fallback,
    /// The session's history is long enough to answer from.
    Ready,
}

/// One dequeued record flowing through a dispatch.
struct Lane {
    ue: u64,
    pass_id: u32,
    t: u32,
    measured: f64,
    enqueued: Instant,
    state: LaneState,
}

/// Run one shard worker until its ingest channel disconnects.
///
/// Each dispatch blocks for one record, then drains whatever is already
/// queued up to `ctx.batch` records. The drain takes at most one record per
/// UE: a UE's prediction must settle against its next record before that
/// record is served, so a same-UE follow-up is carried into the next
/// dispatch. It also ends right after a record armed with an injected
/// worker kill, so the kill lands after the same records for any batch
/// composition.
///
/// One `registry.current()` fetch per dispatch picks the model and so the
/// number of feature rows a lane needs. Phase 1, per record in dequeue
/// order: shed it if stale, push it into the UE's session, and extract its
/// features via [`FeatureSpec::extract_latest`] into the session's feature
/// history (reset with the record window on any discontinuity, so a warm
/// history is exactly one of the sliding windows offline evaluation
/// builds). Phase 2: one `predict_sequence_batch` call over the newest rows
/// of every ready lane, borrowed from the sessions. Responses are emitted
/// in dequeue order. The model call is the offline code path and the
/// batched kernels are bit-exact per lane, which makes fault-free serving
/// bit-identical to offline evaluation for any shard count and `batch`,
/// including 1.
///
/// A panic that escapes the per-record and model-call isolation (or an
/// injected worker kill) unwinds out of this function and drops the
/// sessions, carry and batch with it; the caller may simply call it again
/// on the same channels, which is how the engine restarts a worker in
/// place.
pub fn run_shard(
    shard: usize,
    ctx: &ShardContext,
    registry: &ModelRegistry,
    rx: &Receiver<Ingest>,
    out: &Sender<Prediction>,
    metrics: &ShardMetrics,
) {
    let required = ctx.spec.required_window();
    let input_len = ctx.input_len.max(1);
    let batch_cap = ctx.batch.max(1);
    let fault_of = |msg: &Ingest| match &ctx.faults {
        Some(plan) => plan.fault_for(RecordKey::of(msg.ue, &msg.record)),
        None => RecordFault::NONE,
    };
    let mut sessions: HashMap<u64, Session> = HashMap::new();
    let mut carry: Option<Ingest> = None;
    let mut batch: Vec<(Ingest, RecordFault)> = Vec::with_capacity(batch_cap);
    let mut lanes: Vec<Lane> = Vec::with_capacity(batch_cap);
    loop {
        let first = match carry.take() {
            Some(msg) => msg,
            None => match rx.recv() {
                Ok(msg) => msg,
                Err(_) => return, // ingest disconnected and drained
            },
        };
        let mut kill = None;
        let mut next = Some(first);
        while let Some(msg) = next.take() {
            let fault = fault_of(&msg);
            if fault.kill_worker {
                kill = Some(RecordKey::of(msg.ue, &msg.record));
            }
            batch.push((msg, fault));
            if kill.is_some() || batch.len() == batch_cap {
                break;
            }
            match rx.try_recv() {
                Ok(msg) if batch.iter().any(|(b, _)| b.ue == msg.ue) => carry = Some(msg),
                Ok(msg) => next = Some(msg),
                // Empty: serve what we have. Disconnected: the next recv
                // exits after this final batch is answered.
                Err(_) => {}
            }
        }

        // The model is fetched once per dispatch; it decides how many
        // feature rows a lane needs. A hot-swapped model that reads more
        // rows than the sessions keep answers every record as a warm-up.
        let model = registry.current();
        let need = model
            .regressor
            .seq2seq_params()
            .map_or(1, |p| p.input_len.max(1));

        // Phase 1, in dequeue order: session update, feature extraction,
        // per-record panic isolation — everything except the model call.
        for (msg, fault) in batch.drain(..) {
            let Ingest {
                ue,
                record,
                enqueued,
            } = msg;
            if let Some(max_age) = ctx.stale_after {
                if enqueued.elapsed() > max_age {
                    metrics.shed_stale.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
            let (pass_id, t, measured) = (record.pass_id, record.t, record.throughput_mbps);
            metrics.processed.fetch_add(1, Ordering::Relaxed);
            let state = panic::catch_unwind(AssertUnwindSafe(|| {
                if fault.poison {
                    panic!("chaos: injected poison record (ue {ue} pass {pass_id} t {t})");
                }
                let session = sessions
                    .entry(ue)
                    .or_insert_with(|| Session::for_sequences(required, input_len));
                let resets_before = session.resets;
                if let Some(err) = session.push(record) {
                    metrics.record_error(err);
                }
                metrics
                    .resets
                    .fetch_add(session.resets - resets_before, Ordering::Relaxed);
                if let Some(x) = ctx.spec.extract_latest(session.window()) {
                    session.record_features(x);
                }
                if session.feature_len() < need {
                    LaneState::Warmup
                } else if fault.predict != PredictFault::None {
                    LaneState::Fallback
                } else {
                    LaneState::Ready
                }
            }));
            let state = state.unwrap_or_else(|_| {
                sessions.remove(&ue);
                metrics.quarantined.fetch_add(1, Ordering::Relaxed);
                LaneState::Quarantined
            });
            lanes.push(Lane {
                ue,
                pass_id,
                t,
                measured,
                enqueued,
                state,
            });
        }

        // Phase 2: at most one model call for the whole dispatch. Each UE
        // appears once per dispatch, so its session's history is its lane's.
        let histories: Vec<&[Vec<f64>]> = lanes
            .iter()
            .filter(|l| matches!(l.state, LaneState::Ready))
            .map(|l| {
                let history = sessions[&l.ue].feature_history();
                &history[history.len() - need..]
            })
            .collect();
        let mut answers = None;
        let mut formless = false;
        if !histories.is_empty() {
            let started = ctx.predict_budget.map(|_| Instant::now());
            let raw = panic::catch_unwind(AssertUnwindSafe(|| {
                model.regressor.predict_sequence_batch(&histories)
            }));
            let over_budget = match (ctx.predict_budget, started) {
                (Some(budget), Some(started)) => started.elapsed() > budget,
                _ => false,
            };
            match raw {
                // Over budget: leave `answers` empty so every ready lane
                // falls back (the call was shared, so is the verdict).
                Ok(Some(decoded)) if !over_budget => answers = Some(decoded.into_iter()),
                // A hot-swapped model with no sequence form (Kriging,
                // harmonic mean): answer like a warm-up.
                Ok(None) => formless = true,
                _ => {} // panicked or over budget: every ready lane falls back
            }
        }

        // Emit in dequeue order.
        let sequence_model = model.regressor.seq2seq_params().is_some();
        for lane in lanes.drain(..) {
            // (prediction, horizon, degraded, fallback)
            let (predicted, horizon, degraded, fallback) = match lane.state {
                LaneState::Quarantined => (None, None, true, false),
                LaneState::Warmup => (None, None, false, false),
                LaneState::Fallback => (harmonic(&sessions, lane.ue), None, true, true),
                LaneState::Ready => match answers.as_mut().and_then(Iterator::next) {
                    Some(h) if !h.is_empty() && h.iter().all(|v| v.is_finite()) => {
                        (Some(h[0]), sequence_model.then_some(h), false, false)
                    }
                    None if formless => (None, None, false, false),
                    // Failed/over-budget model call, or an empty or
                    // non-finite answer for this lane.
                    _ => (harmonic(&sessions, lane.ue), None, true, true),
                },
            };
            if let Some(y) = predicted {
                if let Some(session) = sessions.get_mut(&lane.ue) {
                    session.pending = Some(PendingPrediction {
                        pass_id: lane.pass_id,
                        t: lane.t,
                        predicted_mbps: y,
                    });
                }
                metrics.predictions.fetch_add(1, Ordering::Relaxed);
            } else if !degraded {
                metrics.warmups.fetch_add(1, Ordering::Relaxed);
            }
            if fallback {
                metrics.fallbacks.fetch_add(1, Ordering::Relaxed);
            }
            let latency_ns = lane.enqueued.elapsed().as_nanos() as u64;
            metrics.latency.record(latency_ns);
            // A send error means the consumer went away: keep draining so
            // producers never block on a dead shard, but stop emitting.
            let _ = out.send(Prediction {
                ue: lane.ue,
                pass_id: lane.pass_id,
                t: lane.t,
                shard,
                model_version: model.version,
                predicted_mbps: predicted,
                measured_mbps: lane.measured,
                latency_ns,
                horizon_mbps: horizon,
                degraded,
            });
        }
        if let Some(RecordKey { ue, pass_id, t }) = kill {
            // Injected *after* the batch is answered, so the in-place
            // restart is exercised without violating
            // one-response-per-accepted-record.
            // The drain stopped at the armed record, so nothing dequeued is
            // left unanswered.
            panic!("chaos: injected worker kill on shard {shard} (ue {ue} pass {pass_id} t {t})");
        }
    }
}

/// The session-local harmonic fallback for `ue`.
fn harmonic(sessions: &HashMap<u64, Session>, ue: u64) -> Option<f64> {
    sessions.get(&ue).and_then(Session::harmonic_estimate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel;
    use lumos5g::{FeatureSet, TrainedRegressor};
    use lumos5g_sim::{Activity, Record};

    fn rec(ue_pass: u32, t: u32, thpt: f64) -> Record {
        Record {
            area: 1,
            pass_id: ue_pass,
            trajectory: 0,
            t,
            lat: 44.88,
            lon: -93.20,
            gps_accuracy_m: 2.0,
            activity: Activity::Walking,
            moving_speed_mps: 1.4,
            compass_deg: 90.0,
            throughput_mbps: thpt,
            on_5g: true,
            cell_id: 2,
            lte_rsrp_dbm: -95.0,
            nr_ssrsrp_dbm: -80.0,
            horizontal_handoff: false,
            vertical_handoff: false,
            panel_distance_m: 50.0,
            theta_p_deg: 30.0,
            theta_m_deg: 180.0,
            pixel_x: 1000,
            pixel_y: 2000,
            snapped_x_m: 1.0,
            snapped_y_m: 2.0,
            true_x_m: 1.0,
            true_y_m: 2.0,
            true_speed_mps: 1.4,
        }
    }

    fn harmonic_registry() -> Arc<ModelRegistry> {
        Arc::new(ModelRegistry::new(TrainedRegressor::Harmonic { window: 5 }))
    }

    /// Harmonic has no sequence form → the model call answers None → the
    /// shard must still answer every record (as a warm-up/None response).
    #[test]
    fn every_record_gets_exactly_one_response() {
        let ctx = ShardContext::new(FeatureSpec::new(FeatureSet::LM));
        let metrics = Arc::new(ShardMetrics::new());
        let (tx, rx) = channel::bounded(16);
        let (out_tx, out_rx) = channel::unbounded();
        let m = metrics.clone();
        let registry = harmonic_registry();
        let worker = std::thread::spawn(move || run_shard(0, &ctx, &registry, &rx, &out_tx, &m));
        for t in 0..10 {
            tx.send(Ingest {
                ue: 7,
                record: rec(1, t, 100.0),
                enqueued: Instant::now(),
            })
            .unwrap();
        }
        drop(tx);
        worker.join().unwrap();
        let responses: Vec<Prediction> = out_rx.iter().collect();
        assert_eq!(responses.len(), 10);
        assert!(responses.iter().all(|p| p.predicted_mbps.is_none()));
        assert!(responses.iter().all(|p| !p.degraded));
        assert!(responses.iter().all(|p| p.model_version == 1));
        assert_eq!(metrics.warmups.load(Ordering::Relaxed), 10);
        assert_eq!(metrics.latency.count(), 10);
        // Responses for one UE arrive in ingest order.
        let ts: Vec<u32> = responses.iter().map(|p| p.t).collect();
        assert_eq!(ts, (0..10).collect::<Vec<_>>());
    }

    /// Multi-row histories with a model that has no sequence form: ready
    /// lanes answer like warm-ups, and the batched drain still produces
    /// exactly one in-order response per record and UE.
    #[test]
    fn sequence_mode_answers_every_record_for_formless_models() {
        let mut ctx = ShardContext::new(FeatureSpec::new(FeatureSet::LM));
        ctx.input_len = 3;
        ctx.batch = 4;
        let metrics = Arc::new(ShardMetrics::new());
        let (tx, rx) = channel::bounded(64);
        let (out_tx, out_rx) = channel::unbounded();
        let m = metrics.clone();
        let registry = harmonic_registry();
        let worker = std::thread::spawn(move || run_shard(0, &ctx, &registry, &rx, &out_tx, &m));
        // Two interleaved UEs so batches mix lanes and exercise the
        // one-record-per-UE carry rule.
        for t in 0..10 {
            for ue in [3u64, 8u64] {
                tx.send(Ingest {
                    ue,
                    record: rec(ue as u32, t, 100.0),
                    enqueued: Instant::now(),
                })
                .unwrap();
            }
        }
        drop(tx);
        worker.join().unwrap();
        let responses: Vec<Prediction> = out_rx.iter().collect();
        assert_eq!(responses.len(), 20);
        assert!(responses.iter().all(|p| p.predicted_mbps.is_none()));
        assert!(responses.iter().all(|p| p.horizon_mbps.is_none()));
        assert!(responses.iter().all(|p| !p.degraded));
        assert_eq!(metrics.warmups.load(Ordering::Relaxed), 20);
        assert_eq!(metrics.processed.load(Ordering::Relaxed), 20);
        for ue in [3u64, 8u64] {
            let ts: Vec<u32> = responses
                .iter()
                .filter(|p| p.ue == ue)
                .map(|p| p.t)
                .collect();
            assert_eq!(ts, (0..10).collect::<Vec<_>>(), "ue {ue} out of order");
        }
    }

    /// Dropping the output receiver mid-run must flip the worker into
    /// drain-without-emit: it keeps consuming (so producers never block on
    /// a dead consumer) and exits cleanly when ingest disconnects.
    #[test]
    fn dropped_output_receiver_drains_without_emitting() {
        let ctx = ShardContext::new(FeatureSpec::new(FeatureSet::LM));
        let metrics = Arc::new(ShardMetrics::new());
        let (tx, rx) = channel::bounded(64);
        let (out_tx, out_rx) = channel::unbounded();
        let m = metrics.clone();
        let registry = harmonic_registry();
        let worker = std::thread::spawn(move || run_shard(0, &ctx, &registry, &rx, &out_tx, &m));
        for t in 0..5 {
            tx.send(Ingest {
                ue: 1,
                record: rec(1, t, 100.0),
                enqueued: Instant::now(),
            })
            .unwrap();
        }
        // Wait for the first responses, then kill the consumer mid-run.
        for _ in 0..5 {
            out_rx.recv().unwrap();
        }
        drop(out_rx);
        for t in 5..40 {
            tx.send(Ingest {
                ue: 1,
                record: rec(1, t, 100.0),
                enqueued: Instant::now(),
            })
            .unwrap();
        }
        drop(tx);
        worker.join().expect("worker must survive a dead consumer");
        assert_eq!(metrics.processed.load(Ordering::Relaxed), 40);
        assert_eq!(metrics.latency.count(), 40);
    }

    /// Records older than the Deadline staleness budget are shed at
    /// dequeue: counted, never answered.
    #[test]
    fn deadline_sheds_stale_records_at_dequeue() {
        let mut ctx = ShardContext::new(FeatureSpec::new(FeatureSet::LM));
        ctx.stale_after = Some(Duration::from_secs(60));
        let metrics = Arc::new(ShardMetrics::new());
        let (tx, rx) = channel::bounded(16);
        let (out_tx, out_rx) = channel::unbounded();
        let m = metrics.clone();
        let registry = harmonic_registry();
        let worker = std::thread::spawn(move || run_shard(0, &ctx, &registry, &rx, &out_tx, &m));
        let ancient = Instant::now() - Duration::from_secs(3600);
        for t in 0..4 {
            tx.send(Ingest {
                ue: 1,
                record: rec(1, t, 100.0),
                enqueued: ancient,
            })
            .unwrap();
        }
        for t in 4..7 {
            tx.send(Ingest {
                ue: 1,
                record: rec(1, t, 100.0),
                enqueued: Instant::now(),
            })
            .unwrap();
        }
        drop(tx);
        worker.join().unwrap();
        let responses: Vec<Prediction> = out_rx.iter().collect();
        assert_eq!(responses.len(), 3, "only fresh records are answered");
        assert_eq!(metrics.shed_stale.load(Ordering::Relaxed), 4);
        assert_eq!(metrics.processed.load(Ordering::Relaxed), 3);
        // The stale records never touched the session: t=4..7 starts cold.
        assert_eq!(responses[0].t, 4);
    }

    /// A poison record (injected session/extract panic) is quarantined:
    /// counted, answered degraded-with-None, session rebuilt cold — and the
    /// worker keeps serving.
    #[test]
    fn poison_record_is_quarantined_not_fatal() {
        let mut ctx = ShardContext::new(FeatureSpec::new(FeatureSet::LM));
        let mut plan = FaultPlan::new(5);
        plan.poison_bp = 10_000; // every record is poison
        ctx.faults = Some(Arc::new(plan));
        let metrics = Arc::new(ShardMetrics::new());
        let (tx, rx) = channel::bounded(16);
        let (out_tx, out_rx) = channel::unbounded();
        let m = metrics.clone();
        let registry = harmonic_registry();
        let worker = std::thread::spawn(move || run_shard(0, &ctx, &registry, &rx, &out_tx, &m));
        for t in 0..6 {
            tx.send(Ingest {
                ue: 9,
                record: rec(1, t, 100.0),
                enqueued: Instant::now(),
            })
            .unwrap();
        }
        drop(tx);
        worker
            .join()
            .expect("poison records must not kill the worker");
        let responses: Vec<Prediction> = out_rx.iter().collect();
        assert_eq!(responses.len(), 6, "quarantined records still answer");
        assert!(responses.iter().all(|p| p.degraded));
        assert!(responses.iter().all(|p| p.predicted_mbps.is_none()));
        assert_eq!(metrics.quarantined.load(Ordering::Relaxed), 6);
        assert_eq!(metrics.processed.load(Ordering::Relaxed), 6);
    }
}
