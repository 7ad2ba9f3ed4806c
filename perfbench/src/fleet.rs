//! Live-fleet arrival generator, the one-thread load loops and the output
//! audit.
//!
//! Every UE of a fleet replays its own rotation of the held-out campaign
//! passes (a seeded start offset into the concatenated stream), and its
//! 1 Hz samples are phased uniformly across the tick. The tick is
//! compressed so that the whole fleet offers the requested rate: with `n`
//! UEs at `r` records/s each UE sends one record every `n / r` seconds.
//! Unlike `ReplaySource::from_dataset`, which deals whole passes
//! round-robin, every UE is live from the first tick, so every shard is
//! loaded.
//!
//! Each phase uses a fresh fleet (its own UE-id range), so a phase's
//! predictions depend only on its own records, never on where the previous
//! phase stopped.

use crate::stats::{mix, SplitMix};
use crate::trace::Tracer;
use lumos5g::TrainedRegressor;
use lumos5g_serve::{Engine, Prediction, SubmitOutcome};
use lumos5g_sim::Record;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A response later than this after its record was due does not count
/// towards `ok_frac`: 5 % of the 1 Hz sampling interval.
pub const LATENCY_LIMIT_NS: u64 = 50_000_000;

/// With records outstanding and none answered for this long, the engine is
/// taken to have lost them.
const STALL: Duration = Duration::from_secs(10);

/// Open-loop phases are cut into windows of equal record count, at least
/// this many records each (so a window's p99 has 10 samples beyond it) and
/// at most [`MAX_WINDOWS`] windows. Latency quantiles are medians over
/// windows, so one scheduling hiccup moves one window, not the phase.
const WINDOW_RECORDS: usize = 1000;
const MAX_WINDOWS: usize = 32;

/// Longest open-loop generator sleep while the next record is not due.
const MAX_NAP: Duration = Duration::from_millis(1);

/// The held-out passes, concatenated in `(pass, t)` order.
pub struct Stream {
    pub recs: Vec<Record>,
    /// Index of the first record of the contiguous run (same pass,
    /// consecutive seconds) holding each record.
    run_start: Vec<usize>,
}

impl Stream {
    pub fn new(mut recs: Vec<Record>) -> Self {
        recs.sort_by_key(|r| (r.pass_id, r.t));
        let mut run_start: Vec<usize> = Vec::with_capacity(recs.len());
        for j in 0..recs.len() {
            let continues = j > 0
                && recs[j - 1].pass_id == recs[j].pass_id
                && recs[j - 1].t.checked_add(1) == Some(recs[j].t);
            run_start.push(if continues { run_start[j - 1] } else { j });
        }
        Stream { recs, run_start }
    }

    /// True when record `b` directly follows record `a` in one run.
    fn continues(&self, a: usize, b: usize) -> bool {
        b == a + 1 && self.run_start[a] == self.run_start[b]
    }
}

/// Span request id of UE `u`'s `k`-th record in the fleet tagged `tag`.
pub fn request_id(tag: u64, u: usize, k: usize) -> u64 {
    (tag << 56) | ((k as u64) << 20) | u as u64
}

/// A fleet of synthetic UEs for one phase.
pub struct Fleet {
    pub tag: u64,
    offset: Vec<usize>,
    phase: Vec<f64>,
    len: usize,
}

impl Fleet {
    pub fn new(tag: u64, ues: usize, stream: &Stream, seed: u64) -> Self {
        let mut rng = SplitMix::new(mix(seed) ^ mix(tag.wrapping_add(1)));
        let len = stream.recs.len();
        let offset = (0..ues).map(|_| rng.below(len)).collect();
        let phase = (0..ues)
            .map(|u| (u as f64 + rng.unit()) / ues as f64)
            .collect();
        Fleet {
            tag,
            offset,
            phase,
            len,
        }
    }

    pub fn ues(&self) -> usize {
        self.offset.len()
    }

    pub fn id(&self, u: usize) -> u64 {
        (self.tag << 32) | u as u64
    }

    /// Stream index of UE `u`'s `k`-th record.
    pub fn pos(&self, u: usize, k: usize) -> usize {
        (self.offset[u] + k) % self.len
    }

    /// Length of the contiguous run UE `u` has sent up to its `k`-th
    /// record: its session started at `k = 0`, and the stream breaks at
    /// every new pass or missing second.
    fn run_len(&self, stream: &Stream, u: usize, k: usize) -> usize {
        let j = self.pos(u, k);
        (k + 1).min(j - stream.run_start[j] + 1)
    }

    /// The record window a session holds when UE `u` sends its `k`-th
    /// record, derived from the schedule alone.
    pub fn window<'s>(&self, stream: &'s Stream, u: usize, k: usize, req: usize) -> &'s [Record] {
        let j = self.pos(u, k);
        let w = self.run_len(stream, u, k).min(req);
        &stream.recs[j + 1 - w..=j]
    }

    /// The encoder history a Seq2Seq session holds at UE `u`'s `k`-th
    /// record: the features of its last `input_len` records, or `None`
    /// while the run is too short (a warm-up).
    pub fn history(
        &self,
        stream: &Stream,
        spec: &lumos5g::FeatureSpec,
        u: usize,
        k: usize,
        input_len: usize,
    ) -> Option<Vec<Vec<f64>>> {
        let req = spec.required_window();
        if self.run_len(stream, u, k) + 1 < req + input_len {
            return None;
        }
        let j = self.pos(u, k);
        (0..input_len)
            .rev()
            .map(|back| {
                let i = j - back;
                spec.extract_latest(&stream.recs[i + 1 - req..=i])
            })
            .collect()
    }
}

/// Output-audit violations across a run. Any violation makes the run
/// incorrect and counts as a failed operation.
#[derive(Default)]
pub struct Audit {
    pub violations: u64,
    pub notes: Vec<String>,
}

impl Audit {
    pub fn fail(&mut self, msg: String) {
        self.violations += 1;
        if self.notes.len() < 16 {
            eprintln!("audit: {msg}");
            self.notes.push(msg);
        }
    }
}

/// A served response kept for the offline bit-identity check.
pub struct Sample {
    pub u: usize,
    pub k: usize,
    pub version: u64,
    pub predicted: Option<f64>,
    pub horizon: Option<Vec<f64>>,
}

/// What one phase offered and how it was answered.
pub struct PhaseStats {
    pub offered: u64,
    pub answered: u64,
    /// Answered, not degraded, and (open loop) within the latency limit.
    pub ok: u64,
    /// UEs that sent at least one record.
    pub live_ues: usize,
    /// Closed loop: responses received before the window closed.
    pub in_window: u64,
    pub window_s: f64,
    /// Closed loop: responses per 100 ms bin.
    pub bins: Vec<u64>,
    /// Open loop: due-to-emitted latency of answers with a prediction, ns,
    /// by the window (see [`WINDOW_RECORDS`]) the record was due in.
    pub lat_ns: Vec<Vec<u64>>,
    /// Host steal reading at the start of every bin or window, and at the
    /// end of the phase.
    steal_marks: Vec<u64>,
    /// Traced runs: how late the generator offered each record, ns.
    pub late_ns: Vec<u64>,
    /// Traced runs: `Prediction::latency_ns`, enqueue to emit.
    pub service_ns: Vec<u64>,
    /// Largest shard queue depth seen by `Engine::snapshot` (traced only).
    pub max_queue: usize,
    err_sum: Vec<f64>,
    err_n: Vec<u64>,
    pub samples: Vec<Sample>,
}

/// Served next-second error over `phases`, summed per UE, then over UEs in
/// id order, then over phases in the order given, so the value repeats
/// exactly for a fixed seed.
pub fn online_mae(phases: &[&PhaseStats]) -> Option<f64> {
    let n: u64 = phases.iter().flat_map(|p| &p.err_n).sum();
    let sum: f64 = phases.iter().map(|p| p.err_sum.iter().sum::<f64>()).sum();
    (n > 0).then(|| sum / n as f64)
}

impl PhaseStats {

    /// Host CPU time stolen during each bin or window, in ticks.
    pub fn steal(&self) -> Vec<u64> {
        self.steal_marks.windows(2).map(|m| m[1] - m[0]).collect()
    }

    /// Indices in `from..to` (clamped) of the slots in which the host
    /// stole no more CPU time than in the median slot. On a shared machine
    /// a burst of host steal stalls every thread at once; the quieter
    /// slots measure the program rather than its neighbours.
    fn quiet(&self, from: usize, to: usize) -> Vec<usize> {
        let steal = self.steal();
        let idx: Vec<usize> = (from..to.min(steal.len())).collect();
        let mut sorted: Vec<u64> = idx.iter().map(|&i| steal[i]).collect();
        sorted.sort_unstable();
        let Some(&cut) = sorted.get(sorted.len().saturating_sub(1) / 2) else {
            return idx;
        };
        idx.into_iter().filter(|&i| steal[i] <= cut).collect()
    }

    /// Latency quantile `q`, µs: the median over the quieter windows of
    /// each window's quantile.
    pub fn lat_us(&self, q: f64) -> f64 {
        let per_window: Vec<f64> = self
            .quiet(0, self.lat_ns.len())
            .into_iter()
            .filter(|&w| self.lat_ns[w].len() >= WINDOW_RECORDS / 10)
            .map(|w| crate::stats::quantile(&mut self.lat_ns[w].clone(), q) as f64 / 1e3)
            .collect();
        crate::stats::median(&per_window)
    }

    /// Latency samples: answers with a prediction.
    pub fn latency_samples(&self) -> usize {
        self.lat_ns.iter().map(Vec::len).sum()
    }

    /// Closed loop: answered records per second, the median over the
    /// quieter full 100 ms bins after the first tenth (the ramp-up, when
    /// every session is new).
    pub fn rate(&self) -> f64 {
        let full = ((self.window_s * 10.0) as usize).min(self.bins.len());
        let rates: Vec<f64> = self
            .quiet(full.div_ceil(10), full)
            .into_iter()
            .map(|b| self.bins[b] as f64 * 10.0)
            .collect();
        crate::stats::median(&rates)
    }

    /// Share of the phase's CPU time the host stole.
    pub fn steal_frac(&self, cpus: usize) -> f64 {
        let ticks = self.steal_marks.last().unwrap_or(&0) - self.steal_marks.first().unwrap_or(&0);
        ticks as f64 / (self.window_s * 100.0 * cpus as f64).max(1e-9)
    }

    pub fn ok_frac(&self) -> f64 {
        self.ok as f64 / self.offered.max(1) as f64
    }
}

/// The engine under load and what the load is drawn from.
pub struct Load<'a> {
    pub engine: &'a Engine,
    pub stream: &'a Stream,
    pub seed: u64,
    /// One response in `sample_div` is kept for the bit-identity check.
    pub sample_div: u64,
}

/// One phase in flight: the per-UE FIFOs that match responses to due
/// times (UE affinity keeps each UE's responses in order).
struct Phase<'a, 'b> {
    load: &'b Load<'a>,
    fleet: &'b Fleet,
    tr: &'b mut Tracer,
    audit: &'b mut Audit,
    t0: Instant,
    next_k: Vec<usize>,
    /// Per UE: record index, due time and offer time, ns into the phase.
    fifo: Vec<VecDeque<(usize, u64, u64)>>,
    outstanding: usize,
    /// Ticks in an open-loop schedule (0 for a closed loop).
    ticks: usize,
    windows: usize,
    last: Vec<Option<(usize, f64)>>,
    stats: PhaseStats,
}

impl<'a, 'b> Phase<'a, 'b> {
    fn new(load: &'b Load<'a>, fleet: &'b Fleet, tr: &'b mut Tracer, audit: &'b mut Audit) -> Self {
        let ues = fleet.ues();
        Phase {
            load,
            fleet,
            tr,
            audit,
            t0: Instant::now(),
            next_k: vec![0; ues],
            fifo: vec![VecDeque::new(); ues],
            outstanding: 0,
            ticks: 0,
            windows: 1,
            last: vec![None; ues],
            stats: PhaseStats {
                offered: 0,
                answered: 0,
                ok: 0,
                live_ues: 0,
                in_window: 0,
                window_s: 0.0,
                bins: Vec::new(),
                lat_ns: Vec::new(),
                steal_marks: vec![steal_ticks()],
                late_ns: Vec::new(),
                service_ns: Vec::new(),
                max_queue: 0,
                err_sum: vec![0.0; ues],
                err_n: vec![0; ues],
                samples: Vec::new(),
            },
        }
    }

    fn ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Window of a UE's `k`-th record: open-loop schedules run tick by
    /// tick, so the record's tick orders it.
    fn window_of(&self, k: usize) -> usize {
        if self.ticks == 0 {
            return 0;
        }
        (k * self.windows / self.ticks).min(self.windows - 1)
    }

    /// Offer UE `u`'s next record, due at `due` ns into the phase.
    fn offer(&mut self, u: usize, due: u64) {
        let k = self.next_k[u];
        self.next_k[u] += 1;
        let record = self.load.stream.recs[self.fleet.pos(u, k)].clone();
        let ue = self.fleet.id(u);
        let start = self.ns();
        if self.tr.enabled() {
            self.stats.late_ns.push(start.saturating_sub(due));
        }
        let span = self
            .tr
            .open("serve.engine.offer", request_id(self.fleet.tag, u, k));
        let outcome = self.load.engine.offer(ue, record);
        self.tr.close(span);
        self.stats.offered += 1;
        match outcome {
            SubmitOutcome::Accepted => {
                self.fifo[u].push_back((k, due, start));
                self.outstanding += 1;
            }
            other => self
                .audit
                .fail(format!("ue {ue} record {k} not accepted: {other:?}")),
        }
    }

    /// Poll for a response; only polls that return one get a span.
    fn try_recv(&mut self) -> Option<Prediction> {
        if !self.tr.enabled() {
            return self.load.engine.responses().try_recv().ok();
        }
        let start = self.tr.now_ns();
        let p = self.load.engine.responses().try_recv().ok();
        if p.is_some() {
            let end = self.tr.now_ns();
            self.tr.record("serve.engine.recv", 0, start, end);
        }
        p
    }

    fn recv_timeout(&mut self, wait: Duration) -> Option<Prediction> {
        let span = self.tr.open("serve.engine.recv", 0);
        let p = self.load.engine.responses().recv_timeout(wait).ok();
        self.tr.close(span);
        p
    }

    /// Match one response to its record and audit it. Returns the UE.
    fn on_response(&mut self, p: Prediction) -> Option<usize> {
        let u = (p.ue & 0xffff_ffff) as usize;
        if p.ue >> 32 != self.fleet.tag || u >= self.fleet.ues() {
            self.audit.fail(format!("response for unknown ue {}", p.ue));
            return None;
        }
        let Some((k, due, offered)) = self.fifo[u].pop_front() else {
            self.audit
                .fail(format!("ue {} answered with nothing outstanding", p.ue));
            return None;
        };
        self.outstanding -= 1;
        let w = self.window_of(k);
        let s = &mut self.stats;
        let stream = self.load.stream;
        let j = self.fleet.pos(u, k);
        let rec = &stream.recs[j];
        if (p.pass_id, p.t) != (rec.pass_id, rec.t) {
            self.audit.fail(format!(
                "ue {} record {k}: answered pass {} t {}, expected pass {} t {}",
                p.ue, p.pass_id, p.t, rec.pass_id, rec.t
            ));
        }
        s.answered += 1;
        if p.shard >= self.load.engine.shard_count() {
            self.audit.fail(format!("response from shard {}", p.shard));
        }
        if p.predicted_mbps.is_some_and(|y| !y.is_finite()) {
            self.audit
                .fail(format!("ue {} record {k}: non-finite prediction", p.ue));
        }
        if let Some(h) = &p.horizon_mbps {
            if h.iter().any(|v| !v.is_finite()) {
                self.audit
                    .fail(format!("ue {} record {k}: non-finite horizon", p.ue));
            }
            if h.first().copied() != p.predicted_mbps {
                self.audit
                    .fail(format!("ue {} record {k}: horizon[0] != prediction", p.ue));
            }
        }
        if p.degraded {
            self.audit.fail(format!(
                "ue {} record {k}: degraded answer in a fault-free run",
                p.ue
            ));
        }
        // The response left the engine `latency_ns` after it was enqueued
        // (at the offer), whenever this thread got round to draining it.
        let lat = (offered + p.latency_ns).saturating_sub(due);
        // Latency quantiles cover answers the model produced. A warm-up
        // answer (a Seq2Seq session shorter than its encoder input, as
        // every session is for its first records) skips the model; such
        // answers bunch at the start of a phase and would swing the
        // per-window medians.
        if p.predicted_mbps.is_some() {
            if s.lat_ns.len() <= w {
                s.lat_ns.resize(w + 1, Vec::new());
            }
            s.lat_ns[w].push(lat);
        }
        if self.tr.enabled() {
            s.service_ns.push(p.latency_ns);
        }
        // The closed loop saturates the engine on purpose: only there is
        // waiting not a failure.
        let closed = self.ticks == 0;
        if !p.degraded && (closed || lat <= LATENCY_LIMIT_NS) {
            s.ok += 1;
        }
        if let Some((prev, y)) = self.last[u] {
            if stream.continues(prev, j) {
                s.err_sum[u] += (y - rec.throughput_mbps).abs();
                s.err_n[u] += 1;
            }
        }
        self.last[u] = p.predicted_mbps.map(|y| (j, y));
        let key = mix(self.load.seed ^ p.ue.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ k as u64);
        if key.is_multiple_of(self.load.sample_div) {
            s.samples.push(Sample {
                u,
                k,
                version: p.model_version,
                predicted: p.predicted_mbps,
                horizon: p.horizon_mbps,
            });
        }
        Some(u)
    }

    fn sample_queues(&mut self) {
        let snap = self
            .tr
            .span("serve.engine.snapshot", 0, || self.load.engine.snapshot());
        let deepest = snap.iter().map(|s| s.queue_depth).max().unwrap_or(0);
        self.stats.max_queue = self.stats.max_queue.max(deepest);
    }

    fn finish(mut self) -> PhaseStats {
        self.stats.live_ues = self.next_k.iter().filter(|&&k| k > 0).count();
        for q in &self.fifo {
            if !q.is_empty() {
                self.audit
                    .fail(format!("{} accepted records never answered", q.len()));
            }
        }
        self.stats
    }
}

/// Closed loop: every UE keeps exactly one record outstanding and sends
/// its next one as soon as the previous is answered. Gives `sat_rps`.
pub fn closed_loop(
    load: &Load,
    fleet: &Fleet,
    secs: f64,
    tr: &mut Tracer,
    audit: &mut Audit,
) -> PhaseStats {
    let window_ns = (secs * 1e9) as u64;
    let mut ph = Phase::new(load, fleet, tr, audit);
    for u in 0..fleet.ues() {
        let now = ph.ns();
        ph.offer(u, now);
    }
    while ph.outstanding > 0 {
        let Some(p) = ph.recv_timeout(STALL) else {
            break; // reported as unanswered by `finish`
        };
        let Some(u) = ph.on_response(p) else { continue };
        let now = ph.ns();
        if now <= window_ns {
            ph.stats.in_window += 1;
            let bin = (now / 100_000_000) as usize;
            while ph.stats.bins.len() <= bin {
                if !ph.stats.bins.is_empty() {
                    ph.stats.steal_marks.push(steal_ticks());
                }
                ph.stats.bins.push(0);
            }
            ph.stats.bins[bin] += 1;
            ph.offer(u, now);
        }
    }
    ph.stats.window_s = secs;
    ph.stats.steal_marks.push(steal_ticks());
    ph.finish()
}

/// Open loop: records are offered on a fixed schedule at `rate` records/s
/// for `secs` seconds whatever the engine does, and each is timed from
/// when it was due. The same thread drains responses between offers.
pub fn open_loop(
    load: &Load,
    fleet: &Fleet,
    rate: f64,
    secs: f64,
    tr: &mut Tracer,
    audit: &mut Audit,
) -> PhaseStats {
    let ues = fleet.ues();
    let tick_ns = ues as f64 * 1e9 / rate;
    let ticks = (secs * 1e9 / tick_ns).ceil() as usize;
    let total = ues * ticks;
    let due = |idx: usize| ((idx / ues) as f64 + fleet.phase[idx % ues]) * tick_ns;
    let mut ph = Phase::new(load, fleet, tr, audit);
    ph.ticks = ticks;
    ph.windows = (total / WINDOW_RECORDS).clamp(1, MAX_WINDOWS.min(ticks));
    let mut idx = 0;
    let mut next_snapshot = 0u64;
    let mut last_progress = Instant::now();
    loop {
        let mut busy = false;
        // Offer what is due, in bursts, so responses are drained even when
        // the generator runs behind.
        for _ in 0..64 {
            if idx == total || due(idx) as u64 > ph.ns() {
                break;
            }
            ph.offer(idx % ues, due(idx) as u64);
            idx += 1;
            let windows = ph.windows;
            if idx < total && (idx / ues) * windows / ticks != ((idx - 1) / ues) * windows / ticks {
                ph.stats.steal_marks.push(steal_ticks());
            }
            busy = true;
        }
        while let Some(p) = ph.try_recv() {
            ph.on_response(p);
            busy = true;
        }
        if busy {
            last_progress = Instant::now();
        }
        if ph.tr.enabled() && ph.ns() >= next_snapshot {
            ph.sample_queues();
            next_snapshot = ph.ns() + 1_000_000;
        }
        if idx == total && ph.outstanding == 0 {
            break;
        }
        if busy {
            continue;
        }
        if idx == total && last_progress.elapsed() > STALL {
            break; // reported as unanswered by `finish`
        }
        // Idle. Far from the next due time, sleep and leave the cores to
        // the shards (sleeps overshoot by tens of µs, hence the margin);
        // close to it, spin so the record is offered on time.
        let gap = if idx < total {
            (due(idx) as u64).saturating_sub(ph.ns())
        } else {
            u64::MAX
        };
        if gap > 300_000 {
            std::thread::sleep(Duration::from_nanos(gap - 200_000).min(MAX_NAP));
        } else {
            std::hint::spin_loop();
        }
    }
    ph.stats.window_s = secs;
    ph.stats.steal_marks.push(steal_ticks());
    ph.finish()
}

/// Host CPU time stolen from this machine so far, in clock ticks summed
/// over CPUs: the `steal` column of `/proc/stat`, or 0 where there is none.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|cpu| cpu.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Check sampled responses bit for bit against the offline model call on
/// the same per-UE window: `predict_one` on the features of the window the
/// session held, or `predict_sequence_batch` on the encoder history.
pub fn verify_samples(
    stream: &Stream,
    fleet: &Fleet,
    samples: &[Sample],
    model_of: &dyn Fn(u64) -> Option<Arc<TrainedRegressor>>,
    audit: &mut Audit,
) -> usize {
    for s in samples {
        let Some(model) = model_of(s.version) else {
            audit.fail(format!("response from unknown model version {}", s.version));
            continue;
        };
        let spec = model.spec().expect("served families carry a feature spec");
        let (predicted, horizon) = match model.seq2seq_params() {
            Some(p) => match fleet.history(stream, spec, s.u, s.k, p.input_len) {
                None => (None, None),
                Some(h) => {
                    let h = model
                        .predict_sequence_batch(&[h.as_slice()])
                        .and_then(|mut lanes| lanes.pop());
                    (h.as_ref().and_then(|h| h.first().copied()), h)
                }
            },
            None => {
                let window = fleet.window(stream, s.u, s.k, spec.required_window());
                let y = spec
                    .extract_latest(window)
                    .and_then(|x| model.predict_one(&x));
                (y, None)
            }
        };
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let pred_ok = match (s.predicted, predicted) {
            (None, None) => true,
            (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        };
        let horizon_ok = match (&s.horizon, &horizon) {
            (None, None) => true,
            (Some(a), Some(b)) => same(a, b),
            _ => false,
        };
        if !pred_ok || !horizon_ok {
            audit.fail(format!(
                "ue {} record {}: served {:?} / {:?}, offline {:?} / {:?}",
                fleet.id(s.u),
                s.k,
                s.predicted,
                s.horizon,
                predicted,
                horizon
            ));
        }
    }
    samples.len()
}
