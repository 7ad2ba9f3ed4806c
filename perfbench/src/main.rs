//! The repository benchmark: live-fleet serving of the two Lumos5G model
//! families plus a model-lifecycle storm, driven from outside through the
//! crates' public functions.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --gdbt-rates LO,HI --seq2seq-rates LO,HI \
//!     --workload gdbt_fleet|seq2seq_fleet|lifecycle --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//!
//! * `gdbt_fleet` — GDBT L+M served to 1024 live UEs;
//! * `seq2seq_fleet` — early-stopped Seq2Seq L+M (hidden 64, 2 layers,
//!   input 10, horizon 5) served to 256 live UEs with `decode_batch` 8;
//! * `lifecycle` — GDBT to 256 live UEs while the main thread retrains,
//!   stores, gate-swaps and cold-starts candidate generations.
//!
//! Every run sets the engine up several times (`setup_s` is the median;
//! the GDBT workloads set up once more after each timed phase), warms it
//! up with an untimed closed loop (8 % of the run), then measures three
//! phases on fresh fleets: a closed loop (20 %, `sat_rps`), an open loop
//! at the fixed rate `lo` (37 %) and one at the fixed rate `hi` (35 %).
//! The rates are absolute and come from the command line, never from a
//! measurement, so two commits always see the same offered load. One
//! generator thread offers and drains; the engine runs 2 shards. Latency
//! runs from when a record was due to when the engine emitted its
//! response; `ok_frac` is the share of records answered, not degraded and
//! within 50 ms. A record that is shed, rejected, quarantined, unanswered
//! or answered degraded is also a failed operation; a late one is not,
//! since lateness depends on the machine as well as the program. Every
//! response is audited (exactly once, in order, finite, `horizon[0]` =
//! prediction) and a seeded sample is compared bit for bit with the
//! offline model call on the same window. `online_mae_mbps` is the served
//! error over both open loops (in `lifecycle`, over `hi` only).
//! Afterwards (in `lifecycle`: during the `lo` phase, beside a candidate
//! retrain) the run times 16 store → gated swap → cold start cycles.
//!
//! The machine this was tuned on is a 2-vCPU guest whose speed drifts from
//! second to second and whose host steals CPU time in bursts, so:
//!
//! * the training campaign is fixed and `--seed` draws only the traffic,
//!   so model quality and training cost belong to the code;
//! * rates sit at about 20–40 % of the median `sat_rps`, where a slow
//!   spell does not tip the open loop into a backlog (Seq2Seq shards
//!   decode mostly one sequence at a time at these rates, at about half
//!   the batched throughput, so its rates are the lowest);
//! * `sat_rps` and the latency quantiles are medians over 100 ms bins or
//!   record windows, taken over those in which the host stole no more CPU
//!   time than in the median one (the `steal` column of `/proc/stat`);
//!   latency quantiles cover answers with a prediction, not the warm-up
//!   answers of Seq2Seq sessions too short to decode;
//! * latency quantiles and the lifecycle operation times are printed and
//!   are per-layer metrics of the traced run, but are not end-to-end
//!   metrics: they follow the host's stalls and speed more than the
//!   program; `ok_frac` gates latency against the 50 ms limit.
//!
//! `--trace 1` runs the same phases (the GDBT ones shortened) with a span
//! around every call into a layer, adds per-layer probes, and reports the
//! per-layer metrics; the end-to-end metrics come only from `--trace 0`
//! runs. Each run writes its result, and a traced run its span dump and
//! self-time table, under `.bench_out/`.

mod fleet;
mod layers;
mod lifecycle;
mod stats;
mod trace;

use fleet::{closed_loop, open_loop, verify_samples, Audit, Fleet, Load, PhaseStats, Stream};
use lifecycle::{Lifecycle, OpTimes, GATE_TOLERANCE};
use lumos5g::{quick_gbdt, FeatureSet, Lumos5G, ModelKind, Seq2SeqParams, TrainedRegressor};
use lumos5g_serve::{
    Engine, EngineConfig, EngineReport, Gatekeeper, ModelRegistry, OverloadPolicy,
};
use lumos5g_sim::{airport, quality, run_campaign, CampaignConfig, Dataset};
use stats::{median, quantile};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Shards: one per core of the 2-core machine the rates were set on.
const SHARDS: usize = 2;
/// The training campaign is fixed, so model quality and training cost are
/// properties of the code; `--seed` draws the traffic.
const CAMPAIGN_SEED: u64 = 1;
/// Lifecycle cycles (store, gated swap, cold start) per run; in the
/// `lifecycle` workload each also retrains a candidate.
const LIFECYCLE_CYCLES: usize = 16;
/// Least spacing of the fleets' lifecycle cycles.
const OP_SLOT: Duration = Duration::from_millis(150);
/// Fleet tags (UE-id ranges) of the phases.
const SAT: u64 = 0;
const LO: u64 = 1;
const HI: u64 = 2;
const BASELINE: u64 = 3;
const PROBE: u64 = 4;
const WARM: u64 = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    GdbtFleet,
    Seq2SeqFleet,
    Lifecycle,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "gdbt_fleet" => Some(Workload::GdbtFleet),
            "seq2seq_fleet" => Some(Workload::Seq2SeqFleet),
            "lifecycle" => Some(Workload::Lifecycle),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::GdbtFleet => "gdbt_fleet",
            Workload::Seq2SeqFleet => "seq2seq_fleet",
            Workload::Lifecycle => "lifecycle",
        }
    }

    fn ues(self) -> usize {
        match self {
            Workload::GdbtFleet => 1024,
            Workload::Seq2SeqFleet | Workload::Lifecycle => 256,
        }
    }

    /// Set-ups before the timed phases; `setup_s` is the median of these
    /// and of the ones [`Workload::sets_up_between_phases`] adds.
    fn setups(self) -> usize {
        match self {
            Workload::Seq2SeqFleet => 3,
            Workload::GdbtFleet | Workload::Lifecycle => 5,
        }
    }

    /// Whether the run also sets up once more after each timed phase. A
    /// GDBT set-up takes about 0.1 s, so back-to-back set-ups all sample
    /// the same moment of a machine whose speed drifts over seconds; a
    /// Seq2Seq set-up trains for seconds and averages the drift itself.
    fn sets_up_between_phases(self) -> bool {
        self != Workload::Seq2SeqFleet
    }

    /// One response in this many is checked bit for bit offline (a
    /// Seq2Seq decode costs about 0.7 ms, a GDBT row about 1 µs).
    fn sample_div(self) -> u64 {
        match self {
            Workload::Seq2SeqFleet => 48,
            Workload::GdbtFleet | Workload::Lifecycle => 16,
        }
    }

    /// Traced runs shorten the GDBT phases, which offer about a hundred
    /// times more records than the Seq2Seq ones, to bound the span dump.
    fn trace_scale(self) -> f64 {
        match self {
            Workload::Seq2SeqFleet => 1.0,
            Workload::GdbtFleet | Workload::Lifecycle => 0.1,
        }
    }

    fn kind(self) -> ModelKind {
        match self {
            Workload::Seq2SeqFleet => ModelKind::Seq2Seq(seq2seq_params()),
            Workload::GdbtFleet | Workload::Lifecycle => ModelKind::Gdbt(quick_gbdt()),
        }
    }
}

/// The served Seq2Seq: early-stopped on a 20 % validation slice.
fn seq2seq_params() -> Seq2SeqParams {
    Seq2SeqParams {
        input_len: 10,
        horizon: 5,
        hidden: 64,
        layers: 2,
        epochs: 30,
        batch_size: 64,
        lr: 3e-3,
        stride: 4,
        seed: CAMPAIGN_SEED,
        val_fraction: 0.2,
        patience: 3,
    }
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        shards: SHARDS,
        queue_capacity: 1024,
        policy: OverloadPolicy::Block,
        predict_budget: None,
        decode_batch: layers::BATCH,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `(lo, hi)` offered rates, records/s, for GDBT and Seq2Seq serving.
    gdbt_rates: (f64, f64),
    seq2seq_rates: (f64, f64),
}

impl Args {
    fn rates(&self) -> (f64, f64) {
        match self.workload {
            Workload::Seq2SeqFleet => self.seq2seq_rates,
            Workload::GdbtFleet | Workload::Lifecycle => self.gdbt_rates,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let rates = |flag: &str| -> Result<(f64, f64), String> {
        let v = get(flag)?;
        let (lo, hi) = v.split_once(',').ok_or(format!("{flag} takes LO,HI"))?;
        let parse = |s: &str| s.parse::<f64>().ok().filter(|r| *r > 0.0);
        match (parse(lo), parse(hi)) {
            (Some(lo), Some(hi)) => Ok((lo, hi)),
            _ => Err(format!("{flag}: bad rates {v}")),
        }
    };
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds needs a number")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed needs an integer")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        gdbt_rates: rates("--gdbt-rates")?,
        seq2seq_rates: rates("--seq2seq-rates")?,
    })
}

/// The fixed campaign: airport, 10 passes per trajectory, every fourth
/// pass held out for replay and scoring.
struct Campaign {
    train: Dataset,
    heldout: Dataset,
}

fn simulate() -> Campaign {
    let area = airport(CAMPAIGN_SEED);
    let cfg = CampaignConfig {
        passes_per_trajectory: 10,
        max_duration_s: 300,
        base_seed: CAMPAIGN_SEED,
        bad_gps_fraction: 0.0,
        ..Default::default()
    };
    let raw = run_campaign(&area, &cfg);
    let (data, _) = quality::apply(&raw, &area.frame, &Default::default());
    let (heldout, train): (Vec<_>, Vec<_>) =
        data.records.into_iter().partition(|r| r.pass_id % 4 == 3);
    Campaign {
        train: Dataset::new(train),
        heldout: Dataset::new(heldout),
    }
}

/// The first `num / den` of the training passes (in pass order).
fn train_slice(train: &Dataset, num: usize, den: usize) -> Dataset {
    let mut passes: Vec<u32> = train.records.iter().map(|r| r.pass_id).collect();
    passes.sort_unstable();
    passes.dedup();
    let keep = &passes[..(passes.len() * num).div_ceil(den)];
    train.filter(|r| keep.binary_search(&r.pass_id).is_ok())
}

fn fit(tr: &mut Tracer, kind: ModelKind, data: &Dataset, req: u64) -> TrainedRegressor {
    let name = match kind {
        ModelKind::Seq2Seq(_) => "ml.seq2seq.fit",
        _ => "ml.gbdt.fit",
    };
    tr.span(name, req, || {
        Lumos5G::new(FeatureSet::LM, kind).fit_regression(data)
    })
    .expect("the benchmark campaign trains")
}

struct Setup {
    campaign: Campaign,
    engine: Engine,
    /// Models of the earlier set-ups, identical to the served one.
    spares: Vec<Arc<TrainedRegressor>>,
    setup_s: Vec<f64>,
    fit_s: Vec<f64>,
}

/// Campaign simulation, training and engine start, repeated; the engine
/// of the last repetition serves the run.
fn setup(w: Workload, tr: &mut Tracer) -> Setup {
    let (mut setup_s, mut fit_s, mut spares) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..w.setups() {
        let (campaign, engine, fit, total) = set_up_once(w, tr, i as u64);
        fit_s.push(fit);
        setup_s.push(total);
        if i + 1 < w.setups() {
            spares.push(engine.registry().current().regressor.clone());
            engine.shutdown();
        } else {
            return Setup {
                campaign,
                engine,
                spares,
                setup_s,
                fit_s,
            };
        }
    }
    unreachable!("at least one set-up")
}

/// One campaign simulation, training and engine start. Returns what it
/// built, the fit time and the whole set-up time, s.
fn set_up_once(w: Workload, tr: &mut Tracer, i: u64) -> (Campaign, Engine, f64, f64) {
    let t = Instant::now();
    let root = tr.open("setup", i);
    let campaign = tr.span("sim.campaign", i, simulate);
    // The lifecycle starts from half the training passes and retrains on
    // more of them in every cycle.
    let data = match w {
        Workload::Lifecycle => train_slice(&campaign.train, 1, 2),
        _ => campaign.train.clone(),
    };
    let tf = Instant::now();
    let model = fit(tr, w.kind(), &data, i);
    let fit_s = tf.elapsed().as_secs_f64();
    let registry = Arc::new(ModelRegistry::new(model));
    let engine = tr.span("serve.engine.start", i, || {
        Engine::start_with_registry(registry, engine_config())
    });
    tr.close(root);
    (campaign, engine, fit_s, t.elapsed().as_secs_f64())
}

/// A set-up timed between two phases and shut down again, in workloads
/// that [set up between phases](Workload::sets_up_between_phases).
fn set_up_between(w: Workload, tr: &mut Tracer, setup_s: &mut Vec<f64>, fit_s: &mut Vec<f64>) {
    if w.sets_up_between_phases() {
        let (_, engine, fit, total) = set_up_once(w, tr, setup_s.len() as u64);
        engine.shutdown();
        fit_s.push(fit);
        setup_s.push(total);
    }
}

fn sleep_until(t: Instant) {
    if let Some(d) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(d);
    }
}

fn mae(model: &TrainedRegressor, data: &Dataset) -> f64 {
    let (truth, pred) = model.eval(data);
    lumos5g_ml::mae(&truth, &pred)
}

/// Ordered metric list with units, printed as a table and as JSON.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

fn q_us(xs: &[u64], q: f64) -> f64 {
    quantile(&mut xs.to_vec(), q) as f64 / 1e3
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit of the checkout, when it is a git work tree rooted here.
fn commit() -> String {
    let here = std::env::current_dir()
        .ok()
        .and_then(|d| d.canonicalize().ok());
    let top = command_line("git", &["rev-parse", "--show-toplevel"])
        .and_then(|t| Path::new(&t).canonicalize().ok());
    match (here, top) {
        (Some(h), Some(t)) if h == t => {
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
        }
        _ => "unknown (not a git checkout)".into(),
    }
}

fn header(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (lo, hi) = args.rates();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"rustc\": \"{}\", \"commit\": \"{}\", \"shards\": {SHARDS}, \"generator_threads\": 1, \
         \"ues\": {}, \"rate_lo\": {lo}, \"rate_hi\": {hi}, \"latency_limit_ms\": {}, \
         \"campaign_seed\": {CAMPAIGN_SEED}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        commit(),
        args.workload.ues(),
        fleet::LATENCY_LIMIT_NS / 1_000_000,
    )
}

/// Check the engine's final report against the fault-free contract.
fn audit_report(report: &EngineReport, accepted: u64, audit: &mut Audit) {
    let counters = [
        ("shed", report.shed + report.shed_stale),
        ("rejected", report.rejected),
        ("quarantined", report.quarantined),
        ("fallbacks", report.fallbacks),
        ("panicked", report.panicked),
    ];
    for (what, n) in counters {
        if n > 0 {
            audit.fail(format!("{n} records {what} in a fault-free run"));
        }
    }
    if report.processed != accepted {
        audit.fail(format!(
            "engine processed {} records, {accepted} were accepted",
            report.processed
        ));
    }
}

fn run(args: &Args, out_dir: &Path) -> Result<(), String> {
    let w = args.workload;
    let epoch = Instant::now();
    let mut tr = Tracer::new(args.trace, epoch);
    let mut audit = Audit::default();
    let head = header(args);
    println!("{head}");

    let st = setup(w, &mut tr);
    let Campaign { train, heldout } = &st.campaign;
    let engine = &st.engine;
    engine.install_gatekeeper(Gatekeeper::new(heldout.clone(), GATE_TOLERANCE));
    let stream = Stream::new(heldout.records.clone());
    let load = Load {
        engine,
        stream: &stream,
        seed: args.seed,
        sample_div: w.sample_div(),
    };
    let scale = if args.trace { w.trace_scale() } else { 1.0 };
    let (d_warm, d_sat, d_lo, d_hi) = (
        0.08 * args.seconds,
        0.2 * args.seconds * scale,
        0.37 * args.seconds * scale,
        0.35 * args.seconds * scale,
    );
    let (rate_lo, rate_hi) = args.rates();
    let fleet = |tag| Fleet::new(tag, w.ues(), &stream, args.seed);
    let dir = out_dir.join(format!(
        "registry-{}-{}-{}",
        w.name(),
        args.seed,
        std::process::id()
    ));
    let lc = Lifecycle {
        engine,
        dir: dir.clone(),
        cfg: engine_config(),
        probe: (u64::MAX, stream.recs[0].clone()),
        gate: Gatekeeper::new(heldout.clone(), GATE_TOLERANCE),
    };
    let mut ops = OpTimes::default();
    let (mut setup_s, mut fit_s) = (st.setup_s.clone(), st.fit_s.clone());
    ops.versions
        .push((1, engine.registry().current().regressor.clone()));

    // An untimed closed loop first, as long in traced runs as in untraced
    // ones: a fresh engine serves its first second or so of saturating
    // load up to half as fast as it does afterwards, and for how long
    // varies from run to run. Its responses are audited like every other.
    let f_warm = fleet(WARM);
    let warm = {
        let mut off = Tracer::new(false, epoch);
        closed_loop(&load, &f_warm, d_warm, &mut off, &mut audit)
    };
    // Traced runs then measure an untraced closed loop, for the tracing
    // overhead.
    let f_base = fleet(BASELINE);
    let baseline = args.trace.then(|| {
        let mut off = Tracer::new(false, epoch);
        closed_loop(&load, &f_base, d_sat, &mut off, &mut audit)
    });
    let (f_sat, f_lo, f_hi) = (fleet(SAT), fleet(LO), fleet(HI));
    let sat = closed_loop(&load, &f_sat, d_sat, &mut tr, &mut audit);
    set_up_between(w, &mut tr, &mut setup_s, &mut fit_s);
    let lo = if w == Workload::Lifecycle {
        // The generator serves the lo phase on its own thread while this
        // thread runs the lifecycle cycles against the same engine.
        let (lo, gen_tr, gen_audit) = std::thread::scope(|s| {
            let gen = s.spawn(|| {
                let mut gtr = Tracer::new(args.trace, epoch);
                let mut gaudit = Audit::default();
                let lo = open_loop(&load, &f_lo, rate_lo, d_lo, &mut gtr, &mut gaudit);
                (lo, gtr, gaudit)
            });
            // One cycle per slot, spread over the phase.
            let slot = Duration::from_secs_f64(d_lo / LIFECYCLE_CYCLES as f64);
            let start = Instant::now();
            for i in 1..=LIFECYCLE_CYCLES {
                sleep_until(start + slot * (i as u32 - 1));
                let data = train_slice(train, LIFECYCLE_CYCLES + i, 2 * LIFECYCLE_CYCLES);
                let t = Instant::now();
                let candidate = fit(&mut tr, w.kind(), &data, i as u64);
                ops.fit_s.push(t.elapsed().as_secs_f64());
                lc.cycle(candidate, &mut tr, &mut ops, &mut audit);
            }
            gen.join().expect("generator thread")
        });
        tr.absorb(gen_tr);
        audit.violations += gen_audit.violations;
        audit.notes.extend(gen_audit.notes);
        lo
    } else {
        open_loop(&load, &f_lo, rate_lo, d_lo, &mut tr, &mut audit)
    };
    set_up_between(w, &mut tr, &mut setup_s, &mut fit_s);
    let hi = open_loop(&load, &f_hi, rate_hi, d_hi, &mut tr, &mut audit);
    set_up_between(w, &mut tr, &mut setup_s, &mut fit_s);

    // The fleets time the lifecycle operations after serving, on the
    // models their own set-ups trained; their fits are the set-up fits.
    // The cycles start at least OP_SLOT apart: the machine's speed drifts
    // from second to second, and samples spread in time average it out.
    if w != Workload::Lifecycle {
        ops.fit_s = fit_s;
        let start = Instant::now();
        for i in 0..LIFECYCLE_CYCLES {
            sleep_until(start + OP_SLOT * i as u32);
            let model = st.spares[i % st.spares.len()].as_ref().clone();
            lc.cycle(model, &mut tr, &mut ops, &mut audit);
        }
    }

    let mut phases: Vec<(&Fleet, &PhaseStats)> =
        vec![(&f_warm, &warm), (&f_sat, &sat), (&f_lo, &lo), (&f_hi, &hi)];
    phases.extend(baseline.as_ref().map(|b| (&f_base, b)));
    let model_of = |v: u64| {
        ops.versions
            .iter()
            .find(|(x, _)| *x == v)
            .map(|(_, m)| m.clone())
    };
    let mut checked = 0;
    for (f, ph) in &phases {
        checked += verify_samples(&stream, f, &ph.samples, &model_of, &mut audit);
    }
    let served = engine.registry().current().regressor.clone();
    let answered: u64 = phases.iter().map(|(_, p)| p.answered).sum();
    let Setup { engine: owned, .. } = st;
    let (report, rest) = owned.shutdown();
    if let Ok(p) = rest.try_recv() {
        audit.fail(format!(
            "response after the last record was answered: {p:?}"
        ));
    }
    audit_report(&report, answered, &mut audit);
    std::fs::remove_dir_all(&dir).ok();

    let attempted: u64 = phases.iter().map(|(_, p)| p.offered).sum();
    // A failed operation is one the program got wrong: a record not
    // accepted, never answered, answered degraded or with a wrong or
    // non-finite output. Each is an audit violation. A correct answer
    // later than the latency limit is not a failure of the operation;
    // it lowers `ok_frac`, whose value the bound gates.
    let failed: u64 = audit.violations;
    let processed: Vec<u64> = report.shards.iter().map(|s| s.processed).collect();
    let shard_share =
        *processed.iter().max().unwrap_or(&0) as f64 / processed.iter().sum::<u64>().max(1) as f64;
    // Both open loops serve a fixed schedule, so their error repeats for a
    // seed; in `lifecycle`, lo is also served by whichever candidates the
    // gate had admitted when each record arrived, which timing decides.
    let mae_phases = if w == Workload::Lifecycle { vec![&hi] } else { vec![&lo, &hi] };
    let online_mae = fleet::online_mae(&mae_phases).unwrap_or(f64::NAN);
    let offline_mae = mae(&served, heldout);

    let mut m = Metrics::default();
    let mut notes = vec![
        format!(
            "sat: {} answered in {:.2} s over {} UEs; lo: {} offered, {} latency samples; hi: {} offered, {} latency samples",
            sat.in_window, sat.window_s, f_sat.ues(), lo.offered, lo.latency_samples(), hi.offered, hi.latency_samples()
        ),
        format!(
            "live UEs: sat {}, lo {}, hi {} of {}; largest shard share {shard_share:.3}; {checked} responses checked bit for bit; {} audit violations",
            sat.live_ues, lo.live_ues, hi.live_ues, w.ues(), audit.violations
        ),
        format!(
            "host steal: sat {:.1} %, lo {:.1} %, hi {:.1} % of CPU time",
            100.0 * sat.steal_frac(SHARDS),
            100.0 * lo.steal_frac(SHARDS),
            100.0 * hi.steal_frac(SHARDS)
        ),
        format!(
            "lifecycle: {} fits, {} stores, {} swaps ({} refused), {} cold starts",
            ops.fit_s.len(), ops.store_ms.len(), ops.swap_ms.len(), ops.rejected, ops.cold_start_ms.len()
        ),
    ];
    // Reported but not gated: on a small shared machine tail latency
    // follows the host's stalls, and Seq2Seq decode latency and the
    // millisecond-scale lifecycle operations follow its speed from one
    // minute to the next, more than the program does. `ok_frac` gates
    // latency against the 50 ms limit.
    let mut info = Metrics::default();
    info.put("p50_us.lo", lo.lat_us(0.5), "us");
    info.put("p50_us.hi", hi.lat_us(0.5), "us");
    info.put("p99_us.lo", lo.lat_us(0.99), "us");
    info.put("p99_us.hi", hi.lat_us(0.99), "us");
    info.put("retrain_s", median(&ops.fit_s), "s");
    info.put("store_ms", median(&ops.store_ms), "ms");
    info.put("swap_ms", median(&ops.swap_ms), "ms");
    info.put("cold_start_ms", median(&ops.cold_start_ms), "ms");
    if !args.trace {
        m.put("setup_s", median(&setup_s), "s");
        m.put("sat_rps", sat.rate(), "1/s");
        m.put("ok_frac.lo", lo.ok_frac(), "frac");
        m.put("ok_frac.hi", hi.ok_frac(), "frac");
        m.put("online_mae_mbps", online_mae, "Mbps");
        m.put("offline_mae_mbps", offline_mae, "Mbps");
    } else {
        let base = baseline.expect("traced runs measure a baseline");
        per_layer(
            &mut m,
            &mut tr,
            &mut notes,
            LayerInputs {
                w,
                train,
                stream: &stream,
                served: &served,
                report: &report,
                phases: [&sat, &lo, &hi],
                shard_share,
                overhead: 1.0 - sat.rate() / base.rate().max(1.0),
                out_dir,
            },
        );
        m.0.append(&mut info.0);
        // One dump per workload: the newest traced run replaces the last.
        let stem = w.name();
        let dump = out_dir.join(format!("trace-{stem}.tsv"));
        tr.dump(&dump)
            .map_err(|e| format!("write {}: {e}", dump.display()))?;
        let table = self_time_table(&tr);
        let path = out_dir.join(format!("selftime-{stem}.tsv"));
        std::fs::write(&path, &table).map_err(|e| format!("write {}: {e}", path.display()))?;
        print!("{table}");
        notes.push(format!(
            "{} spans written to {}; self times in {}",
            tr.spans().len(),
            dump.display(),
            path.display()
        ));
    }

    let correct = audit.violations == 0 && m.0.iter().all(|(_, v, _)| v.is_finite());
    for (name, value, unit) in &m.0 {
        println!("{name:<34} {value:>16.4} {unit}");
    }
    if !args.trace {
        for (name, value, unit) in &info.0 {
            println!("{name:<34} {value:>16.4} {unit}  (not gated)");
        }
    }
    for n in notes.iter().chain(&audit.notes) {
        println!("# {n}");
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        attempted.max(1),
        failed.min(attempted.max(1)),
        m.json()
    );
    let file = out_dir.join(format!(
        "result-{}-s{}-t{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&file, format!("{head}\n{result}\n"))
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    println!("{result}");
    Ok(())
}

/// What the per-layer table is computed from.
struct LayerInputs<'a> {
    w: Workload,
    train: &'a Dataset,
    stream: &'a Stream,
    served: &'a Arc<TrainedRegressor>,
    report: &'a EngineReport,
    phases: [&'a PhaseStats; 3],
    shard_share: f64,
    overhead: f64,
    out_dir: &'a Path,
}

/// Per-layer metrics of a traced run: spans from the run itself, plus the
/// probes of `layers` for the layers the shards run out of reach.
fn per_layer(m: &mut Metrics, tr: &mut Tracer, notes: &mut Vec<String>, x: LayerInputs) {
    let [sat, lo, hi] = x.phases;
    // Models for the probes: the served one, and one of the served shape
    // of the family this workload does not serve.
    let (gdbt, seq, epochs) = match x.w {
        Workload::Seq2SeqFleet => {
            let gdbt = fit(tr, ModelKind::Gdbt(quick_gbdt()), x.train, 0);
            let (replica, epochs) = layers::seq2seq_epochs(
                tr,
                x.train,
                &lumos5g::FeatureSpec::new(FeatureSet::LM),
                &seq2seq_params(),
            );
            let h = Fleet::new(PROBE, 1, x.stream, 0).history(
                x.stream,
                replica.spec().expect("spec"),
                0,
                40,
                seq2seq_params().input_len,
            );
            if let Some(h) = h {
                let a = replica.predict_sequence_batch(&[h.as_slice()]);
                let b = x.served.predict_sequence_batch(&[h.as_slice()]);
                if a != b {
                    notes
                        .push("the ml-layer training replica differs from the served model".into());
                }
            }
            (Arc::new(gdbt), x.served.clone(), epochs)
        }
        Workload::GdbtFleet | Workload::Lifecycle => {
            let one_epoch = Seq2SeqParams {
                epochs: 1,
                val_fraction: 0.0,
                patience: 0,
                ..seq2seq_params()
            };
            let (probe, epochs) = layers::seq2seq_epochs(
                tr,
                x.train,
                &lumos5g::FeatureSpec::new(FeatureSet::LM),
                &one_epoch,
            );
            (x.served.clone(), Arc::new(probe), epochs)
        }
    };
    let probe_fleet = Fleet::new(PROBE, x.w.ues(), x.stream, 0);
    let records = match x.w {
        Workload::GdbtFleet => 50_000,
        _ => 20_000,
    };
    layers::pipeline(tr, x.stream, &probe_fleet, records, &gdbt, &seq);
    let p = *seq.seq2seq_params().expect("Seq2Seq params");
    let dim = seq.spec().expect("spec").dim();
    let gmacs_b1 = layers::matvec_kernel(tr, &p, dim, 1, 200);
    let gmacs_b8 = layers::matvec_kernel(tr, &p, dim, layers::BATCH, 50);
    let model_bytes = layers::persist(tr, x.served, x.out_dir, 5);
    let (macs_b1, bytes_b1) = layers::decode_cost(&p, dim, 1);
    let (macs_b8, bytes_b8) = layers::decode_cost(&p, dim, layers::BATCH);
    let node_visits = match gdbt.as_ref() {
        TrainedRegressor::Gdbt { model, .. } => (model.n_trees() * quick_gbdt().max_depth) as f64,
        _ => 0.0,
    };

    let med = |name: &str| {
        let mut d = tr.durations(name);
        quantile(&mut d, 0.5) as f64
    };
    let offers: Vec<u64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "serve.engine.offer" && s.req >> 56 == HI)
        .map(|s| s.dur_ns())
        .collect();
    let count = |f: fn(&lumos5g_serve::MetricsSnapshot) -> u64| {
        x.report.shards.iter().map(f).sum::<u64>() as f64
    };
    m.put("sim.campaign_s", med("sim.campaign") / 1e9, "s");
    m.put("ml.gbdt.fit_s", med("ml.gbdt.fit") / 1e9, "s");
    m.put("ml.gbdt.predict_row_ns", med("ml.gbdt.predict_row"), "ns");
    m.put("ml.gbdt.node_visits_computed", node_visits, "count");
    m.put("ml.nn.matvec_gmacs.b1", gmacs_b1, "GMAC/s");
    m.put("ml.nn.matvec_gmacs.b8", gmacs_b8, "GMAC/s");
    m.put("ml.nn.decode_macs_computed.b1", macs_b1, "count");
    m.put("ml.nn.decode_macs_computed.b8", macs_b8, "count");
    m.put("ml.nn.decode_bytes_computed.b1", bytes_b1, "B");
    m.put("ml.nn.decode_bytes_computed.b8", bytes_b8, "B");
    m.put("ml.seq2seq.epoch_s", med("ml.seq2seq.epoch") / 1e9, "s");
    m.put("ml.seq2seq.epochs", epochs as f64, "count");
    m.put(
        "core.features.extract_ns",
        med("core.features.extract"),
        "ns",
    );
    m.put(
        "core.predictor.predict_one_ns",
        med("core.predictor.predict_one"),
        "ns",
    );
    m.put(
        "core.predictor.decode_us.b1",
        med("core.predictor.decode.b1") / 1e3,
        "us",
    );
    m.put(
        "core.predictor.decode_us.b8",
        med("core.predictor.decode.b8") / 1e3 / layers::BATCH as f64,
        "us",
    );
    m.put(
        "core.persist.encode_us",
        med("core.persist.encode") / 1e3,
        "us",
    );
    m.put(
        "core.persist.decode_us",
        med("core.persist.decode") / 1e3,
        "us",
    );
    m.put(
        "core.persist.atomic_write_ms",
        med("core.persist.atomic_write") / 1e6,
        "ms",
    );
    m.put("core.persist.model_bytes", model_bytes as f64, "B");
    m.put("serve.admit_ns", med("serve.admit"), "ns");
    m.put("serve.session.push_ns", med("serve.session.push"), "ns");
    m.put(
        "serve.session.history_ns",
        med("serve.session.history"),
        "ns",
    );
    m.put(
        "serve.engine.offer_ns.p50",
        quantile(&mut offers.clone(), 0.5) as f64,
        "ns",
    );
    m.put(
        "serve.engine.offer_ns.p99",
        quantile(&mut offers.clone(), 0.99) as f64,
        "ns",
    );
    m.put(
        "serve.engine.service_us.p50",
        q_us(&hi.service_ns, 0.5),
        "us",
    );
    m.put(
        "serve.engine.service_us.p99",
        q_us(&hi.service_ns, 0.99),
        "us",
    );
    m.put(
        "serve.engine.gen_late_us.p99",
        q_us(&hi.late_ns, 0.99),
        "us",
    );
    m.put(
        "serve.engine.queue_depth.max",
        sat.max_queue.max(lo.max_queue).max(hi.max_queue) as f64,
        "count",
    );
    m.put("serve.engine.shard_share.max", x.shard_share, "frac");
    m.put(
        "serve.engine.live_ues",
        sat.live_ues.min(lo.live_ues).min(hi.live_ues) as f64,
        "count",
    );
    m.put("serve.engine.warmups", count(|s| s.warmups), "count");
    m.put("serve.engine.fallbacks", x.report.fallbacks as f64, "count");
    m.put(
        "serve.engine.shed",
        (x.report.shed + x.report.shed_stale) as f64,
        "count",
    );
    m.put("serve.engine.rejected", x.report.rejected as f64, "count");
    m.put(
        "serve.engine.quarantined",
        x.report.quarantined as f64,
        "count",
    );
    m.put(
        "serve.registry.gate_ms",
        med("serve.registry.gate") / 1e6,
        "ms",
    );
    m.put(
        "serve.registry.swap_us",
        med("serve.registry.swap") / 1e3,
        "us",
    );
    m.put(
        "serve.registry.load_ms",
        med("serve.registry.load_dir_report") / 1e6,
        "ms",
    );
    m.put("trace.overhead_frac", x.overhead, "frac");
}

/// Span name → the per-layer metric it yields.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("sim.campaign", "sim.campaign_s"),
    ("ml.gbdt.fit", "ml.gbdt.fit_s"),
    ("ml.gbdt.predict_row", "ml.gbdt.predict_row_ns"),
    ("ml.nn.batched_matvec_bias.b1", "ml.nn.matvec_gmacs.b1"),
    ("ml.nn.batched_matvec_bias.b8", "ml.nn.matvec_gmacs.b8"),
    ("ml.seq2seq.epoch", "ml.seq2seq.epoch_s"),
    ("core.features.extract", "core.features.extract_ns"),
    (
        "core.predictor.predict_one",
        "core.predictor.predict_one_ns",
    ),
    ("core.predictor.decode.b1", "core.predictor.decode_us.b1"),
    ("core.predictor.decode.b8", "core.predictor.decode_us.b8"),
    ("core.persist.encode", "core.persist.encode_us"),
    ("core.persist.decode", "core.persist.decode_us"),
    ("core.persist.atomic_write", "core.persist.atomic_write_ms"),
    ("serve.admit", "serve.admit_ns"),
    ("serve.session.push", "serve.session.push_ns"),
    ("serve.session.history", "serve.session.history_ns"),
    ("serve.engine.offer", "serve.engine.offer_ns"),
    ("serve.registry.gate", "serve.registry.gate_ms"),
    ("serve.registry.swap", "serve.registry.swap_us"),
    ("serve.registry.load_dir_report", "serve.registry.load_ms"),
];

fn self_time_table(tr: &Tracer) -> String {
    let mut s = String::from("span\tmetric\tcount\ttotal_ms\tself_ms\tp50_ns\n");
    for row in tr.self_times() {
        let metric = SPAN_METRICS
            .iter()
            .find(|(span, _)| *span == row.name)
            .map_or("-", |(_, m)| m);
        let _ = writeln!(
            s,
            "{}\t{metric}\t{}\t{:.3}\t{:.3}\t{}",
            row.name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            row.p50_ns
        );
    }
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    match run(&args, &out_dir) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
