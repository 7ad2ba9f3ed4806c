//! Model-lifecycle operations on a serving engine: store a candidate
//! generation, admit it through the validation gate, and cold-start a
//! second engine from the registry directory.

use crate::fleet::Audit;
use crate::trace::Tracer;
use lumos5g::TrainedRegressor;
use lumos5g_serve::{Engine, EngineConfig, Gatekeeper, ModelRegistry, SubmitOutcome};
use lumos5g_sim::Record;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Golden-slice MAE tolerance of the swap gate: a candidate may be up to
/// 25 % worse than the incumbent.
pub const GATE_TOLERANCE: f64 = 1.25;

pub struct Lifecycle<'a> {
    pub engine: &'a Engine,
    pub dir: PathBuf,
    pub cfg: EngineConfig,
    /// UE and record offered to a cold-started engine for its first response.
    pub probe: (u64, Record),
    /// A gate over the same golden slice as the engine's, used only to time
    /// the gate on its own in the traced run.
    pub gate: Gatekeeper,
}

/// Wall times of the lifecycle operations, one entry per operation.
#[derive(Default)]
pub struct OpTimes {
    pub fit_s: Vec<f64>,
    pub store_ms: Vec<f64>,
    pub swap_ms: Vec<f64>,
    pub cold_start_ms: Vec<f64>,
    pub rejected: u64,
    /// Every version the engine served, with its model, for the audit.
    pub versions: Vec<(u64, Arc<TrainedRegressor>)>,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl Lifecycle<'_> {
    /// Store `candidate` as the next generation, hot-swap it in through
    /// `Engine::guarded_swap`, and cold-start a second engine from the
    /// directory.
    pub fn cycle(
        &self,
        candidate: TrainedRegressor,
        tr: &mut Tracer,
        times: &mut OpTimes,
        audit: &mut Audit,
    ) {
        let version = self.engine.registry().version() + 1;
        let staged = ModelRegistry::with_version(candidate, version);
        let t = Instant::now();
        let stored = tr.span("serve.registry.store", version, || staged.store(&self.dir));
        times.store_ms.push(ms(t));
        if let Err(e) = stored {
            audit.fail(format!("store of generation {version} failed: {e}"));
            return;
        }
        let candidate = staged.current().regressor.as_ref().clone();
        if tr.enabled() {
            // The gate and the registry swap on their own, for the
            // per-layer table; `guarded_swap` below does both.
            tr.span("serve.registry.gate", version, || {
                self.gate.score(&candidate)
            })
            .ok();
            let copy = candidate.clone();
            tr.span("serve.registry.swap", version, || staged.swap(copy));
        }
        let t = Instant::now();
        let swapped = tr.span("serve.engine.guarded_swap", version, || {
            self.engine.guarded_swap(candidate)
        });
        times.swap_ms.push(ms(t));
        match swapped {
            Ok(v) => {
                let current = self.engine.registry().current();
                if current.version != v {
                    audit.fail(format!(
                        "swap returned v{v}, registry serves v{}",
                        current.version
                    ));
                }
                times.versions.push((v, current.regressor.clone()));
            }
            Err(_) => times.rejected += 1,
        }
        self.cold_start(version, tr, times, audit);
    }

    /// `load_dir_report` through `Engine::start_with_registry` to the first
    /// response of the restored engine.
    fn cold_start(&self, newest: u64, tr: &mut Tracer, times: &mut OpTimes, audit: &mut Audit) {
        let (ue, record) = (self.probe.0, self.probe.1.clone());
        let t = Instant::now();
        let span = tr.open("serve.cold_start", newest);
        let loaded = tr.span("serve.registry.load_dir_report", newest, || {
            ModelRegistry::load_dir_report(&self.dir)
        });
        let (registry, report) = match loaded {
            Ok(x) => x,
            Err(e) => {
                tr.close(span);
                audit.fail(format!("cold start failed: {e}"));
                return;
            }
        };
        let engine = tr.span("serve.engine.start", newest, || {
            Engine::start_with_registry(Arc::new(registry), self.cfg)
        });
        let offered = tr.span("serve.engine.offer", newest, || engine.offer(ue, record));
        let first = tr.span("serve.engine.recv", newest, || {
            engine.responses().recv_timeout(Duration::from_secs(10))
        });
        tr.close(span);
        times.cold_start_ms.push(ms(t));
        if report.version != newest || !report.skipped.is_empty() {
            audit.fail(format!(
                "cold start restored generation {} (newest {newest}), skipped {}",
                report.version,
                report.skipped.len()
            ));
        }
        match (offered, first) {
            (SubmitOutcome::Accepted, Ok(p)) if p.model_version == newest && !p.degraded => {}
            (o, f) => audit.fail(format!(
                "cold-started engine: offer {o:?}, first response {f:?}"
            )),
        }
        engine.shutdown();
    }
}
