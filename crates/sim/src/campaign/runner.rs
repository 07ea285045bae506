//! The crash-resilient campaign executor.
//!
//! Work flows through four stages, each deterministic given the spec:
//!
//! 1. **Shard** — [`CampaignSpec::shards`] partitions the grid × the
//!    replication range into checkpoint-sized units; replication `r` of a
//!    point always uses seed `base_seed + r` no matter which shard it
//!    lands in.
//! 2. **Execute** — the checkpointed-job runner ([`Checkpoint`]) fans the
//!    missing shards out over the rayon pool. Every replication runs
//!    under `catch_unwind`; a panic is retried with bounded exponential
//!    backoff, and a replication that keeps panicking quarantines its
//!    whole shard (recording the poisoned seed and the panic message for
//!    reproduction) instead of aborting the campaign.
//! 3. **Checkpoint** — the runner seals each completed shard's record
//!    into the JSONL manifest and rewrites the manifest atomically, so a
//!    SIGKILL at any instant leaves a loadable prefix of the work.
//! 4. **Merge** — shard records are decoded *from their manifest
//!    encoding* (fresh or reloaded — one code path) and folded into one
//!    [`McSummary`] per point in shard order, which is replication order;
//!    the Welford pushes therefore happen in exactly the order
//!    [`run_replications_summarized`] uses, making the merged output
//!    bit-identical to an uninterrupted single-process run for *any*
//!    shard size, thread count, or kill/resume history.
//!
//! A watchdog thread flags shards that exceed a slot-budget-derived
//! timeout (they are *reported*, not killed — a flagged shard may still
//! complete and checkpoint).
//!
//! [`run_replications_summarized`]: crate::montecarlo::run_replications_summarized

use serde_json::{json, Value};
use std::collections::BTreeSet;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use super::manifest::{f64_from_bits_json, f64_to_bits_json, Manifest, ManifestError};
use super::spec::{CampaignSpec, Shard};
use crate::metrics::SimReport;
use crate::montecarlo::McSummary;
use ttdc_util::checkpoint::{Checkpoint, ResumeMode, CAMPAIGN_SCHEMA_VERSION, MANIFEST_FILE};

/// File name of the merged per-point JSONL output.
pub const MERGED_FILE: &str = "merged.jsonl";
/// File name of the human-oriented summary.
pub const SUMMARY_FILE: &str = "summary.json";
/// Manifest `kind` for simulation campaigns.
pub const CAMPAIGN_KIND: &str = "campaign";

/// Watchdog configuration: a shard is flagged when it runs longer than
/// `floor_ms + ns_per_slot × slots_hint × shard_replications / 10⁶` ms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Per-simulated-slot time budget, in nanoseconds.
    pub ns_per_slot: u64,
    /// Grace floor added to every shard's budget, in milliseconds.
    pub floor_ms: u64,
    /// Poll interval of the watchdog thread, in milliseconds.
    pub poll_ms: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            // Generous: the sparse engine runs orders of magnitude faster
            // than 250 µs/slot; a shard that exceeds this is truly stuck.
            ns_per_slot: 250_000,
            floor_ms: 10_000,
            poll_ms: 50,
        }
    }
}

impl WatchdogConfig {
    fn budget(&self, spec: &CampaignSpec, shard: &Shard) -> Duration {
        let work_ms = self
            .ns_per_slot
            .saturating_mul(spec.slots_hint)
            .saturating_mul(shard.len())
            / 1_000_000;
        Duration::from_millis(self.floor_ms.saturating_add(work_ms))
    }
}

/// Retry and watchdog knobs.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Total attempts per replication before its shard is quarantined.
    pub max_attempts: u32,
    /// First retry backoff; attempt `k` sleeps `backoff_base_ms · 2^(k-1)`.
    pub backoff_base_ms: u64,
    /// Watchdog configuration (`None` disables the thread).
    pub watchdog: Option<WatchdogConfig>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            max_attempts: 3,
            backoff_base_ms: 25,
            watchdog: Some(WatchdogConfig::default()),
        }
    }
}

/// Optional per-replication metrics beyond the [`McSummary`] seven,
/// extracted from each [`SimReport`] and checkpointed bit-exactly.
pub struct ExtraMetrics<'a> {
    /// Display names, one per extracted value.
    pub names: Vec<String>,
    /// Extractor; must return `names.len()` values.
    pub extract: &'a (dyn Fn(&SimReport) -> Vec<f64> + Sync),
}

/// A shard abandoned after every retry of a replication panicked.
#[derive(Clone, Debug, PartialEq)]
pub struct QuarantinedShard {
    /// Shard index (manifest record id).
    pub shard: usize,
    /// Grid-point index.
    pub point: usize,
    /// Seed of the replication that kept panicking — rerun the scenario
    /// with this seed to reproduce.
    pub seed: u64,
    /// The panic payload, if it was a string.
    pub message: String,
    /// Attempts spent before giving up.
    pub attempts: u32,
}

/// The merged result of a campaign.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// One summary per grid point, merged in replication order from the
    /// completed (non-quarantined) shards.
    pub summaries: Vec<McSummary>,
    /// Per point, per completed replication (in replication order), the
    /// [`ExtraMetrics`] values; empty inner vecs when no extras given.
    pub extras: Vec<Vec<Vec<f64>>>,
    /// `true` if any shard was quarantined: the campaign completed but
    /// some replications are missing from the merge.
    pub degraded: bool,
    /// Every quarantined shard, in shard order.
    pub quarantined: Vec<QuarantinedShard>,
    /// Shards executed by this invocation.
    pub executed_shards: usize,
    /// Shards reused from the checkpoint manifest.
    pub reused_shards: usize,
    /// Shards the watchdog flagged as exceeding their time budget.
    pub watchdog_flagged: Vec<usize>,
}

/// Why a campaign could not run to completion.
#[derive(Debug)]
pub enum CampaignError {
    /// The spec fails [`CampaignSpec::validate`].
    InvalidSpec(String),
    /// Manifest load/save failure (corruption, schema or spec mismatch).
    Manifest(ManifestError),
    /// `Fresh` mode found an existing manifest.
    AlreadyStarted(PathBuf),
    /// `Resume` mode found no manifest.
    NothingToResume(PathBuf),
    /// A manifest record contradicts the spec's sharding rule.
    ShardMismatch {
        /// The offending record id.
        id: String,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::InvalidSpec(m) => write!(f, "invalid campaign spec: {m}"),
            CampaignError::Manifest(e) => write!(f, "{e}"),
            CampaignError::AlreadyStarted(p) => {
                write!(f, "{}", ManifestError::AlreadyStarted(p.clone()))
            }
            CampaignError::NothingToResume(p) => {
                write!(f, "{}", ManifestError::NothingToResume(p.clone()))
            }
            CampaignError::ShardMismatch { id } => write!(
                f,
                "manifest record {id:?} does not match the spec's sharding rule"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<ManifestError> for CampaignError {
    fn from(e: ManifestError) -> Self {
        match e {
            ManifestError::AlreadyStarted(p) => CampaignError::AlreadyStarted(p),
            ManifestError::NothingToResume(p) => CampaignError::NothingToResume(p),
            e => CampaignError::Manifest(e),
        }
    }
}

/// The seven standard metrics of one replication, in
/// `run_replications_summarized` push order.
struct RepMetrics {
    delivery_ratio: f64,
    latency_and_epd: Option<(f64, f64)>,
    energy_mean_mj: f64,
    collisions: f64,
    duty_cycle: f64,
    energy_fairness: f64,
    extras: Vec<f64>,
}

impl RepMetrics {
    fn from_report(r: &SimReport, extras: Option<&ExtraMetrics>) -> Self {
        RepMetrics {
            delivery_ratio: r.delivery_ratio(),
            latency_and_epd: (r.delivered > 0)
                .then(|| (r.latency.mean(), r.energy_per_delivery_mj())),
            energy_mean_mj: r.energy.mean_mj(),
            collisions: r.collisions as f64,
            duty_cycle: r.mean_duty_cycle(),
            energy_fairness: r.energy.fairness_index(),
            extras: extras.map(|e| (e.extract)(r)).unwrap_or_default(),
        }
    }

    fn to_json(&self) -> Value {
        let b = f64_to_bits_json;
        let (lat, epd) = match self.latency_and_epd {
            Some((l, e)) => (b(l), b(e)),
            None => (Value::Null, Value::Null),
        };
        json!({
            "m": Value::Array(vec![
                b(self.delivery_ratio),
                lat,
                epd,
                b(self.energy_mean_mj),
                b(self.collisions),
                b(self.duty_cycle),
                b(self.energy_fairness),
            ]),
            "x": Value::Array(self.extras.iter().map(|&v| b(v)).collect()),
        })
    }

    fn from_json(v: &Value) -> Option<Self> {
        let m = v.get("m")?.as_array()?;
        if m.len() != 7 {
            return None;
        }
        let f = |i: usize| f64_from_bits_json(&m[i]);
        let latency_and_epd = match (&m[1], &m[2]) {
            (Value::Null, Value::Null) => None,
            (l, e) => Some((f64_from_bits_json(l)?, f64_from_bits_json(e)?)),
        };
        let extras = v
            .get("x")?
            .as_array()?
            .iter()
            .map(f64_from_bits_json)
            .collect::<Option<Vec<_>>>()?;
        Some(RepMetrics {
            delivery_ratio: f(0)?,
            latency_and_epd,
            energy_mean_mj: f(3)?,
            collisions: f(4)?,
            duty_cycle: f(5)?,
            energy_fairness: f(6)?,
            extras,
        })
    }

    /// Pushes this replication into `s` — the exact order
    /// `run_replications_summarized` uses, preserving Welford bit-identity.
    fn push_into(&self, s: &mut McSummary) {
        s.delivery_ratio.push(self.delivery_ratio);
        if let Some((latency, epd)) = self.latency_and_epd {
            s.latency_mean.push(latency);
            s.energy_per_delivery_mj.push(epd);
        }
        s.energy_mean_mj.push(self.energy_mean_mj);
        s.collisions.push(self.collisions);
        s.duty_cycle.push(self.duty_cycle);
        s.energy_fairness.push(self.energy_fairness);
    }
}

fn record_id(shard: usize) -> String {
    format!("s{shard}")
}

fn header_json(spec: &CampaignSpec) -> Value {
    json!({
        "campaign": spec.name.clone(),
        "points": spec.points.len() as u64,
        "reps": spec.reps,
        "base_seed": spec.base_seed,
        "shard_size": spec.shard_size,
        "slots_hint": spec.slots_hint,
    })
}

/// Runs (or resumes) a campaign.
///
/// `scenario(point, seed)` must be a pure function of its arguments —
/// that is what makes re-execution after a crash, a retry after a
/// transient panic, and any sharding all converge on the same bytes.
/// With `dir = None` the campaign runs purely in memory (no checkpoints);
/// shard records still round-trip through their manifest encoding so the
/// merge is byte-for-byte the same code path either way.
pub fn run_campaign<F>(
    spec: &CampaignSpec,
    dir: Option<&Path>,
    mode: ResumeMode,
    opts: &CampaignOptions,
    extras: Option<&ExtraMetrics>,
    scenario: F,
) -> Result<CampaignOutcome, CampaignError>
where
    F: Fn(usize, u64) -> SimReport + Sync,
{
    spec.validate().map_err(CampaignError::InvalidSpec)?;
    let shards = spec.shards();
    let (fp, header) = (spec.fingerprint(), header_json(spec));
    let job = Checkpoint::open(dir, MANIFEST_FILE, CAMPAIGN_KIND, fp, header, mode)?;
    for shard in &shards {
        if let Some(p) = job.manifest.get(&record_id(shard.index)) {
            validate_shard_payload(p, shard)?;
        }
    }
    let ids: Vec<String> = shards.iter().map(|s| record_id(s.index)).collect();

    // The watchdog: workers register shard start times; the thread flags
    // any in-flight shard past its budget.
    let watchdog = opts.watchdog.map(WatchdogHandle::spawn);
    let run = job.run(&ids, |i| {
        let shard = &shards[i];
        let _guard = watchdog
            .as_ref()
            .map(|w| w.watch(shard.index, w.cfg.budget(spec, shard)));
        run_shard(spec, shard, opts, extras, &scenario)
    });
    let flagged = match watchdog {
        Some(w) => w.finish(),
        None => Vec::new(),
    };
    let run = run?;

    let mut outcome = merge(spec, &shards, &run.payloads)?;
    outcome.executed_shards = shards.len() - run.reused;
    outcome.reused_shards = run.reused;
    outcome.watchdog_flagged = flagged;
    Ok(outcome)
}

/// Reads a campaign directory's manifest without a spec: completed /
/// quarantined counts for `ttdc campaign status`.
pub fn manifest_overview(dir: &Path) -> Result<(Manifest, usize, usize), CampaignError> {
    let m = Manifest::load(&dir.join(MANIFEST_FILE), CAMPAIGN_KIND, None)?;
    let total = {
        let points = m.header.get("points").and_then(Value::as_u64).unwrap_or(0);
        let reps = m.header.get("reps").and_then(Value::as_u64).unwrap_or(0);
        let shard = m
            .header
            .get("shard_size")
            .and_then(Value::as_u64)
            .unwrap_or(1)
            .max(1);
        (points * reps.div_ceil(shard)) as usize
    };
    let quarantined = m
        .records()
        .iter()
        .filter(|r| r.payload.get("status").and_then(Value::as_str) == Some("quarantined"))
        .count();
    Ok((m, total, quarantined))
}

fn validate_shard_payload(payload: &Value, shard: &Shard) -> Result<(), CampaignError> {
    let ok = payload.get("point").and_then(Value::as_u64) == Some(shard.point as u64)
        && payload.get("rep_lo").and_then(Value::as_u64) == Some(shard.rep_lo)
        && payload.get("rep_hi").and_then(Value::as_u64) == Some(shard.rep_hi);
    if ok {
        Ok(())
    } else {
        Err(CampaignError::ShardMismatch {
            id: record_id(shard.index),
        })
    }
}

/// Executes one shard: every replication under `catch_unwind`, bounded
/// exponential-backoff retries, quarantine on a persistent panic.
fn run_shard<F>(
    spec: &CampaignSpec,
    shard: &Shard,
    opts: &CampaignOptions,
    extras: Option<&ExtraMetrics>,
    scenario: &F,
) -> Value
where
    F: Fn(usize, u64) -> SimReport + Sync,
{
    let mut reps = Vec::with_capacity(shard.len() as usize);
    for rep in shard.rep_lo..shard.rep_hi {
        let seed = spec.base_seed + rep;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match catch_unwind(AssertUnwindSafe(|| scenario(shard.point, seed))) {
                Ok(report) => {
                    reps.push(RepMetrics::from_report(&report, extras).to_json());
                    break;
                }
                Err(panic) if attempt < opts.max_attempts => {
                    let backoff = opts.backoff_base_ms << (attempt - 1);
                    eprintln!(
                        "campaign: shard {} seed {seed} panicked ({}); retry {attempt}/{} \
                         in {backoff} ms",
                        shard.index,
                        panic_message(&panic),
                        opts.max_attempts - 1,
                    );
                    std::thread::sleep(Duration::from_millis(backoff));
                }
                Err(panic) => {
                    // Quarantine the whole shard: record the poisoned seed
                    // for repro and degrade gracefully.
                    eprintln!(
                        "campaign: shard {} quarantined after {attempt} attempts \
                         (seed {seed}: {})",
                        shard.index,
                        panic_message(&panic),
                    );
                    return json!({
                        "point": shard.point as u64,
                        "rep_lo": shard.rep_lo,
                        "rep_hi": shard.rep_hi,
                        "status": "quarantined",
                        "attempts": attempt,
                        "panic_seed": seed.to_string(),
                        "panic_msg": panic_message(&panic),
                    });
                }
            }
        }
    }
    json!({
        "point": shard.point as u64,
        "rep_lo": shard.rep_lo,
        "rep_hi": shard.rep_hi,
        "status": "ok",
        "attempts": 1u64,
        "reps": Value::Array(reps),
    })
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Folds shard payloads (all present, fresh or reloaded) into per-point
/// summaries in replication order.
fn merge(
    spec: &CampaignSpec,
    shards: &[Shard],
    payloads: &[Value],
) -> Result<CampaignOutcome, CampaignError> {
    let mut summaries = vec![McSummary::default(); spec.points.len()];
    let mut extras = vec![Vec::new(); spec.points.len()];
    let mut quarantined = Vec::new();
    for shard in shards {
        let payload = &payloads[shard.index];
        match payload.get("status").and_then(Value::as_str) {
            Some("ok") => {
                let reps = payload.get("reps").and_then(Value::as_array).ok_or(
                    CampaignError::ShardMismatch {
                        id: record_id(shard.index),
                    },
                )?;
                if reps.len() as u64 != shard.len() {
                    return Err(CampaignError::ShardMismatch {
                        id: record_id(shard.index),
                    });
                }
                for rep in reps {
                    let m = RepMetrics::from_json(rep).ok_or(CampaignError::ShardMismatch {
                        id: record_id(shard.index),
                    })?;
                    m.push_into(&mut summaries[shard.point]);
                    extras[shard.point].push(m.extras);
                }
            }
            Some("quarantined") => {
                quarantined.push(QuarantinedShard {
                    shard: shard.index,
                    point: shard.point,
                    seed: payload
                        .get("panic_seed")
                        .and_then(Value::as_str)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(0),
                    message: payload
                        .get("panic_msg")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    attempts: payload.get("attempts").and_then(Value::as_u64).unwrap_or(0) as u32,
                });
            }
            _ => {
                return Err(CampaignError::ShardMismatch {
                    id: record_id(shard.index),
                })
            }
        }
    }
    Ok(CampaignOutcome {
        summaries,
        extras,
        degraded: !quarantined.is_empty(),
        quarantined,
        executed_shards: 0,
        reused_shards: 0,
        watchdog_flagged: Vec::new(),
    })
}

impl CampaignOutcome {
    /// The merged per-point JSONL: one line per grid point plus a trailer
    /// with the degradation state. Deterministic given the spec and the
    /// scenario — byte-identical across any kill/resume/sharding history,
    /// which is what the resume tests and the CI smoke job diff.
    pub fn merged_jsonl(&self, spec: &CampaignSpec) -> String {
        let mut out = String::new();
        for (i, (point, summary)) in spec.points.iter().zip(&self.summaries).enumerate() {
            let params: Value = Value::Object(
                point
                    .params
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::String(v.clone())))
                    .collect(),
            );
            let line = json!({
                "schema_version": CAMPAIGN_SCHEMA_VERSION,
                "point": point.label.clone(),
                "index": i as u64,
                "params": params,
                "summary": summary.to_json(),
            });
            out.push_str(&serde_json::to_string(&line).expect("infallible"));
            out.push('\n');
        }
        let trailer = json!({
            "schema_version": CAMPAIGN_SCHEMA_VERSION,
            "degraded": self.degraded,
            "quarantined": Value::Array(
                self.quarantined
                    .iter()
                    .map(|q| {
                        json!({
                            "shard": q.shard as u64,
                            "point": q.point as u64,
                            "seed": q.seed.to_string(),
                            "message": q.message.clone(),
                            "attempts": q.attempts as u64,
                        })
                    })
                    .collect::<Vec<_>>(),
            ),
        });
        out.push_str(&serde_json::to_string(&trailer).expect("infallible"));
        out.push('\n');
        out
    }

    /// A pretty human-oriented summary document.
    pub fn summary_json(&self, spec: &CampaignSpec) -> String {
        let points: Vec<Value> = spec
            .points
            .iter()
            .zip(&self.summaries)
            .map(|(p, s)| {
                json!({
                    "point": p.label.clone(),
                    "delivery_ratio": s.delivery_ratio.mean(),
                    "latency_mean": s.latency_mean.mean(),
                    "energy_mean_mj": s.energy_mean_mj.mean(),
                    "replications": s.delivery_ratio.count(),
                })
            })
            .collect();
        let doc = json!({
            "schema_version": CAMPAIGN_SCHEMA_VERSION,
            "campaign": spec.name.clone(),
            "degraded": self.degraded,
            "quarantined_shards": self.quarantined.len() as u64,
            "points": Value::Array(points),
        });
        let mut s = serde_json::to_string_pretty(&doc).expect("infallible");
        s.push('\n');
        s
    }

    /// Writes [`MERGED_FILE`] and [`SUMMARY_FILE`] into `dir` atomically.
    pub fn write_outputs(&self, spec: &CampaignSpec, dir: &Path) -> std::io::Result<()> {
        ttdc_util::write_atomic(&dir.join(MERGED_FILE), self.merged_jsonl(spec).as_bytes())?;
        ttdc_util::write_atomic(&dir.join(SUMMARY_FILE), self.summary_json(spec).as_bytes())
    }
}

/// Watchdog bookkeeping shared between workers and the monitor thread.
struct WatchdogHandle {
    cfg: WatchdogConfig,
    inflight: Arc<Mutex<HashMap<usize, (Instant, Duration)>>>,
    flagged: Arc<Mutex<BTreeSet<usize>>>,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

/// Removes a shard from the in-flight table when its worker returns
/// (normally or by unwinding).
struct WatchGuard {
    inflight: Arc<Mutex<HashMap<usize, (Instant, Duration)>>>,
    shard: usize,
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        self.inflight
            .lock()
            .expect("watchdog lock")
            .remove(&self.shard);
    }
}

impl WatchdogHandle {
    fn spawn(cfg: WatchdogConfig) -> Self {
        let inflight: Arc<Mutex<HashMap<usize, (Instant, Duration)>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let flagged: Arc<Mutex<BTreeSet<usize>>> = Arc::new(Mutex::new(BTreeSet::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let inflight = Arc::clone(&inflight);
            let flagged = Arc::clone(&flagged);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    {
                        let table = inflight.lock().expect("watchdog lock");
                        let mut flags = flagged.lock().expect("watchdog lock");
                        for (&shard, &(start, budget)) in table.iter() {
                            if start.elapsed() > budget && flags.insert(shard) {
                                eprintln!(
                                    "campaign: watchdog — shard {shard} exceeded its \
                                     {}-ms budget and is still running",
                                    budget.as_millis()
                                );
                            }
                        }
                    }
                    // Parked rather than asleep, so `finish` can wake the
                    // thread at once instead of waiting out the interval.
                    std::thread::park_timeout(Duration::from_millis(cfg.poll_ms));
                }
            })
        };
        WatchdogHandle {
            cfg,
            inflight,
            flagged,
            stop,
            thread,
        }
    }

    fn watch(&self, shard: usize, budget: Duration) -> WatchGuard {
        self.inflight
            .lock()
            .expect("watchdog lock")
            .insert(shard, (Instant::now(), budget));
        WatchGuard {
            inflight: Arc::clone(&self.inflight),
            shard,
        }
    }

    fn finish(self) -> Vec<usize> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.thread().unpark();
        let _ = self.thread.join();
        let flags = self.flagged.lock().expect("watchdog lock");
        flags.iter().copied().collect()
    }
}
