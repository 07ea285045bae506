//! The repository benchmark: four closed-loop workloads (`design`,
//! `synth`, `sim_step`, `sim_skip`) over the `ttdc` crates, each with
//! checked outputs, end-to-end metrics and a traced per-layer breakdown.
//! See `perfbench/README.md` for what each workload stresses and why.

pub mod design;
pub mod sim_skip;
pub mod sim_step;
pub mod synth;
pub mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// The seed whose digests and counters are committed in `expected.json`.
pub const DEFAULT_SEED: u64 = 1;

/// Per-round layer counts, all exact (work counts, bytes, roster sizes).
pub type Counters = BTreeMap<String, f64>;

/// What one operation produced, for checking.
#[derive(Clone, Debug, Default)]
pub struct OpOut {
    /// Digest of everything the op output, compared across rounds and
    /// against the committed value.
    pub digest: u64,
    /// Exact counters this op contributes to its round.
    pub counters: Counters,
}

impl OpOut {
    pub fn count(&mut self, name: &str, v: f64) {
        *self.counters.entry(name.to_string()).or_insert(0.0) += v;
    }
}

/// One benchmark workload: a fixed multiset of op kinds run round after
/// round in a seeded order.
pub trait Workload {
    /// Op kind labels; `order()` indexes into them.
    fn kinds(&self) -> Vec<String>;
    /// The seeded order of kinds in one round.
    fn order(&self) -> Vec<usize>;
    /// `true` if every op's output is independent of the workload seed
    /// (the seed only reorders ops), so committed digests apply at any seed.
    fn seed_independent(&self) -> bool;
    /// Whether set-up ends with an untimed cold pass over every op kind.
    /// Off where one pass is too long to repeat several times.
    fn cold_pass(&self) -> bool {
        true
    }
    /// Fewest rounds of a timed run: enough that the dearest kind has more
    /// than ten samples, so `op_tail_ms` stays among its latencies even on
    /// a slow host.
    fn min_rounds(&self) -> usize {
        11
    }
    /// Untimed preparation before op `k` (clears its scratch directory).
    fn reset(&mut self, _k: usize) {}
    /// The end-to-end op, run through the program's user-facing path.
    fn run_op(&mut self, k: usize) -> Result<OpOut, String>;
    /// The same op driven through each layer's public functions inside
    /// spans; fails unless its result equals the end-to-end op's output.
    fn traced_op(&mut self, k: usize, t: &mut Tracer) -> Result<OpOut, String>;
    /// One-off layer measurements outside the ops (e.g. set-up layers),
    /// recorded as spans of op id 0 in `round`, plus their counters.
    fn traced_extras(&mut self, _t: &mut Tracer, _round: u64) -> Result<Counters, String> {
        Ok(Counters::new())
    }
}

/// Run configuration.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    pub out_dir: PathBuf,
    pub expected: Option<PathBuf>,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    pub stamp: serde_json::Value,
    /// Per-round counters of the traced run (empty when untraced).
    pub counters: Counters,
    /// First digest seen per op kind.
    pub digests: BTreeMap<String, u64>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Builds workload `name` for `seed`, with scratch space under `work`.
pub fn make_workload(name: &str, seed: u64, work: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "design" => Box::new(design::Design::new(seed, work)?),
        "synth" => Box::new(synth::Synth::new(seed, work)?),
        "sim_step" => Box::new(sim_step::SimStep::new(seed, work)?),
        "sim_skip" => Box::new(sim_skip::SimSkip::new(seed)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Committed digests and counters for [`DEFAULT_SEED`].
#[derive(Clone, Debug, Default)]
pub struct Expected {
    pub digests: BTreeMap<String, u64>,
    pub counters: Counters,
}

impl Expected {
    /// Reads workload `name`'s section of an `expected.json` document.
    pub fn load(path: &Path, name: &str) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let sec = doc
            .get(name)
            .ok_or_else(|| format!("{}: no section for {name}", path.display()))?;
        let mut e = Expected::default();
        if let Some(m) = sec.get("digests").and_then(|v| v.as_object()) {
            for (k, v) in m {
                let hex = v.as_str().ok_or("digest is not a string")?;
                let d = u64::from_str_radix(hex, 16).map_err(|e| format!("digest {k}: {e}"))?;
                e.digests.insert(k.clone(), d);
            }
        }
        if let Some(m) = sec.get("counters").and_then(|v| v.as_object()) {
            for (k, v) in m {
                e.counters
                    .insert(k.clone(), v.as_f64().ok_or("counter is not a number")?);
            }
        }
        Ok(e)
    }
}

/// Tallies attempted/failed ops and checks each op's output.
struct Checker {
    kinds: Vec<String>,
    expected: Option<Expected>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    digests: BTreeMap<String, u64>,
}

impl Checker {
    fn new(cfg: &Config, w: &dyn Workload) -> Checker {
        let expected = match &cfg.expected {
            Some(p) if w.seed_independent() || cfg.seed == DEFAULT_SEED => {
                match Expected::load(p, &cfg.workload) {
                    Ok(e) => Some(e),
                    Err(e) => {
                        let mut c = Checker::new_with(w, None);
                        c.fail(format!("committed values: {e}"));
                        return c;
                    }
                }
            }
            _ => None,
        };
        Checker::new_with(w, expected)
    }

    fn new_with(w: &dyn Workload, expected: Option<Expected>) -> Checker {
        Checker {
            kinds: w.kinds(),
            expected,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            digests: BTreeMap::new(),
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            eprintln!("perfbench: FAILED {msg}");
            self.failures.push(msg);
        }
    }

    /// Checks one op result: no error, the same digest every round, and
    /// the committed digest where one applies.
    fn check(&mut self, k: usize, r: &Result<OpOut, String>) {
        self.attempted += 1;
        let kind = self.kinds[k].clone();
        let out = match r {
            Err(e) => return self.fail(format!("{kind}: {e}")),
            Ok(o) => o,
        };
        match self.digests.get(&kind) {
            Some(&d) if d != out.digest => {
                return self.fail(format!(
                    "{kind}: digest {:016x} differs from the first round's {d:016x}",
                    out.digest
                ))
            }
            Some(_) => {}
            None => {
                self.digests.insert(kind.clone(), out.digest);
            }
        }
        if let Some(exp) = &self.expected {
            match exp.digests.get(&kind) {
                Some(&d) if d == out.digest => {}
                Some(&d) => self.fail(format!(
                    "{kind}: digest {:016x} != committed {d:016x}",
                    out.digest
                )),
                None => self.fail(format!("{kind}: no committed digest")),
            }
        }
    }

    /// Checks a round's counters against a reference round.
    fn check_counters(&mut self, what: &str, got: &Counters, want: &Counters) {
        self.attempted += 1;
        if got != want {
            let diff: Vec<String> = want
                .keys()
                .chain(got.keys())
                .filter(|k| got.get(*k) != want.get(*k))
                .map(|k| format!("{k}: {:?} vs {:?}", got.get(k), want.get(k)))
                .collect();
            self.fail(format!("{what}: counters differ ({})", diff.join(", ")));
        }
    }
}

/// Median of a non-empty slice.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest sample. Returns `(value, percentile, samples_beyond)`;
/// with fewer than eleven samples it degrades to the maximum.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let rank = n.saturating_sub(11);
    let beyond = n - 1 - rank;
    (s[rank], 100.0 * (rank + 1) as f64 / n as f64, beyond)
}

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs whole rounds of ops until `seconds` have passed and at least
/// `min_rounds` rounds (and one) are done, timing each op. Returns the
/// latencies (seconds), the kinds, the rounds and the wall time.
fn closed_loop(
    w: &mut dyn Workload,
    checker: &mut Checker,
    seconds: f64,
    min_rounds: usize,
    mut traced: Option<&mut Tracer>,
    mut round_counters: Option<&mut Vec<Counters>>,
) -> (Vec<f64>, Vec<usize>, usize, f64) {
    let order = w.order();
    let mut lat = Vec::new();
    let mut kinds = Vec::new();
    let mut rounds = 0usize;
    let mut op_id = 1u64;
    let start = Instant::now();
    loop {
        let mut counters = Counters::new();
        for &k in &order {
            w.reset(k);
            let t0 = Instant::now();
            let r = match traced.as_deref_mut() {
                Some(t) => {
                    t.begin_op(op_id, rounds as u64);
                    w.traced_op(k, t)
                }
                None => w.run_op(k),
            };
            let el = t0.elapsed().as_secs_f64();
            op_id += 1;
            lat.push(el);
            kinds.push(k);
            if let Ok(o) = &r {
                for (name, v) in &o.counters {
                    *counters.entry(name.clone()).or_insert(0.0) += v;
                }
            }
            checker.check(k, &r);
        }
        rounds += 1;
        if let Some(rc) = round_counters.as_deref_mut() {
            rc.push(counters);
        }
        if rounds >= min_rounds && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    (lat, kinds, rounds, start.elapsed().as_secs_f64())
}

/// Adds the workload's one-off layer measurements for `round` to `c`.
fn extras(
    w: &mut dyn Workload,
    t: &mut Tracer,
    round: u64,
    c: &mut Counters,
    checker: &mut Checker,
) {
    t.begin_op(0, round);
    checker.attempted += 1;
    match w.traced_extras(t, round) {
        Ok(extra) => {
            for (k, v) in extra {
                *c.entry(k).or_insert(0.0) += v;
            }
        }
        Err(e) => checker.fail(format!("layer extras: {e}")),
    }
}

/// Runs one benchmark process's worth of work for `cfg`.
pub fn run(cfg: &Config) -> Result<RunResult, String> {
    let work = cfg
        .out_dir
        .join(format!("work-{}-{}", cfg.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(cfg.threads)
        .build()
        .map_err(|e| e.to_string())?;
    let result = pool.install(|| run_in_pool(cfg, &work));
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in_pool(cfg: &Config, work: &Path) -> Result<RunResult, String> {
    // Set-up: construction plus, where the workload allows, one untimed
    // cold pass over every op kind (first-touch costs: lazy tables, page
    // faults, file metadata).
    // Repeated so its median is steady; the last instance is kept.
    let mut setup_times = Vec::new();
    let mut w: Option<Box<dyn Workload>> = None;
    let mut checker: Option<Checker> = None;
    let setup_start = Instant::now();
    while setup_times.len() < 3
        || (setup_times.len() < 50 && setup_start.elapsed().as_secs_f64() < 1.0)
    {
        drop(w.take());
        let t0 = Instant::now();
        let mut fresh = make_workload(&cfg.workload, cfg.seed, work)?;
        let c = checker.get_or_insert_with(|| Checker::new(cfg, fresh.as_ref()));
        let cold: Vec<usize> = if fresh.cold_pass() {
            fresh.order()
        } else {
            Vec::new()
        };
        for k in cold {
            fresh.reset(k);
            let r = fresh.run_op(k);
            c.check(k, &r);
        }
        setup_times.push(t0.elapsed().as_secs_f64());
        w = Some(fresh);
    }
    let mut w = w.expect("set up at least once");
    let mut checker = checker.expect("set up at least once");
    let kinds = w.kinds();
    let expected = checker.expected.clone();

    let e2e_seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let min_rounds = w.min_rounds();
    let (lat, op_kinds, rounds, wall) =
        closed_loop(w.as_mut(), &mut checker, e2e_seconds, min_rounds, None, None);
    let untraced_p50 = median(&lat);

    let mut stamp = serde_json::json!({
        "workload": cfg.workload.clone(),
        "seed": cfg.seed,
        "available_parallelism": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "rayon_pool_threads": rayon::current_num_threads(),
        "build_profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "loop": "closed, one client",
        "setup_samples": setup_times.len(),
        "rounds": rounds,
        "ops_per_round": w.order().len(),
        "op_samples": lat.len(),
    });
    let mut metrics = Vec::new();
    let mut counters = Counters::new();
    if !cfg.trace {
        let (tail_v, tail_pct, beyond) = tail(&lat);
        metrics.push(("setup_s".to_string(), median(&setup_times), "s"));
        metrics.push(("ops_per_s".to_string(), lat.len() as f64 / wall, "1/s"));
        metrics.push(("op_p50_ms".to_string(), untraced_p50 * 1e3, "ms"));
        metrics.push(("op_tail_ms".to_string(), tail_v * 1e3, "ms"));
        metrics.push(("peak_rss_mb".to_string(), peak_rss_mb(), "MB"));
        let mut per_kind = BTreeMap::new();
        for (k, name) in kinds.iter().enumerate() {
            let v: Vec<f64> = lat
                .iter()
                .zip(&op_kinds)
                .filter(|(_, &kk)| kk == k)
                .map(|(l, _)| l * 1e3)
                .collect();
            per_kind.insert(name.clone(), serde_json::Value::from(median(&v)));
        }
        if let serde_json::Value::Object(m) = &mut stamp {
            m.insert("op_tail_percentile".into(), tail_pct.into());
            m.insert("op_tail_samples_beyond".into(), beyond.into());
            m.insert("op_p50_samples".into(), lat.len().into());
            m.insert("wall_s".into(), wall.into());
            m.insert("kind_p50_ms".into(), serde_json::Value::Object(per_kind));
        }
    } else {
        let mut tracer = Tracer::default();
        let mut rc = Vec::new();
        let (tlat, _, trounds, _) = closed_loop(
            w.as_mut(),
            &mut checker,
            cfg.seconds / 2.0,
            1,
            Some(&mut tracer),
            Some(&mut rc),
        );
        // Layer work outside the ops, once per traced round.
        for (round, c) in rc.iter_mut().enumerate() {
            extras(w.as_mut(), &mut tracer, round as u64, c, &mut checker);
        }
        for (i, c) in rc.iter().enumerate().skip(1) {
            checker.check_counters(&format!("traced round {i} vs round 0"), c, &rc[0]);
        }
        counters = rc[0].clone();
        if let Some(exp) = &expected {
            checker.check_counters("committed counters", &counters, &exp.counters);
        }
        // The exact counters must not depend on the pool size.
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .map_err(|e| e.to_string())?;
        let c1 = one.install(|| {
            let mut scratch = Tracer::default();
            let mut rc1 = Vec::new();
            closed_loop(
                w.as_mut(),
                &mut checker,
                0.0,
                1,
                Some(&mut scratch),
                Some(&mut rc1),
            );
            extras(w.as_mut(), &mut scratch, 0, &mut rc1[0], &mut checker);
            rc1.swap_remove(0)
        });
        checker.check_counters("1-thread pool vs 2-thread pool", &c1, &counters);

        let traced_p50 = median(&tlat);
        metrics = layer_metrics(&tracer, trounds, &counters);
        metrics.push((
            "trace.overhead_ms".to_string(),
            (traced_p50 - untraced_p50) * 1e3,
            "ms",
        ));
        metrics.push((
            "trace.spans".to_string(),
            tracer.spans().len() as f64,
            "count",
        ));
        if let serde_json::Value::Object(m) = &mut stamp {
            m.insert("traced_rounds".into(), trounds.into());
            m.insert("traced_op_samples".into(), tlat.len().into());
            m.insert("untraced_op_p50_ms".into(), (untraced_p50 * 1e3).into());
            m.insert("traced_op_p50_ms".into(), (traced_p50 * 1e3).into());
            m.insert(
                "layer_time_statistic".into(),
                "median over traced rounds of the per-round self-time sum".into(),
            );
        }
        let path = cfg.out_dir.join(format!(
            "spans-{}-seed{}-{}.json",
            cfg.workload,
            cfg.seed,
            std::process::id()
        ));
        tracer
            .write_json(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if let serde_json::Value::Object(m) = &mut stamp {
            m.insert("spans_file".into(), path.display().to_string().into());
        }
    }
    if let serde_json::Value::Object(m) = &mut stamp {
        let error_rate = checker.failed as f64 / checker.attempted.max(1) as f64;
        m.insert("error_rate".into(), error_rate.into());
        m.insert("setup_s_samples".into(), setup_times.clone().into());
    }
    Ok(RunResult {
        attempted: checker.attempted,
        failed: checker.failed,
        failures: checker.failures,
        metrics,
        stamp,
        counters,
        digests: checker.digests,
    })
}

/// Per-layer time metrics: `(metric, span names whose self time it sums)`.
const LAYER_TIMES: &[(&str, &[&str])] = &[
    ("cli.parse_s", &["cli.parse"]),
    ("core.construct_s", &["core.construct"]),
    ("core.catalog_s", &["core.catalog"]),
    ("core.io_s", &["core.io"]),
    ("core.requirements.req3_s", &["core.requirements.req3"]),
    ("core.throughput_s", &["core.throughput"]),
    ("core.latency_s", &["core.latency"]),
    ("core.synth.space_s", &["core.synth.space"]),
    ("core.synth.search_s", &["core.synth.search"]),
    ("core.synth.polish_s", &["core.synth.polish"]),
    ("protocols.mac_build_s", &["protocols.mac_build"]),
    ("sim.topology_s", &["sim.topology"]),
    ("sim.plan_fill_s", &["sim.plan_fill"]),
    ("sim.report_s", &["sim.report"]),
    ("sim.campaign.watchdog_op_s", &["sim.campaign.watchdog_op"]),
];

/// Simulator families, in metric order.
pub const FAMILIES: [&str; 8] = [
    "clean",
    "per",
    "burst",
    "crash",
    "drift",
    "cbr",
    "cbr_battery",
    "cbr_per",
];

/// Span name of the engine run for `family`.
pub fn engine_span(family: &str) -> &'static str {
    match family {
        "clean" => "sim.engine.clean",
        "per" => "sim.engine.per",
        "burst" => "sim.engine.burst",
        "crash" => "sim.engine.crash",
        "drift" => "sim.engine.drift",
        "cbr" => "sim.engine.cbr",
        "cbr_battery" => "sim.engine.cbr_battery",
        "cbr_per" => "sim.engine.cbr_per",
        other => panic!("unknown family {other}"),
    }
}

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for (name, _) in LAYER_TIMES {
        v.push((name.to_string(), "s"));
    }
    for (name, unit) in [
        ("core.io.bytes", "bytes"),
        ("core.requirements.configs", "count"),
        ("core.requirements.configs_per_s", "1/s"),
        ("core.synth.demands", "count"),
        ("core.synth.candidates", "count"),
        ("core.synth.nodes", "count"),
        ("core.synth.pruned", "count"),
        ("core.synth.prune_ratio", "ratio"),
        ("core.synth.nodes_per_s", "1/s"),
        ("core.synth.exact_points", "count"),
        ("protocols.frame_slots", "count"),
        ("sim.topology.retries", "count"),
        ("sim.plan.roster_entries", "count"),
        ("sim.slots", "count"),
        ("sim.generated", "count"),
        ("sim.delivered", "count"),
        ("sim.collisions", "count"),
        ("sim.link_drops", "count"),
        ("sim.campaign.wall_s", "s"),
        ("sim.campaign.scenario_busy_s", "s"),
        ("sim.campaign.shards", "count"),
        ("sim.campaign.manifest_bytes", "bytes"),
    ] {
        v.push((name.to_string(), unit));
    }
    for f in FAMILIES {
        v.push((format!("sim.engine.run_s.{f}"), "s"));
        v.push((format!("sim.engine.ns_per_slot.{f}"), "ns"));
    }
    v.push(("trace.overhead_ms".to_string(), "ms"));
    v.push(("trace.spans".to_string(), "count"));
    v
}

/// Derives every per-layer metric from the spans and one round's counters.
/// Layer times are the median over traced rounds of the per-round sum of
/// the layer's span self times; a layer the workload never enters reads 0.
fn layer_metrics(t: &Tracer, rounds: usize, c: &Counters) -> Vec<(String, f64, &'static str)> {
    let by_round = t.self_seconds_by_round();
    let per_round = |spans: &[&str]| -> f64 {
        let v: Vec<f64> = (0..rounds as u64)
            .map(|r| {
                spans
                    .iter()
                    .map(|s| by_round.get(&(r, *s)).copied().unwrap_or(0.0))
                    .sum()
            })
            .collect();
        median(&v)
    };
    let total_per_round = |span: &str| -> f64 {
        let v: Vec<f64> = (0..rounds as u64)
            .map(|r| t.total_seconds(r, span))
            .collect();
        median(&v)
    };
    let count = |k: &str| c.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    for (name, spans) in LAYER_TIMES {
        m.insert(name.to_string(), per_round(spans));
    }
    // The campaign layer is reported inclusive of the scenario it runs.
    m.insert(
        "sim.campaign.wall_s".into(),
        total_per_round("sim.campaign"),
    );
    m.insert(
        "sim.campaign.scenario_busy_s".into(),
        total_per_round("sim.scenario"),
    );
    let req3 = m["core.requirements.req3_s"];
    m.insert(
        "core.requirements.configs_per_s".into(),
        ratio(count("core.requirements.configs"), req3),
    );
    let search = m["core.synth.search_s"];
    m.insert(
        "core.synth.nodes_per_s".into(),
        ratio(count("core.synth.nodes"), search),
    );
    m.insert(
        "core.synth.prune_ratio".into(),
        ratio(
            count("core.synth.pruned"),
            count("core.synth.nodes") + count("core.synth.pruned"),
        ),
    );
    for f in FAMILIES {
        let run_s = per_round(&[engine_span(f)]);
        m.insert(format!("sim.engine.run_s.{f}"), run_s);
        m.insert(
            format!("sim.engine.ns_per_slot.{f}"),
            ratio(run_s * 1e9, count(&format!("sim.slots.{f}"))),
        );
    }
    per_layer_names()
        .into_iter()
        .filter(|(name, _)| !name.starts_with("trace."))
        .map(|(name, unit)| {
            let v = m.get(&name).copied().unwrap_or_else(|| count(&name));
            (name, v, unit)
        })
        .collect()
}

/// The final result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(r: &RunResult) -> String {
    let mut metrics = BTreeMap::new();
    for (name, value, unit) in &r.metrics {
        metrics.insert(
            name.clone(),
            serde_json::json!({ "value": *value, "unit": *unit }),
        );
    }
    let doc = serde_json::json!({
        "correct": r.correct(),
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": serde_json::Value::Object(metrics),
    });
    serde_json::to_string(&doc).expect("infallible")
}

/// FNV-1a over `parts`, separated so boundaries count.
pub fn digest(parts: &[&[u8]]) -> u64 {
    let mut buf = Vec::new();
    for p in parts {
        buf.extend_from_slice(p);
        buf.push(0xff);
    }
    ttdc_util::fnv1a64(&buf)
}

/// Deterministic 64-bit mix of a seed and a salt (SplitMix64 finaliser).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One round in a seeded order: kind `k` appears `copies[k]` times.
///
/// Giving the kind that `op_p50_ms` falls on several copies multiplies the
/// samples behind that median at little cost; with as many kinds dearer as
/// cheaper than it, the median stays in the middle of its samples.
pub fn seeded_round(copies: &[usize], seed: u64) -> Vec<usize> {
    let ops: Vec<usize> = copies
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| std::iter::repeat(k).take(c))
        .collect();
    seeded_order(ops.len(), seed)
        .into_iter()
        .map(|i| ops[i])
        .collect()
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn seeded_order(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}
