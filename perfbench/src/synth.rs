//! `synth`: one op is one `ttdc synth campaign --budget K` into a fresh
//! directory and a fresh (empty) catalog, run in-process.
//!
//! Per-branch node budgets make the node and prune counts independent of
//! the thread count, so they are gated exactly. The traced op repeats the
//! campaign through `ttdc_core::synth`'s public pieces (`DemandSpace`,
//! `CandidateSpace`, `plan_root`, `search_root_branch`, `polish`, the
//! catalog) and must land on the identical winner.

use crate::trace::Tracer;
use crate::{digest, seeded_round, OpOut, Workload};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicUsize;
use ttdc_core::requirements::requirement3_violation_naive;
use ttdc_core::synth::demands::{CandidateSpace, DemandSpace};
use ttdc_core::synth::search::{plan_root, search_root_branch, CoverSolution, SearchOptions};
use ttdc_core::synth::{catalog, polish, SynthProblem, VerifyCache};
use ttdc_core::{build_duty_cycled, io as sched_io, PartitionStrategy};
use ttdc_sim::campaign::Manifest;

/// `(n, D, α_T, α_R)`: four points solved exactly, two budget-limited
/// α_T = 2 points that get polished, one budget-limited α_T = 1 point.
/// The two budget-limited α_T = 2 and α_T = 1 points cost about the same;
/// with seven kinds the median op falls on (5,2,2,2), whose neighbours in
/// cost are at least twice as cheap or dear, so `op_p50_ms` is the median
/// of one kind rather than a quantile of two overlapping ones.
pub const POINTS: [(usize, usize, usize, usize); 7] = [
    (5, 1, 2, 2),
    (5, 2, 1, 2),
    (5, 2, 2, 2),
    (6, 2, 1, 3),
    (6, 1, 2, 2),
    (7, 1, 2, 2),
    (8, 1, 1, 2),
];

/// Ops per round of each point: three of the median kind, (5,2,2,2), so
/// that `op_p50_ms` is the median of three times as many samples.
pub const MEDIAN_COPIES: [usize; 7] = [1, 1, 3, 1, 1, 1, 1];

/// Per-root-branch node budget.
pub const BUDGET: u64 = 20_000;
/// The CLI's default polish iterations and seed.
const POLISH_ITERS: u64 = 200;
const POLISH_SEED: u64 = 0x5EED;

pub struct Synth {
    order: Vec<usize>,
    work: PathBuf,
}

/// The facts an op's winner is checked on.
struct Winner {
    len: usize,
    fingerprint: u64,
    exact: bool,
    nodes: u64,
    pruned: u64,
    text: String,
}

impl Winner {
    fn out(&self, demands: Option<(usize, usize)>) -> OpOut {
        let mut o = OpOut {
            digest: digest(&[
                format!(
                    "L={} fp={:016x} exact={} nodes={} pruned={}",
                    self.len, self.fingerprint, self.exact, self.nodes, self.pruned
                )
                .as_bytes(),
                self.text.as_bytes(),
            ]),
            ..OpOut::default()
        };
        o.count("core.synth.nodes", self.nodes as f64);
        o.count("core.synth.pruned", self.pruned as f64);
        o.count(
            "core.synth.exact_points",
            if self.exact { 1.0 } else { 0.0 },
        );
        if let Some((demands, candidates)) = demands {
            o.count("core.synth.demands", demands as f64);
            o.count("core.synth.candidates", candidates as f64);
        }
        o
    }
}

impl Synth {
    pub fn new(seed: u64, work: &Path) -> Result<Synth, String> {
        let work = work.join("synth");
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        Ok(Synth {
            order: seeded_round(&MEDIAN_COPIES, seed),
            work,
        })
    }

    fn dirs(&self) -> (PathBuf, PathBuf) {
        (self.work.join("catalog"), self.work.join("campaign"))
    }

    fn argv(&self, k: usize) -> Vec<String> {
        let (n, d, at, ar) = POINTS[k];
        let (cat, dir) = self.dirs();
        [
            "synth".to_string(),
            "campaign".into(),
            "--nodes".into(),
            n.to_string(),
            "--degree".into(),
            d.to_string(),
            "--alpha-t".into(),
            at.to_string(),
            "--alpha-r".into(),
            ar.to_string(),
            "--catalog".into(),
            cat.display().to_string(),
            "--budget".into(),
            BUDGET.to_string(),
            dir.display().to_string(),
        ]
        .to_vec()
    }
}

/// Reads `word` preceded by a number in `s` ("… 123 nodes expanded").
fn number_before(s: &str, word: &str) -> Option<u64> {
    let i = s.find(word)?;
    s[..i].split_whitespace().last()?.parse().ok()
}

/// Checks a winner with the naive Requirement-3 oracle.
fn oracle(p: &SynthProblem, text: &str) -> Result<(), String> {
    let s = sched_io::from_text(text).map_err(|e| e.to_string())?;
    if s.num_nodes() != p.n || !s.is_alpha_schedule(p.alpha_t, p.alpha_r) {
        return Err("winner has the wrong shape".into());
    }
    match requirement3_violation_naive(&s, p.d) {
        None => Ok(()),
        Some(v) => Err(format!("winner fails Requirement 3 (naive): {v:?}")),
    }
}

impl Workload for Synth {
    fn kinds(&self) -> Vec<String> {
        POINTS
            .iter()
            .map(|(n, d, at, ar)| format!("n{n}_d{d}_at{at}_ar{ar}"))
            .collect()
    }

    fn order(&self) -> Vec<usize> {
        self.order.clone()
    }

    fn seed_independent(&self) -> bool {
        true
    }

    fn reset(&mut self, _k: usize) {
        let (cat, dir) = self.dirs();
        let _ = std::fs::remove_dir_all(cat);
        let _ = std::fs::remove_dir_all(dir);
    }

    fn run_op(&mut self, k: usize) -> Result<OpOut, String> {
        let (n, d, at, ar) = POINTS[k];
        let p = SynthProblem::new(n, d, at, ar);
        let mut out = Vec::new();
        let mut err = Vec::new();
        let code = ttdc_cli::run_with_streams(self.argv(k), &mut out, &mut err);
        let out = String::from_utf8_lossy(&out);
        if code != 0 {
            return Err(format!(
                "`ttdc synth campaign` exited {code}: {}",
                String::from_utf8_lossy(&err).trim()
            ));
        }
        let (cat, _) = self.dirs();
        let entry = catalog::load_entry(&cat, &p)?.ok_or("campaign wrote no catalog entry")?;
        let line = out
            .lines()
            .find(|l| l.contains("nodes expanded"))
            .ok_or("no campaign summary line")?;
        let w = Winner {
            len: entry.schedule.frame_length(),
            fingerprint: entry.fingerprint,
            exact: entry.exact,
            nodes: entry.nodes,
            pruned: number_before(line, "pruned").ok_or("no prune count")?,
            text: sched_io::to_text(&entry.schedule),
        };
        if number_before(line, "nodes expanded") != Some(w.nodes) {
            return Err("summary node count differs from the catalog entry".into());
        }
        oracle(&p, &w.text)?;
        Ok(w.out(None))
    }

    fn traced_op(&mut self, k: usize, t: &mut Tracer) -> Result<OpOut, String> {
        let (n, d, at, ar) = POINTS[k];
        let p = SynthProblem::new(n, d, at, ar);
        let argv = self.argv(k);
        let (cat, dir) = self.dirs();
        let (w, sizes) = t.span("synth.op", |t| -> Result<_, String> {
            t.span("cli.parse", |_| ttdc_cli::parse(argv))
                .map_err(|e| e.to_string())?;
            let existing = t.span("core.catalog", |_| catalog::load_entry(&cat, &p))?;
            let (space, cands) = t.span("core.synth.space", |_| {
                let space = DemandSpace::new(n, d);
                let cands = CandidateSpace::new(&space, at, ar);
                (space, cands)
            });
            let opts = SearchOptions {
                max_nodes: Some(BUDGET),
                incumbent_len: existing.as_ref().map(|e| e.schedule.frame_length()),
                ..SearchOptions::default()
            };
            // The campaign's per-branch checkpoint, in the same manifest
            // format, so the decomposed op does the same I/O.
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            let mut manifest = Manifest::new(
                "synth-campaign",
                0,
                serde_json::json!({ "n": n, "degree": d, "alpha_t": at, "alpha_r": ar }),
            );
            let manifest_path = dir.join("manifest.jsonl");
            let (best, nodes, pruned, exact) = t.span("core.synth.search", |t| {
                let plan = plan_root(&space, &cands, &opts);
                let mut best = plan.greedy.clone();
                let (mut nodes, mut pruned, mut budget_hit) = (0, 0, false);
                for index in 0..plan.branch_cands.len() {
                    let shared = AtomicUsize::new(plan.seed_len);
                    let r = search_root_branch(&space, &cands, &opts, &plan, index, &shared);
                    t.span("synth.checkpoint", |_| {
                        let best = r.best.as_ref().map_or(serde_json::Value::Null, |b| {
                            serde_json::Value::Array(
                                b.slots
                                    .iter()
                                    .map(|&c| serde_json::Value::from(c))
                                    .collect(),
                            )
                        });
                        manifest.put(
                            format!("b{index}"),
                            serde_json::json!({
                                "best": best,
                                "nodes": r.nodes,
                                "pruned": r.pruned,
                                "exhausted": r.exhausted,
                            }),
                        );
                        manifest.save(&manifest_path).map_err(|e| e.to_string())
                    })?;
                    nodes += r.nodes;
                    pruned += r.pruned;
                    budget_hit |= r.exhausted;
                    if let Some(b) = r.best {
                        if b.better_than(&best) {
                            best = b;
                        }
                    }
                }
                Ok::<_, String>((best, nodes, pruned, !budget_hit))
            })?;
            let mut sol: CoverSolution = best;
            if !exact {
                let polished = t.span("core.synth.polish", |_| {
                    polish(&space, &cands, &sol, POLISH_SEED, POLISH_ITERS)
                });
                if polished.slots.len() < sol.slots.len() {
                    sol = polished;
                }
            }
            let schedule = cands.schedule(n, &sol.slots);
            let fig2 = t.span("core.construct", |_| {
                build_duty_cycled(n, d, at, ar, PartitionStrategy::RoundRobin)
                    .schedule
                    .frame_length()
            });
            if schedule.frame_length() > fig2 {
                return Err("winner is longer than Figure 2".into());
            }
            let fingerprint = schedule.canonical_fingerprint();
            let entry = catalog::CatalogEntry {
                problem: p,
                fingerprint,
                schedule,
                exact,
                nodes,
                source: "campaign".into(),
                config: Some(opts.config_string()),
            };
            t.span("core.catalog", |_| {
                catalog::validate_entry(&entry, &mut VerifyCache::new())
            })?;
            let text = t.span("core.io", |_| {
                catalog::write_entry(&cat, &entry).map_err(|e| e.to_string())?;
                Ok::<_, String>(sched_io::to_text(&entry.schedule))
            })?;
            let w = Winner {
                len: entry.schedule.frame_length(),
                fingerprint,
                exact,
                nodes,
                pruned,
                text,
            };
            Ok((w, (space.len(), cands.cands.len())))
        })?;
        oracle(&p, &w.text)?;
        Ok(w.out(Some(sizes)))
    }
}
