//! Kill-resumable synthesis campaigns for one parameter point.
//!
//! Each root branch of [`plan_root`] is one unit of a checkpointed job
//! ([`ttdc_util::checkpoint`], kind `synth-campaign`, record `b{i}`),
//! searched under its own node budget against a *fresh* incumbent, so its
//! result depends on neither execution order, thread count nor kill
//! history. The ordered `(len, lex)` reduce over the branch records and
//! the polish of a budget-limited winner then give the catalog entry of an
//! uninterrupted run.

use super::catalog::CatalogEntry;
use super::demands::{CandidateSpace, DemandSpace};
use super::search::{
    plan_root, search_root_branch, BranchResult, CoverSolution, RootPlan, SearchOptions,
};
use super::{polish, SynthOptions, SynthProblem};
use serde_json::{json, Value};
use std::path::Path;
use std::sync::atomic::AtomicUsize;
use ttdc_util::checkpoint::{Checkpoint, ManifestError, ResumeMode, MANIFEST_FILE};

/// Manifest `kind` for synthesis campaigns.
pub const KIND: &str = "synth-campaign";

/// A planned campaign: the point, its search spaces and the root fan-out.
pub struct SynthCampaign {
    /// The parameter point.
    pub problem: SynthProblem,
    /// Per-root-branch node budget.
    pub budget: u64,
    /// Search options every branch runs with.
    pub opts: SearchOptions,
    /// The root fan-out; one unit per branch candidate.
    pub plan: RootPlan,
    space: DemandSpace,
    cands: CandidateSpace,
}

/// What a finished campaign produced.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// The winner as a catalog entry (source `campaign` or
    /// `campaign+polish`); not yet admitted to any catalog.
    pub entry: CatalogEntry,
    /// Subtrees cut, summed over every branch.
    pub pruned: u64,
    /// Whether the polish shortened a budget-limited winner.
    pub polish_improved: bool,
    /// Branches reused from the manifest (the rest ran now).
    pub reused: usize,
}

impl SynthCampaign {
    /// Plans the campaign for `p` with a per-branch node `budget`, seeding
    /// the incumbent with `incumbent_len` (a catalog entry's length).
    pub fn new(p: &SynthProblem, budget: u64, incumbent_len: Option<usize>) -> SynthCampaign {
        let space = DemandSpace::new(p.n, p.d);
        let cands = CandidateSpace::new(&space, p.alpha_t, p.alpha_r);
        let opts = SearchOptions {
            max_nodes: Some(budget),
            incumbent_len,
            ..SearchOptions::default()
        };
        let plan = plan_root(&space, &cands, &opts);
        SynthCampaign {
            problem: *p,
            budget,
            opts,
            plan,
            space,
            cands,
        }
    }

    /// Binds everything that shapes a branch result; a manifest from other
    /// parameters, budget, seed or search config is never resumed into.
    pub fn fingerprint(&self) -> u64 {
        let p = &self.problem;
        ttdc_util::fnv1a64(
            format!(
                "synth-campaign n={} d={} at={} ar={} budget={} seed_len={} branches={} {}",
                p.n,
                p.d,
                p.alpha_t,
                p.alpha_r,
                self.budget,
                self.plan.seed_len,
                self.plan.branch_cands.len(),
                self.opts.config_string(),
            )
            .as_bytes(),
        )
    }

    /// Runs (or resumes, when `dir` holds this campaign's manifest) every
    /// root branch, then reduces the branch records in branch order and
    /// polishes a budget-limited winner for `polish_iters` iterations.
    /// `dir = None` runs in memory.
    pub fn run(
        &self,
        dir: Option<&Path>,
        polish_iters: u64,
    ) -> Result<CampaignOutcome, ManifestError> {
        let p = &self.problem;
        let header = json!({
            "n": p.n, "degree": p.d, "alpha_t": p.alpha_t, "alpha_r": p.alpha_r,
            "budget": self.budget, "seed_len": self.plan.seed_len,
            "config": self.opts.config_string(),
        });
        let fp = self.fingerprint();
        let job = Checkpoint::open(dir, MANIFEST_FILE, KIND, fp, header, ResumeMode::Auto)?;
        let ids: Vec<String> = (0..self.plan.branch_cands.len())
            .map(|i| format!("b{i}"))
            .collect();
        let run = job.run(&ids, |i| {
            let shared = AtomicUsize::new(self.plan.seed_len);
            let r =
                search_root_branch(&self.space, &self.cands, &self.opts, &self.plan, i, &shared);
            branch_to_json(&r)
        })?;

        // The same ordered reduce as `minimum_cover`: start from the greedy
        // seed and adopt any branch best that wins under (len, lex).
        let mut best = self.plan.greedy.clone();
        let (mut nodes, mut pruned, mut budget_hit) = (0u64, 0u64, false);
        for (id, payload) in ids.iter().zip(&run.payloads) {
            let r = branch_from_json(payload).map_err(|why| ManifestError::BadRecord {
                id: id.clone(),
                why,
            })?;
            nodes += r.nodes;
            pruned += r.pruned;
            budget_hit |= r.exhausted;
            if let Some(b) = r.best.filter(|b| b.better_than(&best)) {
                best = b;
            }
        }
        let exact = !budget_hit;
        let mut polish_improved = false;
        if !exact && polish_iters > 0 {
            let seed = SynthOptions::default().seed;
            let polished = polish(&self.space, &self.cands, &best, seed, polish_iters);
            if polished.slots.len() < best.slots.len() {
                best = polished;
                polish_improved = true;
            }
        }
        let schedule = self.cands.schedule(p.n, &best.slots);
        Ok(CampaignOutcome {
            entry: CatalogEntry {
                problem: *p,
                fingerprint: schedule.canonical_fingerprint(),
                schedule,
                exact,
                nodes,
                source: format!("campaign{}", if polish_improved { "+polish" } else { "" }),
                config: Some(self.opts.config_string()),
            },
            pruned,
            polish_improved,
            reused: run.reused,
        })
    }
}

fn branch_to_json(r: &BranchResult) -> Value {
    let best = r.best.as_ref().map_or(Value::Null, |b| {
        Value::Array(b.slots.iter().map(|&c| Value::from(c)).collect())
    });
    json!({ "best": best, "nodes": r.nodes, "pruned": r.pruned, "exhausted": r.exhausted })
}

/// Decodes a branch record; every field is required, since a defaulted
/// `exhausted` would turn a budget-limited branch into a proof.
fn branch_from_json(v: &Value) -> Result<BranchResult, String> {
    let count = |k: &str| {
        v.get(k)
            .and_then(Value::as_u64)
            .ok_or(format!("no {k} count"))
    };
    let best = match v.get("best").ok_or("no best field")? {
        Value::Null => None,
        slots => Some(CoverSolution {
            slots: slots
                .as_array()
                .and_then(|a| a.iter().map(|c| c.as_u64()?.try_into().ok()).collect())
                .ok_or("best is not a list of slot ids")?,
        }),
    };
    Ok(BranchResult {
        best,
        nodes: count("nodes")?,
        pruned: count("pruned")?,
        exhausted: v
            .get("exhausted")
            .and_then(Value::as_bool)
            .ok_or("no exhausted flag")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use ttdc_util::checkpoint::seal;

    #[test]
    fn a_branch_record_without_exhausted_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("ttdc-synth-campaign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = SynthCampaign::new(&SynthProblem::new(5, 1, 2, 2), 20_000, None);
        c.run(Some(&dir), 0).unwrap();
        // Re-seal record b0 without its `exhausted` flag: the checksum is
        // valid, so only the decoder can catch it.
        let path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<String> = text
            .lines()
            .map(|line| {
                let v: Value = serde_json::from_str(line).unwrap();
                if v.get("id").and_then(Value::as_str) != Some("b0") {
                    return line.to_string();
                }
                let mut payload = v.get("payload").unwrap().as_object().unwrap().clone();
                payload.remove("exhausted");
                let mut fields = BTreeMap::new();
                fields.insert("id".to_string(), json!("b0"));
                fields.insert("payload".to_string(), Value::Object(payload));
                seal(fields)
            })
            .collect();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let err = c.run(Some(&dir), 0).unwrap_err();
        assert!(
            matches!(&err, ManifestError::BadRecord { id, why } if id == "b0" && why.contains("exhausted")),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
