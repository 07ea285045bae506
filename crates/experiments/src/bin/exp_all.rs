//! Runs every experiment in the registry, writing `results/<id>.{txt,csv,json}`.
//!
//! The experiments are independent, so their *compute* phase fans out over
//! the rayon pool (one task per experiment, on top of each experiment's own
//! inner parallelism); printing and persistence then happen sequentially in
//! registry order, so stdout and `results/` are byte-identical regardless
//! of `RAYON_NUM_THREADS`.
//!
//! `--checkpoint DIR` makes the sweep crash-resilient: it runs as a
//! checkpointed job ([`ttdc_util::checkpoint`], kind `exp_all`) whose
//! units are whole experiments. Each experiment's tables are sealed into
//! `DIR/exp_all.jsonl` as soon as they are computed, and a rerun replays
//! completed experiments from the manifest instead of recomputing them.
//! Every experiment's tables, fresh or replayed, are printed from their
//! manifest encoding, so a resumed sweep writes the same bytes as an
//! uninterrupted one. Combined with `TTDC_CAMPAIGN_DIR` (which checkpoints
//! *within* the E10/E12/E17 sweeps) a SIGKILL at any instant costs at most
//! one in-flight shard of work.

use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use ttdc_util::checkpoint::{Checkpoint, ManifestError, ResumeMode};
use ttdc_util::{fnv1a64, Table};

const MANIFEST_FILE: &str = "exp_all.jsonl";
const KIND: &str = "exp_all";

fn main() -> ExitCode {
    let mut checkpoint: Option<PathBuf> = None;
    let mut only: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--checkpoint" {
            let Some(dir) = args.next() else {
                eprintln!("--checkpoint needs a directory");
                return ExitCode::from(2);
            };
            checkpoint = Some(PathBuf::from(dir));
        } else {
            only.push(a);
        }
    }
    let selected: Vec<(&'static str, ttdc_experiments::Runner)> = ttdc_experiments::registry()
        .into_iter()
        .filter(|(id, _)| only.is_empty() || only.iter().any(|o| id.contains(o.as_str())))
        .collect();
    let context = checkpoint.as_ref().map_or(String::new(), |d| {
        format!("{}: ", d.join(MANIFEST_FILE).display())
    });
    match run(&selected, checkpoint.as_deref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {context}{e}");
            ExitCode::FAILURE
        }
    }
}

fn run(
    selected: &[(&'static str, ttdc_experiments::Runner)],
    dir: Option<&Path>,
) -> Result<(), ManifestError> {
    // The manifest fingerprint covers the selection, so `exp_all e10`
    // and a full `exp_all` never share (and never clobber) checkpoints.
    let ids: Vec<String> = selected.iter().map(|(id, _)| id.to_string()).collect();
    let fp = fnv1a64(ids.join("|").as_bytes());
    let header = json!({ "ids": Value::Array(ids.iter().map(|i| json!(i)).collect()) });
    let job = Checkpoint::open(dir, MANIFEST_FILE, KIND, fp, header, ResumeMode::Auto)?;
    let done = job.manifest.len();
    if let Some(path) = dir.filter(|_| done > 0).map(|d| d.join(MANIFEST_FILE)) {
        let (path, n) = (path.display(), ids.len());
        eprintln!("=== resuming from {path}: {done} of {n} experiment(s) already done ===");
    }
    for id in ids.iter().filter(|id| job.manifest.get(id).is_some()) {
        eprintln!("=== {id} replayed from checkpoint ===");
    }
    let threads = rayon::current_num_threads();
    eprintln!(
        "=== running {} experiment(s) on {threads} thread(s) ===",
        ids.len()
    );
    let start = std::time::Instant::now();
    let outcome = job.run(&ids, |i| {
        let t0 = std::time::Instant::now();
        let tables = (selected[i].1)();
        let secs = t0.elapsed().as_secs_f64();
        eprintln!("=== {} computed in {secs:.1}s ===", ids[i]);
        Value::Array(tables.iter().map(Table::to_json).collect())
    })?;
    // Decode every record before printing any, so a bad one writes nothing.
    let mut decoded = Vec::with_capacity(ids.len());
    for (id, payload) in ids.iter().zip(&outcome.payloads) {
        let tables: Option<Vec<Table>> = payload
            .as_array()
            .and_then(|ts| ts.iter().map(Table::from_json).collect());
        decoded.push(tables.ok_or_else(|| ManifestError::BadRecord {
            id: id.clone(),
            why: "not a list of tables".into(),
        })?);
    }
    for (id, tables) in ids.iter().zip(&decoded) {
        ttdc_experiments::print_and_write(id, tables);
    }
    eprintln!("=== all done in {:.1}s ===", start.elapsed().as_secs_f64());
    Ok(())
}
