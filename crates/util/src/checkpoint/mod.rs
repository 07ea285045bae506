//! Checkpointed jobs: independent units of work, each sealed into a
//! [`Manifest`] as soon as it finishes, resumable after a kill, and
//! handed back in unit order for a deterministic reduce.
//!
//! [`Checkpoint`] runs every long job in the workspace: Monte-Carlo
//! campaigns (`ttdc_sim::campaign`, kind `campaign`), synthesis campaigns
//! (`ttdc_core::synth::campaign`, kind `synth-campaign`) and
//! `exp_all --checkpoint` (kind `exp_all`). A client supplies a
//! fingerprint of everything that shapes a unit's result, the unit ids and
//! a pure `unit(i) -> Value`; the runner owns resume, the parallel
//! fan-out, the atomic save after each unit and the kill hook.

mod manifest;

pub use manifest::{
    f64_from_bits_json, f64_to_bits_json, seal, unseal, Manifest, ManifestError, ManifestRecord,
};

use rayon::prelude::*;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Version stamp written into every manifest (and the campaign's merged
/// output); bump it whenever a manifest or merged-output format changes
/// shape so a resume against an old directory fails loudly instead of
/// merging silently incompatible records.
pub const CAMPAIGN_SCHEMA_VERSION: u64 = 1;

/// File name of the checkpoint manifest inside a job directory.
pub const MANIFEST_FILE: &str = "manifest.jsonl";

/// Env var: abort the process once this many units have been
/// checkpointed by this run (test/CI hook that simulates a SIGKILL at a
/// fixed point). The count and the abort happen under the manifest lock,
/// so exactly that many records survive at any thread count.
pub const KILL_AFTER_ENV: &str = "TTDC_CAMPAIGN_KILL_AFTER";

/// How [`Checkpoint::open`] treats an existing manifest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResumeMode {
    /// Require a fresh directory: error if a manifest already exists.
    Fresh,
    /// Require an existing manifest: error if there is nothing to resume.
    Resume,
    /// Resume if a compatible manifest exists, start fresh otherwise.
    Auto,
}

/// What a finished job produced.
#[derive(Debug)]
pub struct JobOutcome {
    /// One payload per unit, in unit order, fresh or reloaded.
    pub payloads: Vec<Value>,
    /// Units reused from the manifest; the others ran now.
    pub reused: usize,
}

/// An open job: its manifest (fresh or reloaded) and where to save it.
#[derive(Debug)]
pub struct Checkpoint {
    path: Option<PathBuf>,
    /// The manifest as opened: the records of earlier runs.
    pub manifest: Manifest,
}

impl Checkpoint {
    /// Loads `dir/file` or starts a fresh manifest, as `mode` allows. A
    /// reloaded manifest must carry `kind` and `fingerprint`; `header` is
    /// recorded in a fresh one. With `dir = None` the job runs in memory.
    pub fn open(
        dir: Option<&Path>,
        file: &str,
        kind: &str,
        fingerprint: u64,
        header: Value,
        mode: ResumeMode,
    ) -> Result<Checkpoint, ManifestError> {
        let path = dir.map(|d| d.join(file));
        let manifest = match (mode, path.as_deref().filter(|p| p.exists())) {
            (ResumeMode::Fresh, Some(p)) => {
                return Err(ManifestError::AlreadyStarted(p.to_path_buf()))
            }
            (ResumeMode::Resume, None) => {
                let d = dir.expect("Resume mode requires a directory");
                return Err(ManifestError::NothingToResume(d.to_path_buf()));
            }
            (_, Some(p)) => Manifest::load(p, kind, Some(fingerprint))?,
            (_, None) => Manifest::new(kind, fingerprint, header),
        };
        Ok(Checkpoint { path, manifest })
    }

    /// Runs every unit of `ids` that has no record yet, fanned out over
    /// the rayon pool; `unit(i)` must be a pure function of `i`. Each
    /// payload is put and the whole manifest saved atomically under one
    /// lock as soon as its unit finishes. A save failure does not stop the
    /// other units; the first one is returned after the pool drains.
    pub fn run<F>(self, ids: &[String], unit: F) -> Result<JobOutcome, ManifestError>
    where
        F: Fn(usize) -> Value + Sync,
    {
        let mut payloads: Vec<Option<Value>> = ids
            .iter()
            .map(|id| self.manifest.get(id).cloned())
            .collect();
        let todo: Vec<usize> = (0..ids.len()).filter(|&i| payloads[i].is_none()).collect();
        let reused = ids.len() - todo.len();
        let kill_after: Option<usize> = std::env::var(KILL_AFTER_ENV)
            .ok()
            .and_then(|v| v.parse().ok());
        // (manifest, units saved by this run, first save error)
        let state = Mutex::new((self.manifest, 0usize, None::<ManifestError>));
        let fresh: Vec<(usize, Value)> = todo
            .into_par_iter()
            .map(|i| {
                let payload = unit(i);
                if let Some(path) = self.path.as_deref() {
                    let mut guard = state.lock().expect("manifest lock");
                    let (m, saved, error) = &mut *guard;
                    m.put(ids[i].clone(), payload.clone());
                    if let Err(e) = m.save(path) {
                        error.get_or_insert(e);
                    }
                    *saved += 1;
                    if let Some(limit) = kill_after.filter(|&limit| *saved >= limit) {
                        eprintln!(
                            "{KILL_AFTER_ENV}={limit} reached after {saved} \
                             checkpoint(s); aborting"
                        );
                        std::process::abort();
                    }
                }
                (i, payload)
            })
            .collect();
        if let Some(e) = state.into_inner().expect("manifest lock").2 {
            return Err(e);
        }
        for (i, payload) in fresh {
            payloads[i] = Some(payload);
        }
        Ok(JobOutcome {
            payloads: payloads.into_iter().flatten().collect(),
            reused,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ttdc-checkpoint-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn ids(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("u{i}")).collect()
    }

    fn open(
        dir: Option<&Path>,
        fingerprint: u64,
        mode: ResumeMode,
    ) -> Result<Checkpoint, ManifestError> {
        Checkpoint::open(
            dir,
            MANIFEST_FILE,
            "test",
            fingerprint,
            json!({"n": 5}),
            mode,
        )
    }

    #[test]
    fn resumed_job_runs_only_the_missing_units_in_unit_order() {
        let dir = tmp("resume");
        let calls = AtomicUsize::new(0);
        let unit = |i: usize| {
            calls.fetch_add(1, Ordering::SeqCst);
            json!(i * i)
        };
        let first = open(Some(&dir), 7, ResumeMode::Fresh)
            .unwrap()
            .run(&ids(3), unit)
            .unwrap();
        assert_eq!(first.reused, 0);
        // Two more units on top of the three checkpointed ones.
        let cp = open(Some(&dir), 7, ResumeMode::Resume).unwrap();
        assert_eq!(cp.manifest.len(), 3);
        let second = cp.run(&ids(5), unit).unwrap();
        assert_eq!(second.reused, 3);
        assert_eq!(calls.load(Ordering::SeqCst), 5);
        let expected: Vec<Value> = (0..5).map(|i| json!(i * i)).collect();
        assert_eq!(second.payloads, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn modes_and_fingerprint_guard_the_directory() {
        let dir = tmp("modes");
        assert!(matches!(
            open(Some(&dir), 1, ResumeMode::Resume),
            Err(ManifestError::NothingToResume(_))
        ));
        open(Some(&dir), 1, ResumeMode::Auto)
            .unwrap()
            .run(&ids(1), |_| json!(0))
            .unwrap();
        assert!(matches!(
            open(Some(&dir), 1, ResumeMode::Fresh),
            Err(ManifestError::AlreadyStarted(_))
        ));
        assert!(matches!(
            open(Some(&dir), 2, ResumeMode::Auto),
            Err(ManifestError::FingerprintMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_job_writes_nothing() {
        let out = open(None, 1, ResumeMode::Auto)
            .unwrap()
            .run(&ids(4), |i| json!(i))
            .unwrap();
        assert_eq!(out.reused, 0);
        assert_eq!(out.payloads[3], json!(3));
    }
}
