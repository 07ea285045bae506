//! Kill-and-resume guarantees for `exp_all --checkpoint DIR`.
//!
//! The sweep checkpoints each finished experiment's tables. A run that
//! aborts itself after one checkpoint (`TTDC_CAMPAIGN_KILL_AFTER=1`) must
//! leave exactly that record, and rerunning the same command must replay
//! it and write results byte-identical to an uninterrupted run. A
//! different selection must refuse the directory with the fingerprint
//! mismatch instead of panicking. All output goes under a temporary
//! `TTDC_RESULTS_DIR`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const KILL_AFTER_ENV: &str = "TTDC_CAMPAIGN_KILL_AFTER";

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ttdc-exp-all-ckpt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// `exp_all <selection> --checkpoint <root>/ckpt` writing under `<root>/results`.
fn exp_all(selection: &[&str], root: &Path, kill_after: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp_all"));
    cmd.args(selection)
        .arg("--checkpoint")
        .arg(root.join("ckpt"))
        .env("TTDC_RESULTS_DIR", root.join("results"))
        .env_remove(KILL_AFTER_ENV);
    if let Some(n) = kill_after {
        cmd.env(KILL_AFTER_ENV, n);
    }
    cmd.output().expect("spawn exp_all")
}

fn results(root: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(root.join("results"))
        .map(|rd| {
            rd.map(|e| {
                let path = e.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).unwrap())
            })
            .collect()
        })
        .unwrap_or_default()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn killed_sweep_resumes_byte_identically_and_rejects_another_selection() {
    let clean = tmp("clean");
    let out = exp_all(&["e02", "e03"], &clean, None);
    assert!(
        out.status.success(),
        "uninterrupted run failed: {}",
        stderr(&out)
    );
    let baseline = results(&clean);
    assert_eq!(baseline.len(), 6, "two experiments × txt/csv/json");

    let killed = tmp("killed");
    let out = exp_all(&["e02", "e03"], &killed, Some("1"));
    assert!(!out.status.success(), "the kill-after run must die");
    let records = std::fs::read_to_string(killed.join("ckpt/exp_all.jsonl"))
        .expect("the checkpoint it did complete must survive")
        .lines()
        .count()
        .saturating_sub(1);
    assert_eq!(records, 1, "died after exactly one checkpoint");
    assert!(
        results(&killed).is_empty(),
        "a killed sweep writes no results"
    );

    let out = exp_all(&["e02", "e03"], &killed, None);
    assert!(out.status.success(), "resume failed: {}", stderr(&out));
    assert!(
        stderr(&out).contains("1 of 2 experiment(s) already done"),
        "resume must replay the surviving checkpoint: {}",
        stderr(&out)
    );
    assert_eq!(results(&killed), baseline);

    let out = exp_all(&["e02"], &killed, None);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("fingerprint"),
        "a different selection must fail on the fingerprint: {}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&killed);
}
