//! Command-line entry of the benchmark; `perfbench/run.py` builds and runs
//! it. Prints a run stamp line and, last, the result line.
//!
//! ```text
//! ttdc-perfbench --workload design --seed 1 --seconds 15 --trace 0
//!                [--commit SHA] [--rustc VERSION] [--emit-expected]
//! ```

use std::path::PathBuf;
use ttdc_perfbench::{result_line, run, Config, DEFAULT_SEED};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut cfg = Config {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        threads: nproc.min(2),
        out_dir: manifest_dir.join("..").join(".bench_out"),
        expected: Some(manifest_dir.join("expected.json")),
    };
    let mut commit = String::from("unknown");
    let mut rustc = String::from("unknown");
    let mut emit = false;
    while let Some(flag) = args.next() {
        if flag == "--emit-expected" {
            emit = true;
            continue;
        }
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let num = |v: &str| -> u64 {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{flag}: bad number {v:?}")))
        };
        match flag.as_str() {
            "--workload" => cfg.workload = value,
            "--seed" => cfg.seed = num(&value),
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("--seconds: bad number {value:?}")))
            }
            "--trace" => cfg.trace = num(&value) != 0,
            "--commit" => commit = value,
            "--rustc" => rustc = value,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if cfg.workload.is_empty() {
        usage("--workload is required");
    }
    if emit {
        // Record this seed's digests and counters instead of checking them.
        cfg.expected = None;
        cfg.trace = true;
    }
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        usage(&format!("{}: {e}", cfg.out_dir.display()));
    }
    let r = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if emit {
        let digests: std::collections::BTreeMap<String, serde_json::Value> = r
            .digests
            .iter()
            .map(|(k, d)| (k.clone(), format!("{d:016x}").into()))
            .collect();
        let counters: std::collections::BTreeMap<String, serde_json::Value> = r
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), (*v).into()))
            .collect();
        let doc = serde_json::json!({
            "digests": serde_json::Value::Object(digests),
            "counters": serde_json::Value::Object(counters),
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&doc).expect("infallible")
        );
        std::process::exit(if r.correct() { 0 } else { 1 });
    }
    let mut stamp = r.stamp.clone();
    if let serde_json::Value::Object(m) = &mut stamp {
        m.insert("git_commit".into(), commit.into());
        m.insert("rustc".into(), rustc.into());
        m.insert("attempted".into(), r.attempted.into());
        m.insert("failed".into(), r.failed.into());
    }
    println!(
        "{}",
        serde_json::to_string(&serde_json::json!({ "stamp": stamp })).expect("infallible")
    );
    println!("{}", result_line(&r));
    std::process::exit(if r.correct() { 0 } else { 1 });
}
