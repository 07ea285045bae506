//! A tampered committed digest must be reported as a failed op, not
//! silently accepted. Run with `cargo test --release` (the workload is
//! the real `design` mix).

use std::path::PathBuf;
use ttdc_perfbench::{run, Config, DEFAULT_SEED};

fn config(expected: PathBuf, out: PathBuf) -> Config {
    Config {
        workload: "design".into(),
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        threads: 2,
        out_dir: out,
        expected: Some(expected),
    }
}

#[test]
fn tampered_digest_is_a_failure() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let committed = manifest.join("expected.json");
    let out = std::env::temp_dir().join(format!("perfbench-tamper-{}", std::process::id()));
    std::fs::create_dir_all(&out).unwrap();

    let clean = run(&config(committed.clone(), out.clone())).unwrap();
    assert!(
        clean.correct(),
        "committed digests fail: {:?}",
        clean.failures
    );
    assert_eq!(clean.failed, 0);

    // Flip one hex digit of the first design digest.
    let text = std::fs::read_to_string(&committed).unwrap();
    let key = "\"n12_d1_at1_ar4\": \"";
    let at = text.find(key).expect("design digest present") + key.len();
    let mut bytes = text.into_bytes();
    bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
    let tampered = out.join("expected.json");
    std::fs::write(&tampered, bytes).unwrap();

    let r = run(&config(tampered, out.clone())).unwrap();
    assert!(!r.correct());
    assert!(r.failed > 0);
    assert!(
        r.failures
            .iter()
            .any(|f| f.contains("n12_d1_at1_ar4") && f.contains("committed")),
        "{:?}",
        r.failures
    );
    std::fs::remove_dir_all(&out).unwrap();
}
