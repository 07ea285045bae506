//! A synthesis campaign fans its root branches out over the rayon pool;
//! its checkpointed branch records, effort totals and catalog entry must
//! not depend on the pool's thread count. Each branch searches against a
//! fresh incumbent under its own node budget, and the reduce walks the
//! records in branch order, so a 1-thread and a 4-thread run agree bit for
//! bit even though their manifests list the records in finishing order.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use ttdc_core::synth::campaign::{SynthCampaign, KIND};
use ttdc_core::synth::catalog::{self, Admission};
use ttdc_core::synth::SynthProblem;
use ttdc_util::checkpoint::{Manifest, MANIFEST_FILE};

/// One campaign run's observable result.
#[derive(Debug, PartialEq)]
struct Run {
    /// Branch records by id (the file order is the finishing order).
    records: BTreeMap<String, Value>,
    exact: bool,
    nodes: u64,
    pruned: u64,
    entry_bytes: String,
}

fn run_on(threads: usize, c: &SynthCampaign, name: &str) -> Run {
    let root: PathBuf = std::env::temp_dir().join(format!(
        "ttdc-synth-campaign-threads-{}-{name}-{threads}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let (dir, cat) = (root.join("campaign"), root.join("catalog"));
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    let out = pool.install(|| c.run(Some(&dir), 200)).unwrap();
    assert_eq!(out.reused, 0, "a fresh directory reuses nothing");
    let written = catalog::admit(&cat, None, &out.entry).unwrap();
    let Admission::Written(path) = written else {
        panic!("{name}: campaign winner not admitted: {written:?}");
    };
    let m = Manifest::load(&dir.join(MANIFEST_FILE), KIND, Some(c.fingerprint())).unwrap();
    let run = Run {
        records: m
            .records()
            .iter()
            .map(|r| (r.id.clone(), r.payload.clone()))
            .collect(),
        exact: out.entry.exact,
        nodes: out.entry.nodes,
        pruned: out.pruned,
        entry_bytes: std::fs::read_to_string(path).unwrap(),
    };
    let _ = std::fs::remove_dir_all(&root);
    run
}

#[test]
fn campaign_is_identical_on_one_and_four_threads() {
    // (5,1,2,2) is solved exactly; (6,1,2,2) hits a small per-branch
    // budget, so its winner also goes through the polish.
    for (name, p, budget) in [
        ("exact", SynthProblem::new(5, 1, 2, 2), 20_000),
        ("budgeted", SynthProblem::new(6, 1, 2, 2), 2_000),
    ] {
        let c = SynthCampaign::new(&p, budget, None);
        assert!(
            c.plan.branch_cands.len() > 1,
            "{name}: needs a real fan-out"
        );
        let one = run_on(1, &c, name);
        let four = run_on(4, &c, name);
        assert_eq!(one.records.len(), c.plan.branch_cands.len());
        assert_eq!(one.exact, name == "exact", "{name}: wrong exactness");
        assert_eq!(one, four, "{name}: 1-thread and 4-thread campaigns differ");
    }
}
