//! E18 — the synthesized best-known-schedule catalog vs the paper's
//! Figure 2 construction and the greedy set-cover baseline. Every
//! committed catalog entry is re-validated (fingerprint, α caps, naive
//! Requirements 1/2/3, cover-free family) and compared against the frame
//! length `ttdc build` would otherwise produce at the same `(n, D, α_T,
//! α_R)` point, quantifying what the branch-and-bound search buys.

use std::path::PathBuf;
use ttdc_core::construct::PartitionStrategy;
use ttdc_core::synth::catalog;
use ttdc_core::synth::{greedy_len, VerifyCache};
use ttdc_core::tsma::build_duty_cycled;
use ttdc_util::Table;

/// The committed catalog `ttdc build` consults, relative to the crate.
pub fn catalog_dir() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/catalog"
    ))
}

/// Runs E18.
pub fn run() -> Vec<Table> {
    let mut table = Table::new(
        "E18 — best-known catalog vs Figure 2 construction vs greedy cover",
        &[
            "n",
            "D",
            "a_T",
            "a_R",
            "catalog_L",
            "optimal",
            "source",
            "search_nodes",
            "figure2_L",
            "greedy_L",
            "saved_vs_figure2",
            "verified",
        ],
    );
    let mut cache = VerifyCache::new();
    for (path, loaded) in catalog::load_all(&catalog_dir()) {
        let entry = match loaded {
            Ok(e) => e,
            Err(err) => {
                let err = format!("{}: {err}", path.display());
                // Surface unreadable entries as a row rather than a panic:
                // the CI catalog-validation step is the hard gate.
                table.row(&[
                    "?".into(),
                    "?".into(),
                    "?".into(),
                    "?".into(),
                    "?".into(),
                    "?".into(),
                    format!("unreadable: {err}"),
                    "?".into(),
                    "?".into(),
                    "?".into(),
                    "?".into(),
                    "false".into(),
                ]);
                continue;
            }
        };
        let p = entry.problem;
        let verified = catalog::validate_entry(&entry, &mut cache).is_ok();
        let l = entry.schedule.frame_length();
        let fig2 = build_duty_cycled(
            p.n,
            p.d,
            p.alpha_t,
            p.alpha_r,
            PartitionStrategy::RoundRobin,
        )
        .schedule
        .frame_length();
        let greedy_l = greedy_len(&p);
        table.row(&[
            p.n.to_string(),
            p.d.to_string(),
            p.alpha_t.to_string(),
            p.alpha_r.to_string(),
            l.to_string(),
            entry.exact.to_string(),
            entry.source.clone(),
            entry.nodes.to_string(),
            fig2.to_string(),
            greedy_l.to_string(),
            (fig2 as i64 - l as i64).to_string(),
            verified.to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_committed_entry_verifies_and_at_least_three_beat_figure2() {
        let t = &run()[0];
        let cols = t.columns();
        let verified = cols.iter().position(|c| c == "verified").unwrap();
        let saved = cols.iter().position(|c| c == "saved_vs_figure2").unwrap();
        let catalog_l = cols.iter().position(|c| c == "catalog_L").unwrap();
        let greedy_l = cols.iter().position(|c| c == "greedy_L").unwrap();
        assert!(
            t.rows().len() >= 3,
            "the committed catalog should hold at least three entries"
        );
        assert!(t.rows().iter().all(|r| r[verified] == "true"));
        // The catalog only admits entries that beat the Figure 2
        // construction, and the search starts from the greedy cover so it
        // can never do worse than it.
        for r in t.rows() {
            assert!(r[saved].parse::<i64>().unwrap() > 0, "{r:?}");
            assert!(
                r[catalog_l].parse::<usize>().unwrap() <= r[greedy_l].parse::<usize>().unwrap(),
                "{r:?}"
            );
        }
    }
}
