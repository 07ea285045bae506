//! `design`: one op is one parameter point's `ttdc build → verify →
//! analyze`, run in-process through `ttdc_cli::run_with_streams`.
//!
//! Catalog hits load a snapshot entry (`perfbench/catalog/`) and re-validate
//! it with the naive oracles; Figure-2 points construct the schedule; every
//! point then pays the Requirement-3 check twice (verify and analyze) plus
//! the throughput and latency enumerations. `(81,4,4,8)` is above the
//! exhaustive budget and takes the sampled path.

use crate::trace::Tracer;
use crate::{digest, seeded_round, OpOut, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use ttdc_core::analysis::optimality_ratio;
use ttdc_core::latency::{average_access_delay, worst_case_access_delay};
use ttdc_core::requirements::{requirement3_violation, spot_check_topology_transparent};
use ttdc_core::synth::{catalog, SynthProblem, VerifyCache};
use ttdc_core::throughput::{average_throughput, min_throughput};
use ttdc_core::tsma::{build, SourceKind};
use ttdc_core::{construct, io as sched_io, PartitionStrategy, Schedule};

/// `(n, D, α_T, α_R)`: two catalog hits, five Figure-2 points, two
/// sampled points. The mix is chosen so that the median op, (64,2,4,8), is
/// one kind about twice as dear as the kind below it and less than half as
/// dear as the kind above: then `op_p50_ms` is the median of one kind's
/// latencies, not a quantile of two overlapping kinds (which swings with
/// host noise), and it is long enough (tens of ms) that brief stalls do not
/// dominate it. A round is short enough for twenty or more rounds in a
/// 15-s run, so `op_tail_ms` sits well inside (64,3,4,8)'s latencies.
/// (64,2,4,8) runs [`MEDIAN_COPIES`] times per round.
pub const POINTS: [(usize, usize, usize, usize); 9] = [
    (7, 1, 1, 2),
    (12, 1, 1, 4),
    (20, 3, 2, 4),
    (30, 3, 2, 4),
    (49, 2, 3, 6),
    (64, 2, 4, 8),
    (64, 3, 4, 8),
    (81, 4, 4, 8),
    (90, 4, 4, 8),
];

/// Ops per round of each point: three of the median kind, (64,2,4,8), so
/// that `op_p50_ms` is the median of three times as many samples.
pub const MEDIAN_COPIES: [usize; 9] = [1, 1, 1, 1, 1, 3, 1, 1, 1];

/// The CLI's exhaustive Requirement-3 budget (configurations).
const EXHAUSTIVE_BUDGET: f64 = 5e7;
/// The CLI's spot-check sample count and seed above that budget.
const SPOT_SAMPLES: usize = 100_000;
const SPOT_SEED: u64 = 0xC0FFEE;
/// The CLI runs the latency and minimum-throughput scans only up to here.
const ENUMERATION_MAX_N: usize = 40;

/// What the end-to-end op printed, kept so the traced op can be checked
/// against it.
struct Reference {
    digest: u64,
    schedule_text: String,
    verify_out: String,
    analyze_out: String,
}

pub struct Design {
    order: Vec<usize>,
    catalog: PathBuf,
    work: PathBuf,
    refs: BTreeMap<usize, Reference>,
}

impl Design {
    pub fn new(seed: u64, work: &Path) -> Result<Design, String> {
        let catalog = Path::new(env!("CARGO_MANIFEST_DIR")).join("catalog");
        if !catalog.is_dir() {
            return Err(format!("{}: catalog snapshot missing", catalog.display()));
        }
        let work = work.join("design");
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        Ok(Design {
            order: seeded_round(&MEDIAN_COPIES, seed),
            catalog,
            work,
            refs: BTreeMap::new(),
        })
    }

    fn file(&self, k: usize) -> PathBuf {
        self.work.join(format!("p{k}.schedule"))
    }

    fn argvs(&self, k: usize) -> [Vec<String>; 3] {
        let (n, d, at, ar) = POINTS[k];
        let file = self.file(k).display().to_string();
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let (n, d, at, ar) = (n.to_string(), d.to_string(), at.to_string(), ar.to_string());
        let cat = self.catalog.display().to_string();
        [
            s(&[
                "build",
                "--nodes",
                &n,
                "--degree",
                &d,
                "--alpha-t",
                &at,
                "--alpha-r",
                &ar,
                "--catalog",
                &cat,
                "--output",
                &file,
            ]),
            s(&["verify", "--degree", &d, &file]),
            s(&[
                "analyze",
                "--degree",
                &d,
                "--alpha-t",
                &at,
                "--alpha-r",
                &ar,
                &file,
            ]),
        ]
    }
}

fn cli(argv: &[String]) -> Result<String, String> {
    let mut out = Vec::new();
    let mut err = Vec::new();
    let code = ttdc_cli::run_with_streams(argv.iter().cloned(), &mut out, &mut err);
    if code != 0 {
        return Err(format!(
            "`ttdc {}` exited {code}: {}",
            argv.join(" "),
            String::from_utf8_lossy(&err).trim()
        ));
    }
    String::from_utf8(out).map_err(|e| e.to_string())
}

/// `n · C(n−1, D)` Requirement-3 configurations, or the spot-check sample
/// count above the exhaustive budget.
fn req3_configs(n: usize, d: usize) -> (f64, bool) {
    let configs = n as f64 * ttdc_util::binomial_f64(n as u64 - 1, d as u64);
    if configs <= EXHAUSTIVE_BUDGET {
        (configs, true)
    } else {
        (SPOT_SAMPLES as f64, false)
    }
}

/// The verdict line the CLI prints for a transparent schedule.
fn verdict_line(n: usize, d: usize, exhaustive: bool) -> String {
    if exhaustive {
        format!("topology-transparent for N_{n}^{d}: YES (exhaustive)")
    } else {
        format!(
            "topology-transparent for N_{n}^{d}: no violation in 100k samples \
             (instance too large for the exhaustive check)"
        )
    }
}

impl Workload for Design {
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

    fn reset(&mut self, k: usize) {
        let _ = std::fs::remove_file(self.file(k));
    }

    fn run_op(&mut self, k: usize) -> Result<OpOut, String> {
        let (n, d, _, _) = POINTS[k];
        let [b, v, a] = self.argvs(k);
        let build_out = cli(&b)?;
        let verify_out = cli(&v)?;
        let analyze_out = cli(&a)?;
        let file = self.file(k);
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let (configs, exhaustive) = req3_configs(n, d);
        let verdict = verdict_line(n, d, exhaustive);
        if !verify_out.contains(&verdict) || !analyze_out.contains(&verdict) {
            return Err(format!("no positive verdict: {}", verify_out.trim()));
        }
        // Outputs name the scratch file; digest them path-free.
        let path = file.display().to_string();
        let norm = |s: &str| s.replace(&path, "FILE");
        let dg = digest(&[
            norm(&build_out).as_bytes(),
            norm(&verify_out).as_bytes(),
            norm(&analyze_out).as_bytes(),
            text.as_bytes(),
        ]);
        self.refs.insert(
            k,
            Reference {
                digest: dg,
                schedule_text: text,
                verify_out,
                analyze_out,
            },
        );
        let mut o = OpOut {
            digest: dg,
            ..OpOut::default()
        };
        o.count("core.requirements.configs", 2.0 * configs);
        Ok(o)
    }

    fn traced_op(&mut self, k: usize, t: &mut Tracer) -> Result<OpOut, String> {
        let (n, d, at, ar) = POINTS[k];
        let argvs = self.argvs(k);
        let file = self.file(k);
        let catalog_dir = self.catalog.clone();
        let out = t.span("design.op", |t| -> Result<_, String> {
            t.span("cli.parse", |_| {
                argvs
                    .iter()
                    .map(|a| ttdc_cli::parse(a.clone()))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| e.to_string())?;
            let p = SynthProblem::new(n, d, at, ar);
            let entry = t.span("core.catalog", |_| -> Result<_, String> {
                let entry = catalog::load_entry(&catalog_dir, &p)?;
                if let Some(e) = &entry {
                    catalog::validate_entry(e, &mut VerifyCache::new())?;
                }
                Ok(entry)
            })?;
            let schedule = match entry {
                Some(e) => e.schedule,
                None => t.span("core.construct", |_| -> Result<Schedule, String> {
                    let ns = build(n, d, SourceKind::Polynomial)?;
                    Ok(construct(&ns.schedule, d, at, ar, PartitionStrategy::RoundRobin).schedule)
                })?,
            };
            let (text, loaded, bytes) = t.span("core.io", |_| -> Result<_, String> {
                let text = sched_io::to_text(&schedule);
                ttdc_util::write_atomic(&file, text.as_bytes()).map_err(|e| e.to_string())?;
                let mut loaded = None;
                // verify and analyze each load the file.
                for _ in 0..2 {
                    let back = std::fs::read_to_string(&file).map_err(|e| e.to_string())?;
                    loaded = Some(sched_io::from_text(&back).map_err(|e| e.to_string())?);
                }
                let bytes = 3 * text.len();
                Ok((text, loaded.expect("loaded twice"), bytes))
            })?;
            let (configs, exhaustive) = req3_configs(n, d);
            let mut transparent = true;
            for _ in 0..2 {
                transparent &= t.span("core.requirements.req3", |_| {
                    if exhaustive {
                        requirement3_violation(&loaded, d).is_none()
                    } else {
                        spot_check_topology_transparent(&loaded, d, SPOT_SAMPLES, SPOT_SEED)
                            .is_none()
                    }
                });
            }
            let thr_lines = t.span("core.throughput", |_| {
                let mut lines = vec![format!("avg thr  : {:.6}", average_throughput(&loaded, d))];
                if n <= ENUMERATION_MAX_N {
                    lines.push(format!("min thr  : {:.6}", min_throughput(&loaded, d)));
                }
                lines.push(format!(
                    "opt ratio: {:.3} of",
                    optimality_ratio(&loaded, d, at, ar)
                ));
                lines
            });
            let latency_line = if n <= ENUMERATION_MAX_N && transparent {
                t.span("core.latency", |_| {
                    match (
                        worst_case_access_delay(&loaded, d),
                        average_access_delay(&loaded, d),
                    ) {
                        (Some(worst), Some(mean)) => Some(format!(
                            "latency  : worst {worst} slots, mean {mean:.1} (arrival-averaged)"
                        )),
                        _ => None,
                    }
                })
            } else {
                None
            };
            Ok((
                text,
                transparent,
                exhaustive,
                configs,
                thr_lines,
                latency_line,
                bytes,
            ))
        })?;
        let (text, transparent, exhaustive, configs, thr_lines, latency_line, bytes) = out;
        let r = self
            .refs
            .get(&k)
            .ok_or("traced op ran before its end-to-end reference")?;
        if text != r.schedule_text {
            return Err("decomposed schedule differs from `ttdc build` output".into());
        }
        let verdict = verdict_line(n, d, exhaustive);
        if !transparent || !r.verify_out.contains(&verdict) {
            return Err("decomposed verdict differs from `ttdc verify`".into());
        }
        for line in thr_lines.iter().chain(latency_line.iter()) {
            if !r.analyze_out.contains(line.as_str()) {
                return Err(format!("`ttdc analyze` did not print {line:?}"));
            }
        }
        let mut o = OpOut {
            digest: r.digest,
            ..OpOut::default()
        };
        o.count("core.requirements.configs", 2.0 * configs);
        o.count("core.io.bytes", bytes as f64);
        Ok(o)
    }
}
