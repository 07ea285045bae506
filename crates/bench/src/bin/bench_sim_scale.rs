//! Simulator scaling: the `step()` reference vs `Simulator::run`, by
//! network size.
//!
//! `Simulator::step` visits one slot with rosters rebuilt from every
//! node's MAC answer — O(n) schedule probes per slot — and is the
//! reference every dispatched run is verified against. `Simulator::run`
//! borrows the rosters from the cached slot plan and, when the run's
//! randomness can be calendared, visits only the interesting slots (the
//! skip clock). Both families below are skip-eligible, so the `run`
//! column times the skip clock in each.
//!
//! The **rows family** is a round-robin duty cycle with frame `L = n / 4`:
//! slot `i` wakes transmitter group `i` and listener group `(i + 1) mod L`
//! (four nodes each), so the awake roster is eight nodes per slot
//! *regardless of `n`* — the regime duty-cycled WSN schedules actually
//! produce (most nodes asleep in most slots). Saturated broadcast makes
//! every slot interesting, so the skip clock visits every slot over plan
//! rosters; what it saves over `step()` is the per-slot roster rebuild.
//!
//! The **low-traffic family** is a fully duty-cycled schedule (frame
//! `L = n`, one transmitter and one listener per slot over a
//! perfect-matching topology) under CBR traffic with per-node arrival
//! ~10⁻⁴/slot at `n = 64`, scaled so network load stays constant. Almost
//! every slot is boring — no backlog, no generation — and the calendar
//! jumps straight over them. A separate 10⁸-slot horizon row pins "a
//! hundred million slots in seconds".
//!
//! The two reports are asserted **equal in full** (every counter, per-node
//! energy, latency bits, trace) at every sweep point before any timing is
//! trusted; `results_identical` in the JSON records that the assertion
//! ran. Asserted floors: `run` at least 5× faster than `step()` from
//! `n = 256` up in the rows family, and at least 10× at `n = 1024` in the
//! low-traffic family.
//!
//! Run with `cargo run --release -p ttdc-bench --bin bench_sim_scale`.
//! Pass `--smoke` (CI) for a single timing iteration on the smaller
//! points: the identity assertions still run in full, only the timing
//! fidelity drops, and the JSON is not rewritten.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde_json::{json, to_string_pretty, Value};
use std::time::Instant;
use ttdc_core::Schedule;
use ttdc_sim::{
    MacProtocol, ScheduleMac, SimConfig, SimReport, Simulator, Topology, TrafficPattern,
};
use ttdc_util::BitSet;

/// Median wall time of `iters` calls (after one warm-up), plus the result.
fn measure<D>(iters: usize, work: impl Fn() -> D) -> (f64, D) {
    let result = work();
    let mut times: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            work();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    (times[iters / 2], result)
}

/// Round-robin duty-cycled MAC over `n` nodes: frame `L = n / 4`; in slot
/// `i` group `i` (`{v : v mod L == i}`, four nodes) transmits and group
/// `(i + 1) mod L` listens. Awake nodes per slot is eight, flat in `n`.
fn duty_cycled_mac(n: usize) -> ScheduleMac {
    let frame = n / 4;
    assert!(frame >= 2, "need at least two disjoint groups");
    let group = |g: usize| BitSet::from_iter(n, (0..n).filter(|v| v % frame == g));
    let t = (0..frame).map(group).collect();
    let r = (0..frame).map(|i| group((i + 1) % frame)).collect();
    ScheduleMac::new("round-robin-dc", Schedule::new(n, t, r))
}

/// Runs `slots` slots through `run()` or, with `step`, the `step()`
/// reference; returns the report and how many slots ran the pipeline.
fn drive(mut sim: Simulator, mac: &dyn MacProtocol, slots: u64, step: bool) -> (SimReport, u64) {
    if step {
        for _ in 0..slots {
            sim.step(mac);
        }
    } else {
        sim.run(mac, slots);
    }
    (sim.report(), sim.visited_slots())
}

fn report(topo: &Topology, mac: &dyn MacProtocol, slots: u64, step: bool) -> SimReport {
    let sim = Simulator::new(
        topo.clone(),
        TrafficPattern::SaturatedBroadcast,
        SimConfig {
            seed: 11,
            ..Default::default()
        },
    );
    drive(sim, mac, slots, step).0
}

/// Mean awake (scheduled transmitter or listener) nodes per frame slot —
/// the quantity a visited slot's phase work tracks.
fn mean_awake_per_slot(mac: &dyn MacProtocol, n: usize) -> f64 {
    let frame = mac.frame_length() as u64;
    let awake: usize = (0..frame)
        .map(|s| {
            (0..n)
                .filter(|&v| mac.may_transmit(v, s) || mac.may_receive(v, s))
                .count()
        })
        .sum();
    awake as f64 / frame as f64
}

fn run_point(n: usize, slots: u64, iters: usize) -> (Value, f64) {
    let mut rng = SmallRng::seed_from_u64(3);
    let topo = Topology::random_gnp_capped(n, 0.4, 4, &mut rng);
    let mac = duty_cycled_mac(n);
    eprintln!(
        "point n={n}: frame={} mean_awake/slot={:.1}",
        mac.frame_length(),
        mean_awake_per_slot(&mac, n)
    );

    let (step_ms, step_report) = measure(iters, || report(&topo, &mac, slots, true));
    let (skip_ms, skip_report) = measure(iters, || report(&topo, &mac, slots, false));
    assert_eq!(
        skip_report, step_report,
        "n={n}: run() and the step() reference must report identically"
    );
    let speedup = step_ms / skip_ms;
    eprintln!(
        "  step {step_ms:.2} ms, run (skip clock) {skip_ms:.2} ms over {slots} slots \
         ({speedup:.2}x, identical reports)"
    );
    let row = json!({
        "n": n,
        "frame_length": mac.frame_length(),
        "mean_awake_per_slot": mean_awake_per_slot(&mac, n),
        "slots": slots,
        "iterations": iters,
        "step_median_ms": step_ms,
        "skip_clock_median_ms": skip_ms,
        "step_us_per_slot": step_ms * 1e3 / slots as f64,
        "skip_clock_us_per_slot": skip_ms * 1e3 / slots as f64,
        "speedup_skip_clock_vs_step": speedup,
        "results_identical": true,
    });
    (row, speedup)
}

/// Perfect-matching topology: `n/2` disjoint pairs (`v` — `v ^ 1`).
/// Degree 1 everywhere, so CBR unicast destinations are deterministic and
/// slot `i`'s lone transmitter can never collide at its partner.
fn matching_topo(n: usize) -> Topology {
    assert!(n.is_multiple_of(2), "matching needs an even n");
    let mut topo = Topology::empty(n);
    for v in (0..n).step_by(2) {
        topo.add_edge(v, v + 1);
    }
    topo
}

/// Fully duty-cycled matching MAC: frame `L = n`; in slot `i` only node
/// `i` transmits and only its partner `i ^ 1` listens. One transmitter,
/// one listener, `n - 2` sleepers — the sparsest schedule the simulator
/// can express short of an empty frame.
fn matching_mac(n: usize) -> ScheduleMac {
    let t = (0..n).map(|i| BitSet::from_iter(n, [i])).collect();
    let r = (0..n).map(|i| BitSet::from_iter(n, [i ^ 1])).collect();
    ScheduleMac::new("matching-dc", Schedule::new(n, t, r))
}

/// CBR period giving per-node arrival `~1e-4`/slot at `n = 64`, scaled
/// linearly so the *network-wide* arrival rate stays flat as `n` grows.
fn low_traffic_period(n: usize) -> u64 {
    10_000 * n as u64 / 64
}

fn low_traffic_report(n: usize, slots: u64, step: bool) -> (SimReport, u64) {
    let sim = Simulator::new(
        matching_topo(n),
        TrafficPattern::CbrUnicast {
            period: low_traffic_period(n),
        },
        SimConfig {
            seed: 11,
            ..Default::default()
        },
    );
    drive(sim, &matching_mac(n), slots, step)
}

fn run_low_traffic_point(n: usize, slots: u64, iters: usize) -> (Value, f64) {
    let period = low_traffic_period(n);
    eprintln!(
        "low-traffic point n={n}: frame={n} period={period} \
         (per-node arrival {:.1e}/slot)",
        1.0 / period as f64
    );
    let (step_ms, (step_report, _)) = measure(iters, || low_traffic_report(n, slots, true));
    let (skip_ms, (skip_report, visited)) = measure(iters, || low_traffic_report(n, slots, false));
    assert_eq!(
        skip_report, step_report,
        "n={n}: run() and the step() reference must report identically"
    );
    let speedup = step_ms / skip_ms;
    eprintln!(
        "  step {step_ms:.2} ms, run (skip clock) {skip_ms:.2} ms over {slots} slots \
         ({speedup:.2}x, identical reports, {visited} slots visited)"
    );
    let row = json!({
        "n": n,
        "frame_length": n,
        "cbr_period": period,
        "slots": slots,
        "visited_slots": visited,
        "iterations": iters,
        "step_median_ms": step_ms,
        "skip_clock_median_ms": skip_ms,
        "step_us_per_slot": step_ms * 1e3 / slots as f64,
        "skip_clock_us_per_slot": skip_ms * 1e3 / slots as f64,
        "speedup_skip_clock_vs_step": speedup,
        "results_identical": true,
    });
    (row, speedup)
}

/// One `run()`-only timed run at a horizon far beyond what the `step()`
/// reference can cover in a benchmark: pins "10⁸ slots in seconds" in the
/// JSON. (A cross-check against `step()` at this length would take hours;
/// the identity rows plus the proptest suites carry that guarantee.)
fn run_horizon_row(n: usize, slots: u64) -> Value {
    eprintln!("horizon point n={n}: {slots} slots, run() (skip clock) only");
    let t0 = Instant::now();
    let (report, visited) = low_traffic_report(n, slots, false);
    let secs = t0.elapsed().as_secs_f64();
    let delivered = report.delivered;
    eprintln!(
        "  {secs:.2} s wall ({:.1}M slots/s), {delivered} packets delivered, \
         {visited} slots visited",
        slots as f64 / secs / 1e6
    );
    json!({
        "n": n,
        "frame_length": n,
        "cbr_period": low_traffic_period(n),
        "slots": slots,
        "visited_slots": visited,
        "skip_clock_wall_s": secs,
        "slots_per_sec": slots as f64 / secs,
        "packets_delivered": delivered,
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sizes, slots, iters): (&[usize], u64, usize) = if smoke {
        (&[64, 256], 800, 1)
    } else {
        (&[64, 256, 1024], 4_000, 5)
    };

    let (low_slots, horizon_slots) = if smoke {
        (50_000, None)
    } else {
        (1_000_000, Some(100_000_000u64))
    };

    let points: Vec<(usize, Value, f64)> = sizes
        .iter()
        .map(|&n| {
            let (row, speedup) = run_point(n, slots, iters);
            (n, row, speedup)
        })
        .collect();
    let low_points: Vec<(usize, Value, f64)> = sizes
        .iter()
        .map(|&n| {
            let (row, speedup) = run_low_traffic_point(n, low_slots, iters);
            (n, row, speedup)
        })
        .collect();

    if smoke {
        eprintln!("smoke mode: identity checks passed on every point; JSON not rewritten");
        return;
    }

    for &(n, _, speedup) in &points {
        assert!(
            n < 256 || speedup >= 5.0,
            "n={n}: run() speedup over step() {speedup:.2}x below the 5x floor"
        );
    }
    for &(n, _, speedup) in &low_points {
        assert!(
            n < 1024 || speedup >= 10.0,
            "n={n}: run() speedup over step() {speedup:.2}x below the 10x floor"
        );
    }
    let rows: Vec<Value> = points.into_iter().map(|(_, row, _)| row).collect();
    let low_rows: Vec<Value> = low_points.into_iter().map(|(_, row, _)| row).collect();
    let horizon = horizon_slots.map(|h| run_horizon_row(1024, h));

    let doc = json!({
        "description": "simulation scaling: the step() reference (rosters rebuilt from every node's MAC answer each slot) vs Simulator::run, by network size (single thread). Both families are skip-eligible, so every run() column times the skip clock over cached plan rosters.",
        "note": "rows family: round-robin duty-cycled schedule with frame n/4 and 8 awake nodes per slot under saturated broadcast, so the skip clock visits every slot; step() pays O(n) schedule probes per slot to rebuild the rosters, run() borrows them from the plan, leaving only the memory-bound bulk sleep-charge sweep (a few ns per sleeping node) to grow with n. results_identical means the full SimReport (counters, per-node energy, latency bits, trace) matched between the two at that point.",
        "rows": rows,
        "low_traffic_note": "fully duty-cycled matching schedule (frame L = n, 1 tx + 1 rx per slot) under CBR unicast with per-node arrival ~1e-4/slot at n=64 (period scaled with n so network load is flat). step() visits every slot and rebuilds its rosters; the skip clock visits only generation slots and the slots where a backlogged sender's next hop listens (visited_slots, a deterministic count), and settles each node's idle listening lazily. results_identical is the same full-SimReport assertion as above, run at every point.",
        "low_traffic_rows": low_rows,
        "horizon_row": horizon.unwrap_or(Value::Null),
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim_scale.json");
    let body = to_string_pretty(&doc).expect("serialization cannot fail");
    ttdc_util::write_atomic(std::path::Path::new(path), (body + "\n").as_bytes())
        .expect("write BENCH_sim_scale.json");
    eprintln!("wrote {path}");
}
