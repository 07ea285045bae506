//! The two-increment fold (`add_counts`, `fold_two`) against the literal
//! ordered loop, bit for bit.
//!
//! The skip clock settles a node's idle span — listen occurrences and
//! sleep slots interleaved in slot order — through `fold_two`, so any
//! divergence from `for inc in seq { x += inc }` would break the engine's
//! bit-identity with a slot-by-slot run. The strategies aim at the places
//! where the constant-ulp argument is fragile: a start at 0.0, subnormals,
//! spans that cross binades, the tie binade of each increment, increments
//! absorbed below half an ulp, and counts past 2³².

use proptest::prelude::*;
use ttdc_util::{add_counts, fold_two, iterate_add, BinadeSteps};

/// The literal ordered loop: `a` at marked positions, `b` elsewhere.
fn ordered(mut x: f64, a: f64, b: f64, marks: &[bool]) -> f64 {
    for &m in marks {
        x += if m { a } else { b };
    }
    x
}

/// `fold_two` over `marks` (the marked positions as the oracle) must
/// equal the ordered loop.
fn check(x: f64, a: f64, b: f64, marks: &[bool]) {
    let at: Vec<u64> = (0..marks.len() as u64)
        .filter(|&i| marks[i as usize])
        .collect();
    let fast = fold_two(x, a, b, marks.len() as u64, at.len() as u64, |j| {
        at[j as usize]
    });
    let slow = ordered(x, a, b, marks);
    assert_eq!(
        fast.to_bits(),
        slow.to_bits(),
        "x={x:e} a={a:e} b={b:e} len={}: fold {fast:e} vs ordered {slow:e}",
        marks.len()
    );
}

/// A value `m · 2^e` from a mantissa and an exponent.
fn scaled(m: u64, e: i32) -> f64 {
    m as f64 * (e as f64).exp2()
}

/// Interleavings from all-`b` to all-`a`, sparse to dense.
fn marks(max_len: usize) -> impl Strategy<Value = Vec<bool>> {
    (0.0f64..1.0, prop::collection::vec(0.0f64..1.0, 0..max_len))
        .prop_map(|(density, draws)| draws.iter().map(|&u| u < density).collect())
}

#[test]
fn handpicked_edges() {
    let listen_sleep = [true, false, false, true, false, false, false, true];
    let long: Vec<bool> = listen_sleep.iter().cycle().take(5000).copied().collect();
    // The engine's constants from a zero ledger.
    check(0.0, 0.45, 0.0009, &long);
    check(-0.0, 0.45, 0.0009, &long);
    // Both increments zero (and a -0.0 start flipping to +0.0).
    check(-0.0, 0.0, 0.0, &long);
    check(3.0, 0.0, 0.0, &long);
    // Absorbed sleep increment next to a real listen increment.
    check(1.0, f64::EPSILON * 4.0, f64::EPSILON / 8.0, &long);
    // Ties: `a` exactly 1.5 ulps and `b` exactly 0.5 ulp in [1, 2).
    check(1.0, 1.5 * f64::EPSILON, 0.5 * f64::EPSILON, &long);
    check(
        1.0 + f64::EPSILON,
        1.5 * f64::EPSILON,
        0.3 * f64::EPSILON,
        &long,
    );
    // Subnormal start and increments, crossing into the normals.
    check(
        f64::MIN_POSITIVE / 2.0,
        f64::MIN_POSITIVE / 3.0,
        f64::MIN_POSITIVE / 7.0,
        &long,
    );
    // Just below a binade top.
    check(
        2.0 - 8.0 * f64::EPSILON,
        f64::EPSILON,
        3.0 * f64::EPSILON,
        &long,
    );
    // Empty sequence.
    check(1.25, 0.5, 0.25, &[]);
}

/// A count past 2³² through `fold_two`: a periodic interleaving (one `a`
/// then `period − 1` `b`s) against the block-by-block ordered fold, with
/// each block's `b` run fast-forwarded by `iterate_add`.
#[test]
fn counts_past_two_to_the_32() {
    let (a, b) = (0.45, 0.0009);
    let period = 1u64 << 20;
    let blocks = 5000u64; // 5000 · 2^20 ≈ 5.2e9 > 2^32
    let len = blocks * period;
    for x0 in [0.0, 1234.5678, 1.0e9] {
        let fast = fold_two(x0, a, b, len, blocks, |j| j * period);
        let mut slow = x0;
        for _ in 0..blocks {
            slow += a;
            slow = iterate_add(slow, b, period - 1);
        }
        assert_eq!(fast.to_bits(), slow.to_bits(), "x0={x0}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random magnitudes and interleavings across the exponent range,
    /// starts at zero included.
    #[test]
    fn matches_the_ordered_loop(
        x in prop_oneof![Just(0.0f64), (0u64..(1 << 53), -60i32..40).prop_map(|(m, e)| scaled(m, e))],
        (am, ae) in (0u64..(1 << 53), -90i32..10),
        (bm, be) in (0u64..(1 << 53), -90i32..10),
        marks in marks(1500),
    ) {
        check(x, scaled(am, ae), scaled(bm, be), &marks);
    }

    /// Subnormal starts and increments: the subnormals share the first
    /// normal binade's spacing, so folds run across that boundary.
    #[test]
    fn subnormals(
        xb in 0u64..(1 << 53),
        ab in 0u64..(1 << 50),
        bb in 0u64..(1 << 50),
        marks in marks(1500),
    ) {
        check(f64::from_bits(xb), f64::from_bits(ab), f64::from_bits(bb), &marks);
    }

    /// Increments engineered to lie at, just below or just above
    /// `q + 1/2` ulps of a start in [1, 2): each constant gets its tie
    /// binade, with the other increment tied too or not.
    #[test]
    fn tie_binades(
        xm in (1u64 << 52)..(1 << 53),
        qa in 0u64..64,
        qb in 0u64..64,
        twist_a in -1i64..2,
        twist_b in -1i64..2,
        marks in marks(3000),
    ) {
        let x = scaled(xm, -52);
        let a = ((2 * qa + 1) as i64 + twist_a) as f64 * (-53f64).exp2();
        let b = ((2 * qb + 1) as i64 + twist_b) as f64 * (-53f64).exp2();
        check(x, a, b, &marks);
    }

    /// Large increments relative to the start: every few steps cross a
    /// binade, so the fold alternates bisection and ordered steps.
    #[test]
    fn binade_crossings(
        xm in 1u64..(1 << 20),
        am in 1u64..(1 << 20),
        bm in 1u64..(1 << 20),
        shift in 0i32..8,
        marks in marks(3000),
    ) {
        check(scaled(xm, -20), scaled(am, -20 - shift), scaled(bm, -28 - shift), &marks);
    }

    /// Sub-half-ulp increments are absorbed, alone or next to a real one.
    #[test]
    fn absorbed_increments(
        xm in (1u64 << 52)..(1 << 53),
        tiny in 1u64..(1 << 50),
        am in 0u64..(1 << 10),
        marks in marks(1500),
    ) {
        let x = scaled(xm, -52);
        let absorbed = scaled(tiny, -105); // < 2^-55 < half of 2^-52
        check(x, scaled(am, -52), absorbed, &marks);
        check(x, absorbed, absorbed, &marks);
    }

    /// Memoised steps jump exactly where `add_counts` does, from any
    /// start in the binade they were taken in (and from no other), and
    /// they exist wherever a jump with both increments does.
    #[test]
    fn memoised_steps_match_add_counts(
        (xm, ym) in ((1u64 << 52)..(1 << 53), (1u64 << 52)..(1 << 53)),
        xe in -40i32..40,
        other in -2i32..3,
        (am, bm) in (0u64..(1 << 24), 0u64..(1 << 24)),
        gap in 40i32..80,
        ka in 0u64..(1 << 30),
        kb in 0u64..(1 << 30),
    ) {
        let x = scaled(xm, xe - 52);
        let (a, b) = (scaled(am, xe - gap), scaled(bm, xe - gap));
        let steps = BinadeSteps::at(x, a, b);
        let y = scaled(ym, xe + other - 52);
        for start in [x, y] {
            let direct = add_counts(start, a, ka, b, kb);
            match steps.jump(start, ka, kb) {
                Some(land) => prop_assert_eq!(Some(land.to_bits()), direct.map(f64::to_bits)),
                None => prop_assert!(
                    direct.is_none() || start != x && other != 0
                        || steps == BinadeSteps::default()
                ),
            }
        }
        if add_counts(x, a, 1, b, 1).is_some() {
            prop_assert!(steps != BinadeSteps::default());
        }
    }

    /// Whenever `add_counts` answers, it agrees with every ordering —
    /// here all `a`s first or all `b`s first, each run fast-forwarded by
    /// `iterate_add` — for counts up to 2⁴⁰.
    #[test]
    fn add_counts_is_order_free_for_large_counts(
        xm in (1u64 << 52)..(1 << 53),
        xe in -40i32..40,
        am in 0u64..(1 << 24),
        bm in 0u64..(1 << 24),
        gap in 55i32..80,
        ka in 0u64..(1 << 40),
        kb in 0u64..(1 << 40),
    ) {
        let x = scaled(xm, xe - 52);
        let (a, b) = (scaled(am, xe - gap), scaled(bm, xe - gap));
        if let Some(y) = add_counts(x, a, ka, b, kb) {
            let a_first = iterate_add(iterate_add(x, a, ka), b, kb);
            let b_first = iterate_add(iterate_add(x, b, kb), a, ka);
            prop_assert_eq!(y.to_bits(), a_first.to_bits());
            prop_assert_eq!(y.to_bits(), b_first.to_bits());
        }
    }
}
