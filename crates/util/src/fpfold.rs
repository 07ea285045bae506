//! Exact fast-forwarding of repeated floating-point addition.
//!
//! The time-skipping simulator must charge a node `k` slots of the sleep
//! floor in one call and land on *exactly* the `f64` that `k` individual
//! `x += c` additions would have produced — bit-identity with the dense
//! and sleep-sparse engine paths is the repo's non-negotiable contract,
//! and `x + k·c` (one multiply) rounds differently. [`iterate_add`]
//! closes the gap in O(binade crossings) instead of O(k):
//!
//! Within one binade every representable value is an integer multiple of
//! the unit in the last place `u`, i.e. `x = m·u` with `m ≤ 2^53`. The
//! increment measured in ulps is the exact rational `r = c/u = q + f`
//! (`q = ⌊r⌋`, `f` the fraction — exact because both operands are
//! integers times powers of two). One round-to-nearest-even addition then
//! advances the multiplier by a *constant*:
//!
//! * `f < 1/2` → `m ← m + q` (round down every step);
//! * `f > 1/2` → `m ← m + q + 1` (round up every step);
//! * `f = 1/2` → ties round to even: after at most one step `m` is even
//!   and stays even (`q` even keeps parity with `d = q`; `q` odd lands on
//!   even with `d = q + 1`), so the increment is again constant.
//!
//! A whole span of steps inside the binade is therefore one integer
//! multiply-add on the *bit pattern* (IEEE-754 bit patterns of positive
//! floats are ulp-counters, so `bits + t·d` is the landing value, and the
//! binade's top `2^53·u` is itself representable). Only the handful of
//! binade crossings — at most a few thousand between the subnormals and
//! infinity — take a manual step. An addition that rounds back onto `x`
//! (`c` below half an ulp, or `x` non-finite) is an absorbing fixed
//! point, detected **bitwise** (`-0.0 + 0.0` changes the bits but not the
//! value) and short-circuited.
//!
//! The same ulp arithmetic folds an *interleaving* of two increments
//! ([`add_counts`], [`fold_two`]): inside one binade, an increment that is
//! not a round-half-to-even tie there advances the multiplier by the same
//! `d` ulps at every step, whatever came before it. So `ka` additions of
//! `a` and `kb` of `b`, **in any order**, land on `bits + ka·d_a + kb·d_b`
//! as long as the final multiplier stays `≤ 2^53` — the order only matters
//! at binade crossings and in the (one per increment) tie binade, where
//! [`fold_two`] replays the sequence in order. [`BinadeSteps`] keeps one
//! binade's two advances for callers that fold the same pair again and
//! again.

const MASK52: u64 = (1 << 52) - 1;
const TWO53: u64 = 1 << 53;

/// `x`'s binade decomposition: the integer multiplier `m` of the ulp
/// `2^e`, for positive finite bit pattern `bits`. Subnormals and the
/// first normal binade share the spacing `2^-1074`, and for both the bit
/// pattern *is* the multiplier, so they fold into one "binade" reaching
/// up to `2^53` ulps.
#[inline]
fn decompose(bits: u64) -> (u64, i64) {
    let exp = (bits >> 52) & 0x7ff;
    if exp <= 1 {
        (bits, -1074)
    } else {
        ((bits & MASK52) | (1 << 52), exp as i64 - 1075)
    }
}

/// How the fractional ulp part of the increment compares to 1/2.
enum Frac {
    BelowHalf,
    Half,
    AboveHalf,
}

/// Advances as many of the remaining `k` steps of `x += c` as stay inside
/// `x`'s current binade, in O(1). Returns the landing value and the steps
/// taken (`≥ 1`), or `None` when not even one step can be fast-forwarded
/// (the caller falls back to a manual addition).
fn fast_span(x: f64, c: f64, k: u64) -> Option<(f64, u64)> {
    if !x.is_finite() || x <= 0.0 || c <= 0.0 || c.is_nan() || c.is_infinite() {
        return None;
    }
    let xb = x.to_bits();
    let (m, e) = decompose(xb);
    let (q, frac) = in_ulps(e, c);
    if q >= TWO53 {
        return None; // one step exits the binade
    }
    // The constant per-step ulp increment under round-to-nearest-even.
    let d = match frac {
        Frac::BelowHalf => q,
        Frac::AboveHalf => q + 1,
        Frac::Half => {
            if m & 1 == 1 {
                // Odd multiplier: take the one tie-rounding step that
                // lands on the even neighbour; from there the increment
                // is constant and the next call batches.
                let m1 = (m + q + 1) & !1;
                if m1 > TWO53 {
                    return None;
                }
                return Some((f64::from_bits(xb + (m1 - m)), 1));
            }
            // Even multiplier stays even: q even keeps d = q; q odd
            // rounds up to even every step with d = q + 1.
            q + (q & 1)
        }
    };
    if d == 0 {
        return Some((x, k)); // sub-half-ulp increment: absorbing
    }
    // Every landing must stay ≤ 2^53 ulps (the binade top, itself
    // representable as the first value of the next binade).
    let t = ((TWO53 - m) / d).min(k);
    if t == 0 {
        return None;
    }
    Some((f64::from_bits(xb + t * d), t))
}

/// The exact result of `for _ in 0..k { x += c }`, bit for bit, in
/// O(binade crossings) instead of O(k).
///
/// `c` must be non-negative (or NaN); negative increments walk *down*
/// through binades and are not fast-forwarded (debug-asserted, and fall
/// back to the literal loop, which may be slow but stays correct).
/// Non-finite inputs terminate through the absorbing-fixed-point check.
pub fn iterate_add(mut x: f64, c: f64, mut k: u64) -> f64 {
    debug_assert!(
        c >= 0.0 || c.is_nan(),
        "iterate_add requires a non-negative (or NaN) increment, got {c}"
    );
    while k > 0 {
        let stepped = x + c;
        if stepped.to_bits() == x.to_bits() {
            // Absorbing fixed point: every remaining step is a no-op.
            // Bitwise, not `==`: -0.0 + 0.0 changes the bits to +0.0.
            return x;
        }
        x = stepped;
        k -= 1;
        if k == 0 {
            break;
        }
        if let Some((nx, t)) = fast_span(x, c, k) {
            debug_assert!(t >= 1 && t <= k);
            x = nx;
            k -= t;
        }
    }
    x
}

/// The increment `c` (positive and finite) measured in ulps `2^e`: its
/// integer part `q`, saturated at `2^53` (a step that large leaves any
/// binade), and how its fraction compares to 1/2. The ratio is exact:
/// both are integers times powers of two. Increments below 2⁻¹¹ ulps
/// come out as `(0, BelowHalf)`: every addition rounds back.
#[inline]
fn in_ulps(e: i64, c: f64) -> (u64, Frac) {
    let (mc, ec) = decompose(c.to_bits());
    let shift = ec - e;
    if shift >= 0 {
        // Integer ratio (no fractional part, no rounding at all).
        if shift >= 64 {
            return (TWO53, Frac::BelowHalf);
        }
        let q = ((mc as u128) << shift).min(TWO53 as u128);
        return (q as u64, Frac::BelowHalf);
    }
    let s = -shift;
    if s >= 64 {
        return (0, Frac::BelowHalf); // r < 2^53 / 2^64 < 1/2
    }
    let s = s as u32;
    let rem = mc & ((1u64 << s) - 1);
    let frac = match rem.cmp(&(1u64 << (s - 1))) {
        std::cmp::Ordering::Less => Frac::BelowHalf,
        std::cmp::Ordering::Equal => Frac::Half,
        std::cmp::Ordering::Greater => Frac::AboveHalf,
    };
    (mc >> s, frac)
}

/// The constant per-step ulp advance of `x += c` for every `x` in the
/// binade whose ulp is `2^e`, or `None` when `c` is a round-half-to-even
/// tie there (the advance then depends on the multiplier's parity).
/// `c` must be finite and non-negative.
#[inline]
fn ulp_advance(e: i64, c: f64) -> Option<u64> {
    if c == 0.0 {
        return Some(0); // also -0.0, whose sign bit `in_ulps` would misread
    }
    match in_ulps(e, c) {
        (q, Frac::BelowHalf) => Some(q),
        (q, Frac::AboveHalf) => Some(q + 1),
        (_, Frac::Half) => None,
    }
}

/// The exact result of `ka` additions of `a` and `kb` additions of `b` to
/// `x`, **in any order**, when every step stays inside `x`'s binade — one
/// multiply-add on the bit pattern. `None` when that does not hold: `x` is
/// zero, negative or non-finite, an increment is negative or non-finite,
/// an increment that occurs is a tie in this binade, or the landing would
/// pass the binade top (`2^53` ulps). Counts may exceed `2^32`; the ulp
/// arithmetic is done in 128 bits.
#[inline]
pub fn add_counts(x: f64, a: f64, ka: u64, b: f64, kb: u64) -> Option<f64> {
    if !(x.is_finite() && x > 0.0) {
        return None;
    }
    let sane = |c: f64| c.is_finite() && c >= 0.0;
    if !sane(a) || !sane(b) {
        return None;
    }
    let xb = x.to_bits();
    let (m, e) = decompose(xb);
    let da = if ka == 0 { 0 } else { ulp_advance(e, a)? };
    let db = if kb == 0 { 0 } else { ulp_advance(e, b)? };
    let advance = ka as u128 * da as u128 + kb as u128 * db as u128;
    if m as u128 + advance > TWO53 as u128 {
        return None;
    }
    Some(f64::from_bits(xb + advance as u64))
}

/// The ulp advances of two fixed increments inside one binade, kept so
/// that repeated jumps from that binade skip recomputing them: a
/// memoised [`add_counts`] for the engine's settlements, which fold the
/// same two charges over and over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BinadeSteps {
    /// The binade (`decompose`'s ulp exponent); `i64::MIN` matches none.
    e: i64,
    da: u64,
    db: u64,
}

impl Default for BinadeSteps {
    /// Steps that match no binade.
    fn default() -> Self {
        BinadeSteps {
            e: i64::MIN,
            da: 0,
            db: 0,
        }
    }
}

impl BinadeSteps {
    /// The advances of `a` and `b` in `x`'s binade; steps matching no
    /// binade where [`add_counts`] could not jump with both increments
    /// (`x` not positive and finite, an increment negative or not finite,
    /// or either a tie there).
    pub fn at(x: f64, a: f64, b: f64) -> BinadeSteps {
        let sane = |c: f64| c.is_finite() && c >= 0.0;
        if !(x.is_finite() && x > 0.0 && sane(a) && sane(b)) {
            return BinadeSteps::default();
        }
        let (_, e) = decompose(x.to_bits());
        match (ulp_advance(e, a), ulp_advance(e, b)) {
            (Some(da), Some(db)) => BinadeSteps { e, da, db },
            _ => BinadeSteps::default(),
        }
    }

    /// [`add_counts`]`(x, a, ka, b, kb)` for the `a` and `b` these steps
    /// were taken for, when `x` lies in their binade; `None` otherwise or
    /// when the landing would pass the binade top.
    #[inline]
    pub fn jump(&self, x: f64, ka: u64, kb: u64) -> Option<f64> {
        if !(x.is_finite() && x > 0.0) {
            return None;
        }
        let xb = x.to_bits();
        let (m, e) = decompose(xb);
        if e != self.e {
            return None;
        }
        let advance = ka as u128 * self.da as u128 + kb as u128 * self.db as u128;
        if m as u128 + advance > TWO53 as u128 {
            return None;
        }
        Some(f64::from_bits(xb + advance as u64))
    }
}

/// The exact result of adding, in order, `len` increments to `x`: `a` at
/// the `marks` *marked* positions of a sequence and `b` at every other
/// one, where `mark_at(j)` is the position of the `j`-th mark (0-based,
/// strictly increasing, all below `len`).
///
/// Costs one [`add_counts`] when the whole sequence stays in one binade
/// (the common case, no `mark_at` call at all). A sequence that leaves
/// the binade jumps to the last mark before the crossing (a bisection
/// over the marks), then takes one ordered step — the run of `b`s up to
/// the next mark through [`iterate_add`], then that mark's `a` — and
/// tries to jump again. The same ordered steps cover a zero start and the
/// tie binade of either increment. Same increment contract as
/// [`iterate_add`].
pub fn fold_two(
    mut x: f64,
    a: f64,
    b: f64,
    len: u64,
    marks: u64,
    mark_at: impl Fn(u64) -> u64,
) -> f64 {
    // `p` positions and `k` marks are folded in so far.
    let (mut p, mut k) = (0u64, 0u64);
    loop {
        let rest_a = marks - k;
        if let Some(y) = add_counts(x, a, rest_a, b, len - p - rest_a) {
            return y;
        }
        if rest_a == 0 {
            return iterate_add(x, b, len - p);
        }
        // Jumping through mark `j` folds marks `k..=j` and the `b`s
        // among them; the advance only grows with `j`, so bisect.
        let through = |j: u64| {
            let q = mark_at(j);
            add_counts(x, a, j - k + 1, b, q - p - (j - k)).map(|y| (y, q))
        };
        if let Some(first) = through(k) {
            let (mut lo, mut hi, mut best) = (k, marks, first);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                match through(mid) {
                    Some(jump) => (lo, best) = (mid, jump),
                    None => hi = mid,
                }
            }
            (x, p, k) = (best.0, best.1 + 1, lo + 1);
            continue;
        }
        if (x + a).to_bits() == x.to_bits() && (x + b).to_bits() == x.to_bits() {
            return x; // both increments absorbed: nothing can move x again
        }
        // One ordered step: the `b`s up to the next mark, then its `a`.
        let q = mark_at(k);
        x = iterate_add(x, b, q - p) + a;
        p = q + 1;
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive(mut x: f64, c: f64, k: u64) -> f64 {
        for _ in 0..k {
            let stepped = x + c;
            if stepped.to_bits() == x.to_bits() {
                // Same absorbing-fixed-point cut as the real thing (sound
                // for an oracle too: the addition is a pure function of
                // the bits, so no later step can differ) — without it the
                // u64::MAX edge cases would loop for centuries.
                return x;
            }
            x = stepped;
        }
        x
    }

    /// Bit-exact agreement with the literal loop.
    fn check(x: f64, c: f64, k: u64) {
        let fast = iterate_add(x, c, k);
        let slow = naive(x, c, k);
        assert_eq!(
            fast.to_bits(),
            slow.to_bits(),
            "x={x:e} c={c:e} k={k}: fast {fast:e} vs naive {slow:e}"
        );
    }

    #[test]
    fn zero_steps_is_identity() {
        for x in [0.0, -0.0, 1.5, f64::INFINITY, f64::NAN] {
            assert_eq!(iterate_add(x, 1.0, 0).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn handpicked_edges() {
        // Integer ratios, exact landings on binade tops.
        check(1.0, f64::EPSILON, 1 << 20);
        check(1.0, 1.0, 1000);
        // Sub-half-ulp increment: absorbing immediately.
        check(1.0, f64::EPSILON / 8.0, u64::MAX);
        // Exactly half an ulp: tie steps, both entry parities.
        check(1.0, f64::EPSILON / 2.0, 10_000);
        check(1.0 + f64::EPSILON, f64::EPSILON / 2.0, 10_000);
        // Tie with an odd integer part (q odd at the tie).
        check(1.0, 1.5 * f64::EPSILON, 10_000);
        // Fraction just below and above half.
        check(1.0, f64::EPSILON * 0.4999, 50_000);
        check(1.0, f64::EPSILON * 0.5001, 50_000);
        // Start at zero, subnormal increments, subnormal start.
        check(0.0, f64::MIN_POSITIVE / 4.0, 100_000);
        check(f64::MIN_POSITIVE / 2.0, f64::MIN_POSITIVE / 8.0, 100_000);
        // Zero increment (with the -0.0 bit flip).
        check(-0.0, 0.0, 5);
        check(3.0, 0.0, u64::MAX);
        // Overflow to infinity and non-finite starts.
        check(f64::MAX, f64::MAX / 8.0, 100);
        check(f64::INFINITY, 1.0, u64::MAX);
        assert!(iterate_add(f64::NAN, 1.0, u64::MAX).is_nan());
        // The sleep floor the engine actually charges.
        check(0.0, 0.09 * 0.01, 1_000_000);
    }

    #[test]
    fn huge_k_is_fast_and_split_invariant() {
        // Cannot compare 2^40 steps against the naive loop, but the
        // definition forces split invariance; combined with the
        // proptested small-k agreement this pins the closed form.
        let c = 0.0009;
        let whole = iterate_add(0.0, c, 1 << 40);
        let split = iterate_add(
            iterate_add(0.0, c, 700_000_000_007),
            c,
            (1 << 40) - 700_000_000_007,
        );
        assert_eq!(whole.to_bits(), split.to_bits());
        assert!(whole > 0.0 && whole.is_finite());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random magnitudes across the whole exponent range.
        #[test]
        fn matches_naive_loop(
            xm in 0u64..(1 << 53),
            xe in -80i32..80,
            cm in 0u64..(1 << 53),
            ce in -90i32..10,
            k in 0u64..3000,
        ) {
            let x = xm as f64 * (xe as f64).exp2();
            let c = cm as f64 * (ce as f64).exp2();
            check(x, c, k);
        }

        /// Adversarial ulp-relative increments: c engineered near q + 1/2
        /// ulps of x, the rounding regime where constant-increment logic
        /// is most fragile.
        #[test]
        fn matches_naive_near_ties(
            xm in (1u64 << 52)..(1 << 53),
            q in 0u64..64,
            twist in -1i64..2,
            k in 1u64..3000,
        ) {
            let x = xm as f64 * (-52f64).exp2(); // in [1, 2)
            let ulps2 = (2 * q + 1) as i64 + twist; // 2r ulps: below/at/above tie
            let c = ulps2 as f64 * (-53f64).exp2();
            check(x, c, k);
        }

        /// Split invariance at arbitrary cut points (the property the
        /// engine relies on when flushing a node mid-span).
        #[test]
        fn split_invariant(
            xm in 0u64..(1 << 53),
            cm in 1u64..(1 << 53),
            ce in -80i32..0,
            k in 0u64..200_000u64,
            cut in 0u64..200_000u64,
        ) {
            let x = xm as f64 * (-26f64).exp2();
            let c = cm as f64 * (ce as f64).exp2();
            let cut = cut.min(k);
            let whole = iterate_add(x, c, k);
            let split = iterate_add(iterate_add(x, c, cut), c, k - cut);
            prop_assert_eq!(whole.to_bits(), split.to_bits());
        }
    }
}
