//! Max-min-fair flow allocation (progressive filling).
//!
//! At each step every routed city wants its offered load; the flows share
//! the access satellite's throughput and the landing gateway's backhaul.
//! The allocator implements the textbook progressive-filling algorithm:
//! all active flows grow at the same rate until either a flow reaches its
//! own cap (offered load or access-link capacity) or a shared resource
//! saturates, freezing every flow crossing it. The result is the unique
//! max-min-fair allocation for this resource model.
//!
//! The per-step computation is strictly sequential (city order, then
//! sorted resource order), so a step's output is a pure function of its
//! inputs; the engine fans steps out over `simrt` and collects them in
//! step order — byte-identical at any thread count.

use crate::graph::StepRoutes;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Allocation result for one step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StepAllocation {
    /// Served rate per city, Mbps (0 when unrouted).
    pub served_mbps: Vec<f64>,
    /// Traffic carried per access satellite, Mbps (store row → rate).
    pub sat_carried: BTreeMap<usize, f64>,
    /// Traffic landed per gateway, Mbps.
    pub gateway_carried: Vec<f64>,
}

impl StepAllocation {
    /// Total served rate, Mbps.
    pub fn total_served(&self) -> f64 {
        self.served_mbps.iter().sum()
    }
}

/// Reusable buffers for [`allocate_step_with`]: a sequential caller that
/// keeps one across steps runs the progressive-filling rounds with no
/// per-step heap allocation in steady state (only the returned
/// [`StepAllocation`] is freshly allocated).
///
/// Shared resources are numbered in one dense range: resource `i` is the
/// satellite `engaged[i]` for `i < engaged.len()`, and gateway
/// `i - engaged.len()` after that — satellites ascending, then gateways,
/// the order every reduction over resources runs in.
#[derive(Debug, Default)]
pub struct AllocScratch {
    caps: Vec<f64>,
    active: Vec<bool>,
    /// Engaged access satellites, sorted ascending.
    engaged: Vec<usize>,
    /// Per city, the two resources its flow crosses (satellite, gateway);
    /// looked up once per step, read when the flow freezes.
    crosses: Vec<[usize; 2]>,
    /// The step's flows, ascending by cap.
    by_cap: Vec<usize>,
    left: Vec<f64>,
    /// Live flows per resource, decremented on freeze.
    users: Vec<usize>,
    members: Vec<Vec<usize>>,
}

/// Progressive-filling allocation of `offered` (Mbps per city) over the
/// step's routes, subject to per-satellite and per-gateway capacity.
pub fn allocate_step(
    offered: &[f64],
    routes: &StepRoutes,
    sat_capacity_mbps: f64,
    gateway_capacity_mbps: f64,
    n_gateways: usize,
) -> StepAllocation {
    allocate_step_with(
        &mut AllocScratch::default(),
        offered,
        routes,
        sat_capacity_mbps,
        gateway_capacity_mbps,
        n_gateways,
    )
}

/// [`allocate_step`] with caller-provided scratch.
///
/// A round costs O(live flows), and every float is the one the textbook
/// loop (`tests::allocate_step_reference`: per-flow rates, per-round
/// recounts) produces, because:
///
/// 1. every live flow holds the same rate — all start at 0 and take every
///    increment — so one running `level` is each of their rates, and a
///    flow's served rate is the level at its freeze;
/// 2. `cap - level` rounds monotonically in `cap`, so over flows sorted by
///    cap the smallest headroom is the first live entry's and the flows a
///    round freezes at their cap are a prefix of the live entries;
/// 3. a resource's live users are an integer counter, decremented when a
///    member freezes, and its member list is walked only when it
///    saturates;
/// 4. a resource with `users` live flows is charged as if by `left -= delta`
///    repeated `users` times: `sub_repeated` gives those bits without the
///    repeats. `left -= users * delta` rounds differently and would move
///    every committed digest.
pub fn allocate_step_with(
    scratch: &mut AllocScratch,
    offered: &[f64],
    routes: &StepRoutes,
    sat_capacity_mbps: f64,
    gateway_capacity_mbps: f64,
    n_gateways: usize,
) -> StepAllocation {
    assert_eq!(offered.len(), routes.routes.len(), "city sets differ");
    const EPS: f64 = 1e-9;

    let n = offered.len();
    let mut rate = vec![0.0f64; n];
    let AllocScratch { caps, active, engaged, crosses, by_cap, left, users, members } = scratch;
    // Individual cap: offered load and the city's own access-link bound.
    caps.clear();
    caps.extend((0..n).map(|c| match &routes.routes[c] {
        Some(r) => offered[c].min(r.access_mbps).max(0.0),
        None => 0.0,
    }));
    active.clear();
    active.extend(caps.iter().map(|&cap| cap > EPS));

    engaged.clear();
    engaged.extend(
        active
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a)
            .map(|(c, _)| routes.routes[c].as_ref().expect("active implies routed").sat),
    );
    engaged.sort_unstable();
    engaged.dedup();

    // Shared resources: remaining capacity, live users, member cities.
    let n_resources = engaged.len() + n_gateways;
    left.clear();
    left.resize(engaged.len(), sat_capacity_mbps);
    left.resize(n_resources, gateway_capacity_mbps);
    users.clear();
    users.resize(n_resources, 0);
    if members.len() < n_resources {
        members.resize_with(n_resources, Vec::new);
    }
    for list in &mut members[..n_resources] {
        list.clear();
    }
    // Written below for every active city and read for no other.
    crosses.resize(n, [0; 2]);
    by_cap.clear();
    for c in (0..n).filter(|&c| active[c]) {
        let r = routes.routes[c].as_ref().expect("active implies routed");
        let slot = engaged.binary_search(&r.sat).expect("engaged access satellite");
        crosses[c] = [slot, engaged.len() + r.gateway];
        for i in crosses[c] {
            users[i] += 1;
            members[i].push(c);
        }
        by_cap.push(c);
    }
    // Every cap here is above `EPS`, so positive: bit order is numeric order.
    by_cap.sort_unstable_by_key(|&c| caps[c].to_bits());

    // A frozen flow keeps the level it froze at and stops using its two
    // resources.
    let freeze =
        |c: usize, level: f64, active: &mut [bool], rate: &mut [f64], users: &mut [usize]| {
            active[c] = false;
            rate[c] = level;
            for i in crosses[c] {
                users[i] -= 1;
            }
        };

    // Progressive filling: every round freezes a flow or a resource, so
    // the loop is bounded by cities + resources.
    let mut level = 0.0f64;
    // Everything in `by_cap[..head]` is frozen.
    let mut head = 0;
    for _round in 0..(n + n_resources + 1) {
        while head < by_cap.len() && !active[by_cap[head]] {
            head += 1;
        }
        if head == by_cap.len() {
            break;
        }
        // Largest uniform increment every live flow can take.
        let mut delta = caps[by_cap[head]] - level;
        for (&room, &live) in left.iter().zip(users.iter()) {
            if live > 0 {
                delta = delta.min(room / live as f64);
            }
        }
        if !delta.is_finite() || delta < 0.0 {
            break;
        }
        // Apply the increment and charge the shared resources.
        level += delta;
        let mut saturated = false;
        for (room, &live) in left.iter_mut().zip(users.iter()) {
            if live > 0 {
                *room = sub_repeated(*room, delta, live);
                saturated |= *room <= EPS;
            }
        }
        // Freeze flows at their individual cap, then flows on a saturated
        // resource.
        let mut froze = false;
        while head < by_cap.len() {
            let c = by_cap[head];
            if active[c] {
                if caps[c] - level > EPS {
                    break;
                }
                freeze(c, level, active, &mut rate, users);
                froze = true;
            }
            head += 1;
        }
        if saturated {
            for resource in 0..n_resources {
                if users[resource] > 0 && left[resource] <= EPS {
                    for &c in &members[resource] {
                        if active[c] {
                            freeze(c, level, active, &mut rate, users);
                            froze = true;
                        }
                    }
                }
            }
        }
        // Neither moved nor froze anything: no later round would. (A
        // round below EPS that froze a resource must go on — flows that do
        // not cross it may still have room; one above EPS that froze
        // nothing left a rounding residue the next round clears.)
        if !froze && delta <= EPS {
            break;
        }
    }
    for &c in by_cap[head..].iter().filter(|&&c| active[c]) {
        rate[c] = level;
    }

    let mut sat_carried: BTreeMap<usize, f64> = BTreeMap::new();
    let mut gateway_carried = vec![0.0f64; n_gateways];
    for (c, &r_mbps) in rate.iter().enumerate() {
        if r_mbps > 0.0 {
            let r = routes.routes[c].as_ref().expect("rate implies routed");
            *sat_carried.entry(r.sat).or_insert(0.0) += r_mbps;
            gateway_carried[r.gateway] += r_mbps;
        }
    }
    StepAllocation { served_mbps: rate, sat_carried, gateway_carried }
}

/// `x` after `x -= d` repeated `n` times, bit for bit, in O(1) for every
/// run of rounds that `x` spends inside one binade.
///
/// While a positive normal `x` stays in `[2^e, 2^(e+1))` every value it
/// takes is an integer multiple `m·u` of `u = ulp(x) = 2^(e-52)`, with `m`
/// its 53-bit significand. For a positive normal `d` below that binade
/// `q = d/u` is `d`'s significand shifted right — exact, and under `2^52` —
/// and the exact difference is `(m - q)·u`. If that is still inside the
/// binade, rounding it to nearest is rounding `m - q` to an integer:
///
/// - `frac(q) != ½`: `fl(x - d) = (m - D)·u` with `D = round(q)`, the same
///   integer every round, so `n` rounds subtract `n·D` from the significand;
/// - `frac(q) == ½` (common here: `delta = cap - level` is a cancellation
///   with few significant bits): ties-to-even lands on an even significand,
///   so a round takes whichever of `⌊q⌋`, `⌊q⌋ + 1` makes `m` even — from an
///   even `m` the even one of the two, every time; from an odd `m` the odd
///   one once, and `m` is even from then on.
///
/// Both hold for a round that ends at `m >= 2^52 + 1` (the exact value is
/// then above `2^52`, inside the binade, where the spacing is `u`), which
/// is what bounds a jump. The round that would end lower, and any round
/// whose operands are not as above (`x` zero, negative, subnormal, a power
/// of two or not finite; `d` not a positive normal below `x`'s binade), is
/// the literal subtraction, after which the next jump starts from wherever
/// that left `x`.
fn sub_repeated(mut x: f64, d: f64, mut n: usize) -> f64 {
    const IMPLICIT: u64 = 1 << 52;
    const FRACTION: u64 = IMPLICIT - 1;
    while n > 0 {
        let (x_bits, d_bits) = (x.to_bits(), d.to_bits());
        // Sign and exponent: 1..=2046 is a positive normal.
        let (x_exp, d_exp) = (x_bits >> 52, d_bits >> 52);
        // How far the significand can fall and stay above `2^52`.
        let room = (x_bits & FRACTION).wrapping_sub(1);
        if x_exp < 2047 && (1..x_exp).contains(&d_exp) && room < FRACTION {
            let shift = x_exp - d_exp;
            if shift > 53 {
                // `q < ½`: every round rounds back to `x`.
                return x;
            }
            let d_sig = (d_bits & FRACTION) | IMPLICIT;
            let (floor, half) = (d_sig >> shift, 1u64 << (shift - 1));
            // Selected, not branched on: ties are too common to predict.
            let rem = d_sig & (2 * half - 1);
            let tie = rem == half;
            let even = (floor + 1) & !1;
            let later = if tie { even } else { floor + (rem > half) as u64 };
            let first = if tie && x_bits & 1 == 1 { floor | 1 } else { later };
            // Every round fits (a product that overflows does not).
            let all = (n as u64 - 1).checked_mul(later).and_then(|t| t.checked_add(first));
            if let Some(total) = all.filter(|&t| t <= room) {
                return f64::from_bits(x_bits - total);
            }
            if first <= room {
                // `later > 0`, or every round would have fitted.
                let rounds = (room - first) / later;
                x = f64::from_bits(x_bits - first - rounds * later);
                n -= 1 + rounds as usize;
            }
        }
        // The round that leaves the binade, or one outside the closed form.
        x -= d;
        n -= 1;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Route;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn route(sat: usize, gateway: usize, access_mbps: f64) -> Option<Route> {
        Some(Route { sat, gateway, hops: 0, path_km: 1000.0, latency_ms: 5.0, access_mbps })
    }

    /// The textbook loop [`allocate_step_with`] replaced, kept as the
    /// reference it must equal bit for bit: per-flow rates, and the live
    /// list and every resource's user count recomputed each round.
    pub(super) fn allocate_step_reference(
        offered: &[f64],
        routes: &StepRoutes,
        sat_capacity_mbps: f64,
        gateway_capacity_mbps: f64,
        n_gateways: usize,
    ) -> StepAllocation {
        const EPS: f64 = 1e-9;

        let n = offered.len();
        let mut rate = vec![0.0f64; n];
        let caps: Vec<f64> = (0..n)
            .map(|c| match &routes.routes[c] {
                Some(r) => offered[c].min(r.access_mbps).max(0.0),
                None => 0.0,
            })
            .collect();
        let mut active: Vec<bool> = caps.iter().map(|&cap| cap > EPS).collect();

        let mut engaged: Vec<usize> = (0..n)
            .filter(|&c| active[c])
            .map(|c| routes.routes[c].as_ref().expect("active implies routed").sat)
            .collect();
        engaged.sort_unstable();
        engaged.dedup();
        let slot_of = |sat: usize| engaged.binary_search(&sat).expect("engaged access satellite");
        let mut sat_left = vec![sat_capacity_mbps; engaged.len()];
        let mut sat_members = vec![Vec::new(); engaged.len()];
        let mut gw_left = vec![gateway_capacity_mbps; n_gateways];
        let mut gw_members = vec![Vec::new(); n_gateways];
        for c in (0..n).filter(|&c| active[c]) {
            let r = routes.routes[c].as_ref().expect("active implies routed");
            sat_members[slot_of(r.sat)].push(c);
            gw_members[r.gateway].push(c);
        }

        for _round in 0..(n + engaged.len() + n_gateways + 1) {
            let live: Vec<usize> = (0..n).filter(|&c| active[c]).collect();
            if live.is_empty() {
                break;
            }
            let mut delta = f64::INFINITY;
            for &c in &live {
                delta = delta.min(caps[c] - rate[c]);
            }
            for (slot, &left) in sat_left.iter().enumerate() {
                let users = sat_members[slot].iter().filter(|&&c| active[c]).count();
                if users > 0 {
                    delta = delta.min(left / users as f64);
                }
            }
            for (g, &left) in gw_left.iter().enumerate() {
                let users = gw_members[g].iter().filter(|&&c| active[c]).count();
                if users > 0 {
                    delta = delta.min(left / users as f64);
                }
            }
            if !delta.is_finite() || delta < 0.0 {
                break;
            }
            for &c in &live {
                rate[c] += delta;
                let r = routes.routes[c].as_ref().expect("live implies routed");
                sat_left[slot_of(r.sat)] -= delta;
                gw_left[r.gateway] -= delta;
            }
            for &c in &live {
                if caps[c] - rate[c] <= EPS {
                    active[c] = false;
                }
            }
            for (slot, &left) in sat_left.iter().enumerate() {
                if left <= EPS {
                    for &c in &sat_members[slot] {
                        active[c] = false;
                    }
                }
            }
            for (g, &left) in gw_left.iter().enumerate() {
                if left <= EPS {
                    for &c in &gw_members[g] {
                        active[c] = false;
                    }
                }
            }
            if delta <= EPS && live.iter().all(|&c| active[c]) {
                break;
            }
        }

        let mut sat_carried: BTreeMap<usize, f64> = BTreeMap::new();
        let mut gateway_carried = vec![0.0f64; n_gateways];
        for (c, &r_mbps) in rate.iter().enumerate() {
            if r_mbps > 0.0 {
                let r = routes.routes[c].as_ref().expect("rate implies routed");
                *sat_carried.entry(r.sat).or_insert(0.0) += r_mbps;
                gateway_carried[r.gateway] += r_mbps;
            }
        }
        StepAllocation { served_mbps: rate, sat_carried, gateway_carried }
    }

    /// Same served rate per city to the bit, same carried totals.
    pub(super) fn assert_same_bits(a: &StepAllocation, b: &StepAllocation) {
        let bits =
            |x: &StepAllocation| x.served_mbps.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{:?} vs {:?}", a.served_mbps, b.served_mbps);
        assert_eq!(a.sat_carried, b.sat_carried);
        assert_eq!(a.gateway_carried, b.gateway_carried);
    }

    /// A small step drawn to hit the allocator's corners: no satellites at
    /// all, unrouted cities, unused gateways, zero offers, caps repeated
    /// across flows, unbounded access links, degenerate capacities.
    fn random_step(rng: &mut StdRng) -> (Vec<f64>, StepRoutes, f64, f64) {
        let n = rng.gen_range(1..=40);
        let n_sats = rng.gen_range(0..=6);
        let used_gateways = rng.gen_range(1..=3);
        let routes = (0..n)
            .map(|_| {
                if n_sats == 0 || rng.gen_bool(0.15) {
                    return None;
                }
                let access_mbps = match rng.gen_range(0..3) {
                    0 => 1e9,
                    1 => 50.0 * rng.gen_range(1..=6) as f64,
                    _ => rng.gen_range(1.0..2000.0),
                };
                route(rng.gen_range(0..n_sats), rng.gen_range(0..used_gateways), access_mbps)
            })
            .collect();
        let offered = (0..n)
            .map(|_| match rng.gen_range(0..4) {
                0 => 0.0,
                1 => 50.0 * rng.gen_range(1..=6) as f64,
                _ => rng.gen_range(0.0..1000.0),
            })
            .collect();
        let mut capacity = || match rng.gen_range(0..8) {
            0 => 0.0,
            1 => 1e-10,
            _ => rng.gen_range(50.0..4000.0),
        };
        let (sat_cap, gw_cap) = (capacity(), capacity());
        (offered, StepRoutes { routes }, sat_cap, gw_cap)
    }

    /// What [`sub_repeated`] replaced in the charge pass, and must equal.
    pub(super) fn sub_literally(mut x: f64, d: f64, n: usize) -> f64 {
        for _ in 0..n {
            x -= d;
        }
        x
    }

    /// What the seeded sweep met, classified from the operands and the
    /// literal loop's result — never from what `sub_repeated` did.
    #[derive(Debug, Default)]
    struct Swept {
        /// No tie, ≥ 2 rounds, the result in `x`'s binade and not `x`.
        plain_jump: usize,
        /// `frac(d / ulp(x)) == ½`, by the parity of `x`'s significand.
        tie_from_even: usize,
        tie_from_odd: usize,
        /// The result is positive, in a lower binade than `x`.
        left_the_binade: usize,
        /// `x` is a power of two; the result is within two ulps of one.
        from_the_floor: usize,
        to_the_floor: usize,
        /// `x == fl(n·d)` taken down to what `n` rounds leave of it.
        residue_negative: usize,
        residue_plus_zero: usize,
        /// `d == fl(c - l)` of two nearby rates; how many of those tied.
        coarse: usize,
        coarse_ties: usize,
        d_at_least_x: usize,
        /// `d` so far below `ulp(x)` that no round moves `x`.
        absorbed: usize,
        x_not_positive: usize,
        x_subnormal: usize,
        d_special: usize,
        n_zero: usize,
        n_one: usize,
        /// `n · round(d / ulp(x))` does not fit a `u64`.
        product_overflows: usize,
    }

    fn exponent(x: f64) -> u64 {
        x.to_bits() >> 52
    }

    /// `ulp(x)` of a positive normal `x` (well above the subnormals).
    pub(super) fn ulp(x: f64) -> f64 {
        f64::from_bits(exponent(x) << 52) * f64::EPSILON
    }

    #[test]
    fn sub_repeated_equals_the_literal_loop_on_a_seeded_sweep() {
        let mut rng = StdRng::seed_from_u64(0x5B_2EA7);
        let mut seen = Swept::default();
        // A positive normal anywhere between 2^-900 and 2^900.
        let wide = |rng: &mut StdRng| rng.gen_range(1.0..2.0) * 2f64.powi(rng.gen_range(-900..900));
        for i in 0..1_300_000usize {
            let regime = i % 13;
            let (x, d, n): (f64, f64, usize) = match regime {
                // Many rounds inside one binade, here and over the range.
                0 => {
                    let x = rng.gen_range(1.0..4000.0);
                    (x, x * rng.gen_range(1e-12..1e-3), rng.gen_range(2..200))
                }
                1 => {
                    let x = wide(&mut rng);
                    (x, x * rng.gen_range(1e-18..1e-3), rng.gen_range(2..200))
                }
                // An exact tie, from either parity, with ⌊q⌋ of either.
                2 => {
                    let x = if i % 2 == 0 { rng.gen_range(1.0..4000.0) } else { wide(&mut rng) };
                    let bits = rng.gen_range(1..40u32);
                    let floor = rng.gen_range(0..1u64 << bits);
                    (x, (floor as f64 + 0.5) * ulp(x), rng.gen_range(1..120))
                }
                // Down through several binades, some of it past zero.
                3 => {
                    let x = wide(&mut rng);
                    (x, x * rng.gen_range(0.001..0.3), rng.gen_range(2..60))
                }
                // All of `x`, to the residue: a `d` of few bits (exact
                // products, so `+0`) or of many (a rounding's worth left).
                4 => {
                    let k = rng.gen_range(1..400usize);
                    let d = if rng.gen_bool(0.5) {
                        rng.gen_range(1..2000) as f64 / 8.0
                    } else {
                        rng.gen_range(0.01..150.0)
                    };
                    (k as f64 * d, d, k + rng.gen_range(0..2usize))
                }
                // The allocator's own operands: room of a satellite or a
                // gateway, an increment that is a cancellation.
                5 | 6 => {
                    let level = rng.gen_range(0.0..150.0);
                    let cap = level + rng.gen_range(0.0..1.0) * rng.gen_range(0.0..1.0);
                    let capacity = if regime == 5 { 1800.0 } else { 10_000.0 };
                    (capacity * rng.gen_range(0.0..1.0), cap - level, rng.gen_range(1..300))
                }
                7 => {
                    let x = wide(&mut rng);
                    (x, x * rng.gen_range(1.0..8.0), rng.gen_range(1..20))
                }
                // `x` zero, negative or subnormal; a subnormal `d`.
                8 => {
                    let tiny = |rng: &mut StdRng| f64::from_bits(rng.gen_range(1..1u64 << 52));
                    let x = match rng.gen_range(0..4) {
                        0 => 0.0,
                        1 => -0.0,
                        2 => -wide(&mut rng),
                        _ => tiny(&mut rng),
                    };
                    let d = if rng.gen_bool(0.5) { tiny(&mut rng) } else { wide(&mut rng) };
                    (x, d, rng.gen_range(1..40))
                }
                9 => {
                    let specials = [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                    let x = [wide(&mut rng), rng.gen_range(1.0..4000.0), f64::INFINITY, f64::NAN]
                        [rng.gen_range(0..4usize)];
                    (x, specials[rng.gen_range(0..specials.len())], rng.gen_range(1..40))
                }
                10 => {
                    let x = wide(&mut rng);
                    (x, x * rng.gen_range(1e-17..2.0), rng.gen_range(0..2))
                }
                // Onto the binade's floor, or an ulp or two short of or past
                // it — from the floor itself when that is no way at all —
                // by steps `D + f` ulps, `f` a multiple of an eighth.
                11 => {
                    let floor = 2f64.powi(rng.gen_range(-900..900));
                    let ulp = floor * f64::EPSILON;
                    let bits = rng.gen_range(0..40u32);
                    let step = if i % 4 == 0 { 0 } else { rng.gen_range(0..1u64 << bits) };
                    let n = rng.gen_range(1..50usize);
                    let x = floor + (n as u64 * step + rng.gen_range(0..3u64)) as f64 * ulp;
                    (x, (step as f64 + rng.gen_range(0..8u32) as f64 / 8.0) * ulp, n)
                }
                // Rare (each costs its `n` literal rounds): a product that
                // does not fit. Otherwise a `d` far below `ulp(x)`.
                _ => {
                    let x = wide(&mut rng);
                    if i % 2600 == 12 {
                        (x, x * rng.gen_range(0.26..0.49), rng.gen_range(1usize << 14..1 << 15))
                    } else {
                        (x, x * 2f64.powi(-rng.gen_range(54..200i32)), rng.gen_range(1..1000))
                    }
                }
            };
            let want = sub_literally(x, d, n);
            let got = sub_repeated(x, d, n);
            assert_eq!(got.to_bits(), want.to_bits(), "{x:e} - {d:e} × {n}: {got:e} vs {want:e}");

            seen.n_zero += (n == 0) as usize;
            seen.n_one += (n == 1) as usize;
            let x_normal = x > 0.0 && x.is_finite() && exponent(x) > 0;
            let d_ordinary = d > 0.0 && d.is_finite();
            seen.x_not_positive += (x <= 0.0) as usize;
            seen.x_subnormal += (x > 0.0 && exponent(x) == 0) as usize;
            seen.d_special += !d_ordinary as usize;
            if !(x_normal && d_ordinary && n > 0) {
                continue;
            }
            seen.d_at_least_x += (d >= x) as usize;
            // Exact: a division by a power of two, far from the subnormals.
            let q = d / ulp(x);
            let tie = q < 2f64.powi(52) && q.fract() == 0.5;
            if tie && x.to_bits() & 1 == 0 {
                seen.tie_from_even += 1;
            } else if tie {
                seen.tie_from_odd += 1;
            }
            let same_binade = exponent(want) == exponent(x);
            seen.plain_jump += (!tie && n >= 2 && same_binade && want != x) as usize;
            seen.absorbed += (n >= 2 && q < 0.5 && want == x) as usize;
            seen.left_the_binade += (want > 0.0 && exponent(want) < exponent(x)) as usize;
            let fraction = |x: f64| x.to_bits() & ((1 << 52) - 1);
            seen.from_the_floor += (fraction(x) == 0) as usize;
            seen.to_the_floor +=
                (want > 0.0 && (fraction(want) + 2) & ((1 << 52) - 1) < 5) as usize;
            if regime == 4 {
                seen.residue_negative += (want < 0.0) as usize;
                seen.residue_plus_zero += (want.to_bits() == 0) as usize;
            }
            if regime == 5 || regime == 6 {
                seen.coarse += 1;
                seen.coarse_ties += tie as usize;
            }
            seen.product_overflows += (q.round() * n as f64 >= 2f64.powi(64)) as usize;
        }
        assert!(
            seen.plain_jump >= 150_000
                && seen.tie_from_even >= 30_000
                && seen.tie_from_odd >= 30_000
                && seen.left_the_binade >= 50_000
                && seen.from_the_floor >= 5_000
                && seen.to_the_floor >= 30_000
                && seen.residue_negative >= 10_000
                && seen.residue_plus_zero >= 10_000
                && seen.coarse >= 150_000
                && seen.coarse_ties >= 1_000
                && seen.d_at_least_x >= 50_000
                && seen.absorbed >= 50_000
                && seen.x_not_positive >= 50_000
                && seen.x_subnormal >= 10_000
                && seen.d_special >= 50_000
                && seen.n_zero >= 10_000
                && seen.n_one >= 10_000
                && seen.product_overflows >= 300,
            "vacuous: {seen:?}"
        );
    }

    #[test]
    fn a_round_that_freezes_nothing_above_eps_is_not_the_last() {
        // Three users split 1e9: after three subtractions of 1e9 / 3 the
        // satellite keeps a rounding residue above the freeze threshold,
        // so the first round freezes nothing. Filling must go on, or the
        // lone flow on satellite 1 stops at a third of its satellite.
        let routes = StepRoutes {
            routes: vec![
                route(0, 0, 1e12),
                route(0, 0, 1e12),
                route(0, 0, 1e12),
                route(1, 1, 1e12),
            ],
        };
        let a = allocate_step(&[1e12; 4], &routes, 1e9, 1e12, 2);
        assert!((a.served_mbps[3] - 1e9).abs() < 1e-3, "{:?}", a.served_mbps);
    }

    #[test]
    fn equals_the_reference_bit_for_bit_on_seeded_steps() {
        let mut rng = StdRng::seed_from_u64(0xA110C);
        let mut scratch = AllocScratch::default();
        for _ in 0..2500 {
            let (offered, routes, sat_cap, gw_cap) = random_step(&mut rng);
            let new = allocate_step_with(&mut scratch, &offered, &routes, sat_cap, gw_cap, 3);
            let reference = allocate_step_reference(&offered, &routes, sat_cap, gw_cap, 3);
            assert_same_bits(&new, &reference);
        }
    }

    #[test]
    fn equals_the_reference_bit_for_bit_on_a_dense_step() {
        // The shape of the benchmark's dense workload: 2 100 terminals on
        // 30 satellites landing at 21 gateways, at a satellite capacity
        // that never binds, one that serves about half, one that starves.
        let mut rng = StdRng::seed_from_u64(2100);
        let routes = StepRoutes {
            routes: (0..2100)
                .map(|_| {
                    let access_mbps =
                        if rng.gen_bool(0.5) { 1e9 } else { rng.gen_range(20.0..150.0) };
                    route(rng.gen_range(0..30), rng.gen_range(0..21), access_mbps)
                })
                .collect(),
        };
        let offered: Vec<f64> = (0..2100).map(|_| rng.gen_range(1.0..100.0)).collect();
        for (sat_cap, served) in [(1e6, 0.9..1.0), (1_800.0, 0.4..0.6), (300.0, 0.0..0.15)] {
            let new = allocate_step(&offered, &routes, sat_cap, 10_000.0, 21);
            let reference = allocate_step_reference(&offered, &routes, sat_cap, 10_000.0, 21);
            assert_same_bits(&new, &reference);
            let served_ratio = new.total_served() / offered.iter().sum::<f64>();
            assert!(served.contains(&served_ratio), "sat cap {sat_cap}: served {served_ratio}");
        }
    }

    #[test]
    fn a_resource_emptied_by_a_sub_eps_round_does_not_strand_other_flows() {
        // After flow 2 freezes at its cap, satellite 0 is left with 1.8e-9
        // for two users: the next increment is 0.9e-9, below the freeze
        // threshold. That round saturates satellite 0 and nothing else;
        // flow 3, alone on satellite 2, must go on to take all 100.
        let routes = StepRoutes {
            routes: vec![route(0, 0, 1e9), route(0, 0, 1e9), route(1, 1, 1e9), route(2, 1, 1e9)],
        };
        let offered = [500.0, 500.0, 50.0 - 0.9e-9, 1000.0];
        let a = allocate_step(&offered, &routes, 100.0, 1e9, 2);
        assert_eq!(a.served_mbps, [50.0, 50.0, offered[2], 100.0]);
        assert_same_bits(&a, &allocate_step_reference(&offered, &routes, 100.0, 1e9, 2));
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh() {
        // One scratch across dissimilar steps (different city counts,
        // engaged satellites, gateways) must not leak state between calls.
        // The last step is small, has unrouted cities and a saturating
        // satellite, and follows a large step and one whose filling is
        // abandoned with its flow still live (nothing bounds it): a stale
        // satellite slot, cap order, member list or user count would
        // change its result.
        let mut rng = StdRng::seed_from_u64(7);
        let large: Vec<f64> = (0..60).map(|_| rng.gen_range(1.0..90.0)).collect();
        let mut scratch = AllocScratch::default();
        let mut check = |routes: Vec<Option<Route>>, offered: &[f64], cap: f64| {
            let routes = StepRoutes { routes };
            let reused = allocate_step_with(&mut scratch, offered, &routes, cap, cap, 3);
            assert_same_bits(&reused, &allocate_step(offered, &routes, cap, cap, 3));
        };
        check(vec![route(5, 2, 1e9), route(1, 0, 40.0), None], &[100.0, 90.0, 10.0], 150.0);
        check(vec![route(0, 0, 1e9)], &[500.0], 150.0);
        check(
            vec![route(3, 1, 120.0), route(3, 1, 1e9), route(4, 2, 1e9), None],
            &[80.0, 80.0, 80.0, 5.0],
            150.0,
        );
        check((0..60).map(|c| route(c % 7, c % 3, 1e9)).collect(), &large, 150.0);
        check(vec![route(6, 2, f64::INFINITY)], &[f64::INFINITY], f64::INFINITY);
        check(
            vec![None, route(6, 2, 1e9), route(6, 2, 1e9), None, route(2, 0, 1e9)],
            &[70.0, 120.0, 100.0, 30.0, 140.0],
            150.0,
        );
    }

    #[test]
    fn unconstrained_serves_everything() {
        let routes = StepRoutes { routes: vec![route(0, 0, 1e9), route(1, 0, 1e9)] };
        let a = allocate_step(&[100.0, 50.0], &routes, 1e9, 1e9, 1);
        assert!((a.served_mbps[0] - 100.0).abs() < 1e-6);
        assert!((a.served_mbps[1] - 50.0).abs() < 1e-6);
        assert!((a.gateway_carried[0] - 150.0).abs() < 1e-6);
    }

    #[test]
    fn shared_satellite_splits_fairly() {
        // Two equal flows on one satellite of capacity 100: 50 each.
        let routes = StepRoutes { routes: vec![route(7, 0, 1e9), route(7, 0, 1e9)] };
        let a = allocate_step(&[500.0, 500.0], &routes, 100.0, 1e9, 1);
        assert!((a.served_mbps[0] - 50.0).abs() < 1e-6, "{:?}", a.served_mbps);
        assert!((a.served_mbps[1] - 50.0).abs() < 1e-6);
        assert!((a.sat_carried[&7] - 100.0).abs() < 1e-6);
    }

    #[test]
    fn max_min_redistributes_slack() {
        // A small flow (10) and a big one share a 100-capacity satellite:
        // max-min gives the big flow the leftover 90, not just 50.
        let routes = StepRoutes { routes: vec![route(0, 0, 1e9), route(0, 0, 1e9)] };
        let a = allocate_step(&[10.0, 500.0], &routes, 100.0, 1e9, 1);
        assert!((a.served_mbps[0] - 10.0).abs() < 1e-6);
        assert!((a.served_mbps[1] - 90.0).abs() < 1e-6, "{:?}", a.served_mbps);
    }

    #[test]
    fn gateway_bottleneck_caps_the_sum() {
        // Three flows on distinct satellites land on one 60-Mbps gateway.
        let routes =
            StepRoutes { routes: vec![route(0, 0, 1e9), route(1, 0, 1e9), route(2, 0, 1e9)] };
        let a = allocate_step(&[100.0, 100.0, 100.0], &routes, 1e9, 60.0, 1);
        for r in &a.served_mbps {
            assert!((r - 20.0).abs() < 1e-6, "{:?}", a.served_mbps);
        }
        assert!((a.gateway_carried[0] - 60.0).abs() < 1e-6);
    }

    #[test]
    fn access_link_bounds_a_single_flow() {
        let routes = StepRoutes { routes: vec![route(0, 0, 30.0)] };
        let a = allocate_step(&[100.0], &routes, 1e9, 1e9, 1);
        assert!((a.served_mbps[0] - 30.0).abs() < 1e-6);
    }

    #[test]
    fn unrouted_cities_get_nothing() {
        let routes = StepRoutes { routes: vec![None, route(0, 0, 1e9)] };
        let a = allocate_step(&[100.0, 100.0], &routes, 1e9, 1e9, 1);
        assert_eq!(a.served_mbps[0], 0.0);
        assert!(a.served_mbps[1] > 0.0);
    }

    #[test]
    fn served_never_exceeds_offered_or_capacity() {
        // A mixed scenario; spot-check global invariants.
        let routes = StepRoutes {
            routes: vec![
                route(0, 0, 200.0),
                route(0, 1, 1e9),
                route(1, 0, 1e9),
                None,
                route(1, 1, 50.0),
            ],
        };
        let offered = [120.0, 300.0, 80.0, 10.0, 500.0];
        let a = allocate_step(&offered, &routes, 250.0, 260.0, 2);
        for (c, r) in a.served_mbps.iter().enumerate() {
            assert!(*r <= offered[c] + 1e-6, "city {c} over-served");
        }
        for (&s, &carried) in &a.sat_carried {
            assert!(carried <= 250.0 + 1e-6, "sat {s} over capacity: {carried}");
        }
        for (g, &carried) in a.gateway_carried.iter().enumerate() {
            assert!(carried <= 260.0 + 1e-6, "gateway {g} over capacity: {carried}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{allocate_step_reference, assert_same_bits, sub_literally, ulp};
    use super::*;
    use crate::graph::{Route, StepRoutes};
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    const N_GATEWAYS: usize = 3;
    /// Saturation/fairness slack: the allocator freezes at `EPS = 1e-9`
    /// residuals, so with magnitudes up to a few thousand Mbps any real
    /// violation dwarfs this.
    const TOL: f64 = 1e-5;

    fn arb_route() -> impl Strategy<Value = Option<Route>> {
        prop_oneof![
            1 => Just(None),
            4 => (0usize..6, 0usize..N_GATEWAYS, 1.0f64..2000.0).prop_map(
                |(sat, gateway, access_mbps)| Some(Route {
                    sat,
                    gateway,
                    hops: 0,
                    path_km: 1500.0,
                    latency_ms: 7.0,
                    access_mbps,
                })
            ),
        ]
    }

    /// (offered, routes, sat capacity, gateway capacity) scenarios small
    /// enough to shrink well but rich enough to saturate either resource.
    fn arb_scenario() -> impl Strategy<Value = (Vec<f64>, Vec<Option<Route>>, f64, f64)> {
        (1usize..10).prop_flat_map(|n| {
            (
                prop::collection::vec(0.0f64..1000.0, n),
                prop::collection::vec(arb_route(), n),
                50.0f64..4000.0,
                50.0f64..4000.0,
            )
        })
    }

    /// `(x, d)` for [`sub_repeated`]: unrelated operands of every class, a
    /// `d` that is a fraction of `x`, and a `d` of exactly `k + ½` ulps of `x`.
    fn arb_operands() -> impl Strategy<Value = (f64, f64)> {
        let wide = || (1.0f64..2.0, -900i32..900).prop_map(|(m, e)| m * 2f64.powi(e));
        prop_oneof![
            (prop::num::f64::ANY, prop::num::f64::ANY),
            (wide(), 1e-17f64..2.0).prop_map(|(x, ratio)| (x, x * ratio)),
            (wide(), 0u64..1 << 40).prop_map(|(x, k)| (x, (k as f64 + 0.5) * ulp(x))),
        ]
    }

    proptest! {
        /// The closed-form charge is the repeated subtraction, bit for bit.
        #[test]
        fn sub_repeated_equals_the_literal_loop((x, d) in arb_operands(), n in 0usize..400) {
            prop_assert_eq!(
                sub_repeated(x, d, n).to_bits(),
                sub_literally(x, d, n).to_bits(),
                "{:e} - {:e} × {}", x, d, n
            );
        }

        /// The counter-and-level loop is the textbook loop, bit for bit.
        #[test]
        fn equals_the_reference_bit_for_bit((offered, routes, sat_cap, gw_cap) in arb_scenario()) {
            let step = StepRoutes { routes };
            assert_same_bits(
                &allocate_step(&offered, &step, sat_cap, gw_cap, N_GATEWAYS),
                &allocate_step_reference(&offered, &step, sat_cap, gw_cap, N_GATEWAYS),
            );
        }

        /// Served rates never exceed the offered load, the access link,
        /// any satellite's throughput, or any gateway's backhaul; cities
        /// without a route get nothing.
        #[test]
        fn never_exceeds_any_capacity((offered, routes, sat_cap, gw_cap) in arb_scenario()) {
            let step = StepRoutes { routes: routes.clone() };
            let a = allocate_step(&offered, &step, sat_cap, gw_cap, N_GATEWAYS);
            for (c, &served) in a.served_mbps.iter().enumerate() {
                prop_assert!(served >= 0.0);
                match &routes[c] {
                    Some(r) => prop_assert!(served <= offered[c].min(r.access_mbps) + TOL),
                    None => prop_assert_eq!(served, 0.0),
                }
            }
            for (&s, &carried) in &a.sat_carried {
                prop_assert!(carried <= sat_cap + TOL, "sat {} over capacity: {}", s, carried);
            }
            for (g, &carried) in a.gateway_carried.iter().enumerate() {
                prop_assert!(carried <= gw_cap + TOL, "gateway {} over capacity: {}", g, carried);
            }
        }

        /// The allocation is invariant under permutation of the demand
        /// order: progressive filling grows every active flow by the same
        /// increment, so city order only changes the order of identical
        /// float operations.
        #[test]
        fn invariant_under_demand_permutation(
            (offered, routes, sat_cap, gw_cap) in arb_scenario(),
            seed in 0u64..1_000,
        ) {
            let n = offered.len();
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
            let p_offered: Vec<f64> = perm.iter().map(|&c| offered[c]).collect();
            let p_routes: Vec<Option<Route>> = perm.iter().map(|&c| routes[c]).collect();
            let direct = allocate_step(
                &offered,
                &StepRoutes { routes: routes.clone() },
                sat_cap,
                gw_cap,
                N_GATEWAYS,
            );
            let permuted = allocate_step(
                &p_offered,
                &StepRoutes { routes: p_routes },
                sat_cap,
                gw_cap,
                N_GATEWAYS,
            );
            for (i, &c) in perm.iter().enumerate() {
                let x = direct.served_mbps[c];
                let y = permuted.served_mbps[i];
                prop_assert!((x - y).abs() <= 1e-9, "city {}: {} vs {}", c, x, y);
            }
        }

        /// Max-min fairness (bottleneck characterization): a flow below
        /// its individual cap must cross a saturated resource on which no
        /// co-member receives more — so no flow can gain without taking
        /// from a flow that is no better off.
        #[test]
        fn max_min_bottleneck_condition((offered, routes, sat_cap, gw_cap) in arb_scenario()) {
            let step = StepRoutes { routes: routes.clone() };
            let a = allocate_step(&offered, &step, sat_cap, gw_cap, N_GATEWAYS);
            for (c, &served) in a.served_mbps.iter().enumerate() {
                let Some(r) = &routes[c] else { continue };
                let cap = offered[c].min(r.access_mbps);
                if cap <= TOL || served >= cap - TOL {
                    continue; // individually capped: nothing to redistribute
                }
                let sat_carried = a.sat_carried.get(&r.sat).copied().unwrap_or(0.0);
                let sat_saturated = sat_carried >= sat_cap - TOL;
                let gw_saturated = a.gateway_carried[r.gateway] >= gw_cap - TOL;
                prop_assert!(
                    sat_saturated || gw_saturated,
                    "flow {} sits at {} below its cap {} with slack everywhere",
                    c,
                    served,
                    cap
                );
                let max_rate = |on: &dyn Fn(&Route) -> bool| {
                    (0..routes.len())
                        .filter(|&d| routes[d].as_ref().is_some_and(|rd| on(rd)))
                        .map(|d| a.served_mbps[d])
                        .fold(0.0, f64::max)
                };
                let mut bottlenecked = false;
                if sat_saturated {
                    bottlenecked |= served >= max_rate(&|rd: &Route| rd.sat == r.sat) - TOL;
                }
                if gw_saturated {
                    bottlenecked |=
                        served >= max_rate(&|rd: &Route| rd.gateway == r.gateway) - TOL;
                }
                prop_assert!(
                    bottlenecked,
                    "flow {} is not maximal on any of its saturated resources",
                    c
                );
            }
        }
    }
}
