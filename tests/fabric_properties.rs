//! Property suite for the shared-bandwidth fabric (`kooza_sim::Fabric`).
//!
//! Three invariants anchor the model against the legacy fixed-service
//! link and against the max-min fairness definition:
//!
//! 1. per-link aggregate rates never exceed capacity,
//! 2. rates are invariant under flow insertion order, and
//! 3. an uncontended flow completes exactly when `LinkModel::transfer`
//!    says it should (the degenerate single-link topology).
//!
//! Two more pin bookkeeping: every flow completes exactly once, and every
//! link carries exactly the bytes its flows moved, including flows that
//! were cancelled or dropped by a host failure partway through.
//!
//! Runs on the in-repo `kooza-check` harness: deterministic seeded case
//! streams, configurable via `KOOZA_CHECK_CASES` / `KOOZA_CHECK_SEED`.

use kooza_check::gen::{f64_range, u64_range, usize_range, vec_of, zip2, zip3, zip4};
use kooza_check::{checker, ensure, CaseResult, PropResult};
use kooza_gfs::{LinkModel, LinkParams};
use kooza_sim::rng::Rng64;
use kooza_sim::{Endpoint, Fabric, SimDuration, SimTime};

const BW: f64 = 125e6;
const LAT: SimDuration = SimDuration::from_micros(100);

/// How far a link's carried bytes may miss its flows' bytes, per flow
/// crossing it. A flow completes with up to 1.5 ns of its rate
/// undelivered (`drained`), and its finish estimate rounds up by up to
/// 1 ns; rates never exceed the host link's `BW`.
const SLACK_PER_FLOW: f64 = BW * 2.5e-9 + 1e-6;

/// Mirror of the fabric's documented link layout (host up, host down,
/// rack up, rack down) and routing, used to audit rates from outside.
fn path(hosts: usize, spr: usize, from: Endpoint, to: Endpoint) -> Vec<usize> {
    let racks = hosts.div_ceil(spr);
    let host_up = |h: usize| h;
    let host_down = |h: usize| hosts + h;
    let rack_up = |r: usize| 2 * hosts + r;
    let rack_down = |r: usize| 2 * hosts + racks + r;
    match (from, to) {
        (Endpoint::Client, Endpoint::Client) => vec![],
        (Endpoint::Client, Endpoint::Host(b)) => vec![rack_down(b / spr), host_down(b)],
        (Endpoint::Host(a), Endpoint::Client) => vec![host_up(a), rack_up(a / spr)],
        (Endpoint::Host(a), Endpoint::Host(b)) if a == b => vec![],
        (Endpoint::Host(a), Endpoint::Host(b)) if a / spr == b / spr => {
            vec![host_up(a), host_down(b)]
        }
        (Endpoint::Host(a), Endpoint::Host(b)) => {
            vec![host_up(a), rack_up(a / spr), rack_down(b / spr), host_down(b)]
        }
    }
}

/// Capacity of link `l` under the same layout.
fn capacity(hosts: usize, spr: usize, oversub: f64, l: usize) -> f64 {
    if l < 2 * hosts {
        BW
    } else {
        spr as f64 * BW / oversub
    }
}

/// Decodes a deterministic multiset of flow endpoints from raw seeds.
fn decode_flows(hosts: usize, picks: &[(u64, u64)]) -> Vec<(Endpoint, Endpoint)> {
    picks
        .iter()
        .map(|&(a, b)| {
            // 0 encodes the client, 1..=hosts encodes a host index.
            let ep = |v: u64| match v as usize % (hosts + 1) {
                0 => Endpoint::Client,
                h => Endpoint::Host(h - 1),
            };
            (ep(a), ep(b))
        })
        .collect()
}

/// Aggregate max-min rates never exceed any link's capacity, and every
/// ungated flow with a non-empty path is assigned a positive share.
#[test]
fn rates_respect_link_capacities() {
    checker("rates_respect_link_capacities").run(
        zip4(
            usize_range(1, 24),                         // hosts
            usize_range(1, 6),                          // servers per rack
            f64_range(1.0, 3.0),                        // oversubscription cap
            vec_of(zip2(u64_range(0, 1 << 30), u64_range(0, 1 << 30)), 1, 24),
        ),
        |&(hosts, spr, oversub_raw, ref picks)| {
            let oversub = oversub_raw.min(spr as f64);
            let mut fabric = Fabric::new(hosts, spr, oversub, BW, LAT);
            let flows = decode_flows(hosts, picks);
            let ids: Vec<u64> = flows
                .iter()
                .map(|&(from, to)| fabric.start_flow(from, to, 1 << 22))
                .collect();
            // Step just past the common gate so every flow is rated.
            fabric.advance(SimTime::ZERO + LAT + SimDuration::from_nanos(1));
            let mut load = vec![0.0f64; fabric.link_count()];
            for (&id, &(from, to)) in ids.iter().zip(&flows) {
                let links = path(hosts, spr, from, to);
                let Some(rate) = fabric.rate_of(id) else {
                    // Empty-path flows complete at the gate; nothing else may.
                    ensure!(links.is_empty(), "flow {id} with links vanished early");
                    continue;
                };
                ensure!(rate > 0.0, "active flow {id} left unrated");
                ensure!(
                    rate <= BW * (1.0 + 1e-9),
                    "flow {id} rated {rate} above its host link"
                );
                for l in links {
                    load[l] += rate;
                }
            }
            for (l, &agg) in load.iter().enumerate() {
                let cap = capacity(hosts, spr, oversub, l);
                ensure!(
                    agg <= cap * (1.0 + 1e-9),
                    "link {l} loaded {agg} above capacity {cap}"
                );
            }
            Ok(())
        },
    );
}

/// The same flow multiset produces bit-identical per-flow rates whatever
/// order the flows were started in.
#[test]
fn rates_are_permutation_invariant() {
    checker("rates_are_permutation_invariant").run(
        zip3(
            u64_range(0, u64::MAX / 2), // shuffle seed
            usize_range(2, 16),         // hosts
            vec_of(zip2(u64_range(0, 1 << 30), u64_range(0, 1 << 30)), 2, 16),
        ),
        |&(seed, hosts, ref picks)| {
            let flows = decode_flows(hosts, picks);
            let rates = |order: &[usize]| -> Vec<u64> {
                let mut fabric = Fabric::new(hosts, 4.min(hosts), 2.0f64.min(4.min(hosts) as f64), BW, LAT);
                let mut ids = vec![0u64; flows.len()];
                for &i in order {
                    ids[i] = fabric.start_flow(flows[i].0, flows[i].1, 1 << 22);
                }
                fabric.advance(SimTime::ZERO + LAT + SimDuration::from_nanos(1));
                // Compare exact bit patterns, not approximate values.
                ids.iter()
                    .map(|&id| fabric.rate_of(id).unwrap_or(-1.0).to_bits())
                    .collect()
            };
            let forward: Vec<usize> = (0..flows.len()).collect();
            let mut shuffled = forward.clone();
            // Fisher-Yates off the deterministic case seed.
            let mut rng = Rng64::new(seed);
            for i in (1..shuffled.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                shuffled.swap(i, j);
            }
            ensure!(
                rates(&forward) == rates(&shuffled),
                "rates depend on insertion order (seed {seed})"
            );
            Ok(())
        },
    );
}

/// A lone flow sees no sharing: its completion time equals the legacy
/// `LinkModel::transfer` fixed-service time for the same parameters.
#[test]
fn lone_flow_matches_legacy_link_model() {
    checker("lone_flow_matches_legacy_link_model").run(
        zip4(
            u64_range(1, 1 << 28),   // bytes
            f64_range(1e6, 4e9),     // bandwidth
            f64_range(1e-6, 5e-3),   // latency secs
            usize_range(1, 12),      // hosts
        ),
        |&(bytes, bandwidth, latency_secs, hosts)| {
            let latency = SimDuration::from_secs_f64(latency_secs);
            let mut fabric = Fabric::new(hosts, hosts, 1.0, bandwidth, latency);
            let id = fabric.start_flow(Endpoint::Client, Endpoint::Host(hosts - 1), bytes);
            let mut done = SimTime::ZERO;
            for _ in 0..64 {
                let t = fabric.next_change().expect("flow pending");
                if fabric.advance(t).contains(&id) {
                    done = t;
                    break;
                }
            }
            ensure!(done > SimTime::ZERO, "flow never completed");
            let legacy = LinkModel::new(LinkParams {
                bandwidth_bytes_per_sec: bandwidth,
                latency_secs,
            })
            .transfer(bytes);
            // `transfer` covers latency + serialization in one number;
            // the fabric gates for latency then drains at full rate, so
            // the two agree to within integration rounding.
            let target = SimTime::ZERO + legacy;
            let diff = done.as_nanos().abs_diff(target.as_nanos());
            ensure!(diff <= 8, "fabric {done} vs legacy {target} ({diff} ns apart)");
            Ok(())
        },
    );
}

/// Every started flow eventually completes exactly once when the fabric
/// is driven to quiescence — no lost or duplicated completions — and
/// every link has carried exactly the bytes of the flows routed over it.
#[test]
fn all_flows_complete_exactly_once() {
    checker("all_flows_complete_exactly_once").run(
        zip2(
            usize_range(1, 16), // hosts
            vec_of(
                zip3(u64_range(0, 1 << 30), u64_range(0, 1 << 30), u64_range(1, 1 << 24)),
                1,
                20,
            ),
        ),
        |&(hosts, ref picks)| {
            let spr = 4.min(hosts);
            let oversub = 1.5f64.min(spr as f64);
            let mut fabric = Fabric::new(hosts, spr, oversub, BW, LAT);
            let ends: Vec<(u64, u64)> = picks.iter().map(|&(a, b, _)| (a, b)).collect();
            let flows = decode_flows(hosts, &ends);
            let mut pending: Vec<u64> = flows
                .iter()
                .zip(picks)
                .map(|(&(from, to), &(_, _, bytes))| fabric.start_flow(from, to, bytes))
                .collect();
            let mut end = SimTime::ZERO;
            for _ in 0..10_000 {
                let Some(t) = fabric.next_change() else { break };
                for id in fabric.advance(t) {
                    let pos = pending.iter().position(|&p| p == id);
                    ensure!(pos.is_some(), "flow {id} completed twice or was never started");
                    pending.swap_remove(pos.unwrap());
                }
                end = t;
            }
            ensure!(pending.is_empty(), "{} flows never completed", pending.len());
            ensure!(fabric.in_flight() == 0, "fabric still holds flows at quiescence");
            let mut requested = vec![0.0f64; fabric.link_count()];
            let mut crossing = vec![0usize; fabric.link_count()];
            for (&(from, to), &(_, _, bytes)) in flows.iter().zip(picks) {
                for l in path(hosts, spr, from, to) {
                    requested[l] += bytes as f64;
                    crossing[l] += 1;
                }
            }
            for (l, util) in fabric.link_utilization(end).into_iter().enumerate() {
                let carried = util * capacity(hosts, spr, oversub, l) * end.as_secs_f64();
                let slack = crossing[l] as f64 * SLACK_PER_FLOW;
                ensure!(
                    (carried - requested[l]).abs() <= slack,
                    "link {l} carried {carried} B of {} B requested by {} flows",
                    requested[l],
                    crossing[l]
                );
            }
            Ok(())
        },
    );
}

/// What became of a flow the conservation property started.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    Live,
    Completed,
    /// Cancelled, or dropped by a host failure.
    Removed,
}

/// A flow as the conservation property sees it from outside the fabric.
struct Tracked {
    links: Vec<usize>,
    bytes: u64,
    /// Bytes moved so far: `rate_of` integrated over every step.
    moved: f64,
    fate: Fate,
}

/// Advances `fabric` from `now` to `target`, never past its next internal
/// change, so the rates read before a step hold throughout it: each live
/// flow (index = id) is credited its rate times the step, and the flows
/// the step completes are marked.
fn advance_tracked(
    fabric: &mut Fabric,
    now: &mut SimTime,
    target: SimTime,
    flows: &mut [Tracked],
) -> PropResult {
    for _ in 0..10_000 {
        if *now >= target {
            return Ok(());
        }
        let next = fabric.next_change().map_or(target, |t| t.min(target));
        let dt = (next - *now).as_secs_f64();
        for (id, flow) in flows.iter_mut().enumerate() {
            if flow.fate == Fate::Live {
                let rate = fabric.rate_of(id as u64);
                ensure!(rate.is_some(), "live flow {id} is unknown to the fabric");
                flow.moved += rate.unwrap() * dt;
            }
        }
        for id in fabric.advance(next) {
            let flow = &mut flows[id as usize];
            ensure!(flow.fate == Fate::Live, "flow {id} completed after it ended");
            flow.fate = Fate::Completed;
        }
        *now = next;
    }
    Err(CaseResult::Fail(format!("{target} not reached in 10,000 steps")))
}

/// Bytes are conserved when flows leave early: under random starts,
/// cancels, host failures and advances, every link carries its completed
/// flows' bytes plus whatever its cancelled and dropped flows moved
/// before removal, and every completed flow moved its bytes.
#[test]
fn cancelled_and_dropped_flows_conserve_bytes() {
    checker("cancelled_and_dropped_flows_conserve_bytes").run(
        zip3(
            usize_range(1, 16),         // hosts
            u64_range(0, u64::MAX / 2), // op-stream seed
            usize_range(10, 60),        // operations
        ),
        |&(hosts, seed, ops)| {
            let spr = 4.min(hosts);
            let oversub = 1.5f64.min(spr as f64);
            let mut fabric = Fabric::new(hosts, spr, oversub, BW, LAT);
            let mut rng = Rng64::new(seed);
            let mut now = SimTime::ZERO;
            let mut flows: Vec<Tracked> = Vec::new();
            let ep = |v: u64| match v as usize % (hosts + 1) {
                0 => Endpoint::Client,
                h => Endpoint::Host(h - 1),
            };
            for _ in 0..ops {
                let live: Vec<u64> = (0..flows.len() as u64)
                    .filter(|&id| flows[id as usize].fate == Fate::Live)
                    .collect();
                match rng.next_u64() % 10 {
                    0..=3 => {
                        let (from, to) = (ep(rng.next_u64()), ep(rng.next_u64()));
                        let bytes = 1 + rng.next_u64() % (1 << 24);
                        let id = fabric.start_flow(from, to, bytes);
                        ensure!(id == flows.len() as u64, "flow ids are not dense");
                        let links = path(hosts, spr, from, to);
                        flows.push(Tracked { links, bytes, moved: 0.0, fate: Fate::Live });
                    }
                    4 | 5 if !live.is_empty() => {
                        let id = live[(rng.next_u64() % live.len() as u64) as usize];
                        ensure!(fabric.cancel_flow(id), "cancel({id}) of a live flow failed");
                        flows[id as usize].fate = Fate::Removed;
                    }
                    6 => {
                        let h = (rng.next_u64() % hosts as u64) as usize;
                        let expected: Vec<u64> = live
                            .iter()
                            .copied()
                            .filter(|&id| {
                                let links = &flows[id as usize].links;
                                links.contains(&h) || links.contains(&(hosts + h))
                            })
                            .collect();
                        let dropped = fabric.fail_host(h);
                        ensure!(
                            dropped == expected,
                            "fail_host({h}) dropped {dropped:?}, expected {expected:?}"
                        );
                        for id in dropped {
                            flows[id as usize].fate = Fate::Removed;
                        }
                    }
                    _ => {
                        let dt = SimDuration::from_nanos(1 + rng.next_u64() % 2_000_000);
                        let target = match fabric.next_change() {
                            Some(t) if rng.next_u64().is_multiple_of(2) => t,
                            _ => now + dt,
                        };
                        advance_tracked(&mut fabric, &mut now, target, &mut flows)?;
                    }
                }
            }
            // Drain what is left.
            for _ in 0..10_000 {
                let Some(t) = fabric.next_change() else { break };
                advance_tracked(&mut fabric, &mut now, t, &mut flows)?;
            }
            ensure!(fabric.in_flight() == 0, "fabric still holds flows at quiescence");
            let mut expected = vec![0.0f64; fabric.link_count()];
            let mut crossing = vec![0usize; fabric.link_count()];
            for (id, flow) in flows.iter().enumerate() {
                ensure!(flow.fate != Fate::Live, "flow {id} never ended");
                let share = if flow.fate == Fate::Removed {
                    ensure!(
                        flow.moved <= flow.bytes as f64 + SLACK_PER_FLOW,
                        "removed flow {id} moved {} of its {} B",
                        flow.moved,
                        flow.bytes
                    );
                    flow.moved
                } else if flow.links.is_empty() {
                    0.0 // A loopback flow completes at its gate, moving nothing.
                } else {
                    ensure!(
                        (flow.moved - flow.bytes as f64).abs() <= SLACK_PER_FLOW,
                        "completed flow {id} moved {} of its {} B",
                        flow.moved,
                        flow.bytes
                    );
                    flow.bytes as f64
                };
                for &l in &flow.links {
                    expected[l] += share;
                    crossing[l] += 1;
                }
            }
            for (l, util) in fabric.link_utilization(now).into_iter().enumerate() {
                let carried = util * capacity(hosts, spr, oversub, l) * now.as_secs_f64();
                let slack = crossing[l] as f64 * SLACK_PER_FLOW;
                ensure!(
                    (carried - expected[l]).abs() <= slack,
                    "link {l} carried {carried} B, expected {} B from {} flows",
                    expected[l],
                    crossing[l]
                );
            }
            Ok(())
        },
    );
}

/// Incremental re-rating (dirty-link frontier + component closure) is
/// bit-identical to unconditional full progressive filling under random
/// churn of flow starts, cancels, host failures and clock advances.
///
/// Two fabrics receive the same operation stream; one is pinned to the
/// full-pass path via `set_force_full`. After every operation all live
/// flows must carry bit-identical rates, and every advance must report
/// the same completion ids in the same order.
#[test]
fn incremental_rerate_matches_full_fill_in_lockstep() {
    checker("incremental_rerate_matches_full_fill_in_lockstep").run(
        zip3(
            usize_range(2, 20),          // hosts
            u64_range(0, u64::MAX / 2),  // op-stream seed
            usize_range(10, 60),         // operations
        ),
        |&(hosts, seed, ops)| {
            let spr = 4.min(hosts);
            let oversub = 2.0f64.min(spr as f64);
            let mut inc = Fabric::new(hosts, spr, oversub, BW, LAT);
            let mut full = Fabric::new(hosts, spr, oversub, BW, LAT);
            full.set_force_full(true);
            let mut rng = Rng64::new(seed);
            let mut now = SimTime::ZERO;
            let mut live: Vec<u64> = Vec::new();
            let (mut done_inc, mut done_full) = (Vec::new(), Vec::new());
            for _ in 0..ops {
                match rng.next_u64() % 10 {
                    0..=4 => {
                        let ep = |v: u64| match v as usize % (hosts + 1) {
                            0 => Endpoint::Client,
                            h => Endpoint::Host(h - 1),
                        };
                        let (from, to) = (ep(rng.next_u64()), ep(rng.next_u64()));
                        let bytes = 1 + rng.next_u64() % (1 << 24);
                        let a = inc.start_flow(from, to, bytes);
                        let b = full.start_flow(from, to, bytes);
                        ensure!(a == b, "flow ids diverged ({a} vs {b})");
                        live.push(a);
                    }
                    5 if !live.is_empty() => {
                        let i = (rng.next_u64() % live.len() as u64) as usize;
                        let id = live.swap_remove(i);
                        ensure!(
                            inc.cancel_flow(id) == full.cancel_flow(id),
                            "cancel({id}) diverged"
                        );
                    }
                    6 => {
                        let h = (rng.next_u64() % hosts as u64) as usize;
                        let (a, b) = (inc.fail_host(h), full.fail_host(h));
                        ensure!(a == b, "fail_host({h}) dropped different flows");
                        live.retain(|id| !a.contains(id));
                    }
                    _ => {
                        let dt = SimDuration::from_nanos(1 + rng.next_u64() % 2_000_000);
                        let target = match inc.next_change() {
                            Some(t) if rng.next_u64().is_multiple_of(2) => t,
                            _ => now + dt,
                        };
                        now = now.max(target);
                        inc.advance_into(now, &mut done_inc);
                        full.advance_into(now, &mut done_full);
                        ensure!(done_inc == done_full, "completion order diverged at {now}");
                        live.retain(|id| !done_inc.contains(id));
                    }
                }
                for &id in &live {
                    let a = inc.rate_of(id).map(f64::to_bits);
                    let b = full.rate_of(id).map(f64::to_bits);
                    ensure!(a == b, "flow {id}: incremental {a:?} vs full {b:?}");
                }
            }
            ensure!(
                inc.in_flight() == full.in_flight(),
                "in-flight diverged: {} vs {}",
                inc.in_flight(),
                full.in_flight()
            );
            Ok(())
        },
    );
}
