//! Incast driver for the fabric microbench and its pinned curve.
//!
//! An N-to-1 incast with timeout/restart recovery: `fanout` senders
//! each push one stripe at host 0 across a rack:4 oversub:2 fabric,
//! restarting any stripe that misses the timeout after a linear backoff
//! staggered per sender. Past the point where the fair share per flow
//! can no longer beat the timeout, restarts pile load onto the
//! saturated receiver link and completion time degrades super-linearly
//! in the fan-out — the regime a fixed-capacity link model cannot
//! express at all.
//!
//! `benches/micro.rs` times the fan-out-32 run (`fabric_incast_32`).
//! [`IncastRun`] carries the fabric's work counts; the unit tests pin
//! them exactly for fan-out 32, and pin the whole simulated curve with
//! its super-linearity, so any drift is a change in behaviour whatever
//! the host.

use kooza_sim::{Endpoint, Fabric, SimDuration, SimTime};

/// 1 GbE receiver link, bytes/sec.
pub const BW: f64 = 125e6;
/// One-way propagation gate for every flow.
pub const LAT: SimDuration = SimDuration::from_micros(100);
/// Bytes per response stripe.
pub const STRIPE: u64 = 256 * 1024;
/// Senders give a stripe this long to finish before restarting it.
pub const TIMEOUT: SimDuration = SimDuration::from_micros(25_000);

/// One sender's state in the incast driver.
#[derive(Clone, Copy)]
enum Sender {
    /// Waiting to (re)transmit at the given instant.
    Waiting(SimTime),
    /// Transmitting flow `id`, which times out at the given instant.
    Active(u64, SimTime),
    Done,
}

/// One incast run: its simulated outcome and the fabric work it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncastRun {
    /// Simulated time until the last stripe lands.
    pub completion: SimDuration,
    /// Stripes restarted after missing [`TIMEOUT`].
    pub restarts: u64,
    /// Flows the fabric started: every first send and every restart.
    pub flows: u64,
    /// Max-min re-rate passes the fabric ran.
    pub rerates: u64,
    /// Re-rate passes that re-solved only the touched links.
    pub incremental_rerates: u64,
}

/// Simulates `fanout` servers each pushing one [`STRIPE`]-byte response
/// at host 0, restarting any stripe that misses [`TIMEOUT`].
pub fn incast(fanout: usize) -> IncastRun {
    let mut fabric = Fabric::new(fanout + 1, 4, 2.0, BW, LAT);
    let mut senders = vec![Sender::Waiting(SimTime::ZERO); fanout];
    let mut completed: Vec<u64> = Vec::new();
    let mut restarts = 0u64;
    let mut now = SimTime::ZERO;
    let mut remaining = fanout;
    // Earliest sender wake-up (a (re)start instant or a timeout
    // deadline), maintained by the transition sweep below so the loop
    // head only consults the fabric. Every sender starts Waiting(0).
    let mut sender_next = SimTime::ZERO;
    while remaining > 0 {
        // Next instant anything happens: a fabric rate change, a sender
        // (re)start, or a timeout deadline.
        let next = fabric.next_change().unwrap_or(SimTime::MAX).min(sender_next);
        assert!(next > now || now == SimTime::ZERO, "incast driver stalled at {now}");
        now = next;
        fabric.advance_into(now, &mut completed);
        sender_next = SimTime::MAX;
        for (i, sender) in senders.iter_mut().enumerate() {
            match *sender {
                Sender::Active(id, deadline) => {
                    if completed.contains(&id) {
                        *sender = Sender::Done;
                        remaining -= 1;
                    } else if deadline <= now {
                        // Missed the timeout: drop the half-sent stripe
                        // and retransmit from scratch after a backoff
                        // staggered by sender index.
                        fabric.cancel_flow(id);
                        restarts += 1;
                        let backoff = TIMEOUT + SimDuration::from_micros(200 * (i as u64 + 1));
                        let at = now + backoff;
                        *sender = Sender::Waiting(at);
                        sender_next = sender_next.min(at);
                    } else {
                        sender_next = sender_next.min(deadline);
                    }
                }
                Sender::Waiting(at) if at <= now => {
                    let id = fabric.start_flow(Endpoint::Host(i + 1), Endpoint::Host(0), STRIPE);
                    let deadline = now + TIMEOUT;
                    *sender = Sender::Active(id, deadline);
                    sender_next = sender_next.min(deadline);
                }
                Sender::Waiting(at) => sender_next = sender_next.min(at),
                Sender::Done => {}
            }
        }
    }
    IncastRun {
        completion: now - SimTime::ZERO,
        restarts,
        flows: fabric.flows_started(),
        rerates: fabric.rerates(),
        incremental_rerates: fabric.incremental_rerates(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_sender_finishes_without_restarts() {
        let run = incast(1);
        assert_eq!(run.restarts, 0);
        // One 256 KB stripe at 125 MB/s behind a 100 µs gate: ~2.2 ms.
        let t = run.completion;
        assert!(t > SimDuration::from_micros(2_000) && t < SimDuration::from_micros(3_000));
    }

    #[test]
    fn incast_32_does_exactly_the_recorded_work() {
        // The fabric_incast_32 microbench times this run. Its outcome and
        // work counts are exact, so any drift is a change in behaviour or
        // algorithm, whatever the host. The completion time and restarts
        // match the last point of the pinned curve below.
        assert_eq!(
            incast(32),
            IncastRun {
                completion: SimDuration::from_nanos(345_654_432),
                restarts: 167,
                flows: 199,
                rerates: 336,
                incremental_rerates: 0,
            }
        );
    }

    #[test]
    fn incast_curve_is_deterministic() {
        assert_eq!(incast(8), incast(8));
    }

    #[test]
    fn incast_curve_degrades_super_linearly() {
        // (fan-out, completion ns, restarts). Timeout-free up to fan-out
        // 8; past the cliff, restarts pile onto the receiver link.
        let curve: Vec<(usize, u64, u64)> = [1, 2, 4, 8, 16, 32]
            .into_iter()
            .map(|fanout| {
                let run = incast(fanout);
                (fanout, run.completion.as_nanos(), run.restarts)
            })
            .collect();
        assert_eq!(
            curve,
            [
                (1, 2_197_152, 0),
                (2, 4_294_304, 0),
                (4, 8_488_608, 0),
                (8, 16_877_216, 0),
                (16, 177_065_824, 44),
                (32, 345_654_432, 167),
            ]
        );
        // Growing the fan-out 4x from the last timeout-free point must
        // cost more than 4x in completion time: the restart storm, not
        // just the longer queue.
        let ms = |fanout: usize| {
            let (_, nanos, _) = curve.iter().find(|&&(f, _, _)| f == fanout).unwrap();
            SimDuration::from_nanos(*nanos).as_millis_f64()
        };
        assert!(
            ms(32) > 4.0 * 1.5 * ms(8),
            "incast degradation is not super-linear: {} ms at 8, {} ms at 32",
            ms(8),
            ms(32)
        );
    }
}
