#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # clove-sim — deterministic discrete-event simulation engine
//!
//! This crate provides the foundation every other crate in the Clove
//! reproduction builds on:
//!
//! * [`Time`] / [`Duration`] — nanosecond-resolution simulated clock types.
//! * [`EventQueue`] — a priority queue of timestamped events with a
//!   deterministic total order (ties broken by insertion sequence, never by
//!   allocator or hash order).
//! * [`World`] / [`run`] — a minimal event-loop abstraction: a world handles
//!   one event at a time and may schedule more.
//! * [`SimRng`] — a small, fast, fully deterministic PRNG (splitmix64 seeded
//!   xoshiro256**) with the handful of distributions the experiments need
//!   (uniform, exponential, empirical CDFs live in `clove-workload`).
//! * [`stats`] — streaming summary statistics, percentiles and CDFs used to
//!   report flow completion times.
//!
//! ## Determinism contract
//!
//! Everything in this crate is single-threaded and allocation-order
//! independent. Given the same seed and the same sequence of `push` calls, a
//! simulation replays identically. This is what lets the test-suite assert
//! exact packet counts and lets experiments be compared across schemes with
//! paired seeds.

pub mod progress;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use progress::RunControl;
pub use queue::{EventQueue, QueueBackend, QueueProfile, ScheduledEvent};
pub use rng::SimRng;
pub use time::{Duration, Time};

/// A simulated world: owns all state and reacts to one event at a time.
///
/// The event loop ([`run`]) pops the earliest event and hands it to
/// [`World::handle`], which may push further events onto the queue. The loop
/// ends when the queue drains or the horizon is reached.
pub trait World {
    /// The event payload type this world understands.
    type Event;

    /// Handle a single event occurring at `now`. New events may be scheduled
    /// through `queue`; they must not be scheduled in the past.
    fn handle(&mut self, now: Time, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Outcome of driving a simulation with [`run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Number of events processed.
    pub events: u64,
    /// Simulated time of the last processed event (or `Time::ZERO` if none).
    pub end_time: Time,
    /// True if the loop stopped because the horizon was reached rather than
    /// because the queue drained.
    pub hit_horizon: bool,
    /// True if the loop exited early because a cooperative stop was requested
    /// through a [`RunControl`] (see [`run_controlled`]). Remaining events
    /// stay in the queue.
    pub stopped: bool,
}

/// Drive `world` until the queue drains or simulated time exceeds `horizon`.
///
/// Events scheduled exactly at the horizon are still processed; the first
/// event strictly after it terminates the loop (and remains in the queue).
pub fn run<W: World>(world: &mut W, queue: &mut EventQueue<W::Event>, horizon: Time) -> RunSummary {
    run_controlled(world, queue, horizon, None)
}

/// Like [`run`], but optionally publishing progress to — and honoring stop
/// requests from — a shared [`RunControl`].
///
/// Progress is published and the stop flag checked once every
/// [`progress::PROGRESS_STRIDE`] events, so the hot loop stays free of
/// per-event atomic traffic and cancellation latency is bounded by the
/// stride. With `control = None` this is exactly [`run`].
///
/// `#[inline]` here and on `pop_run`, `unpop_run` and the fabric's `handle`
/// gives every caller its own copy of the event loop in its codegen unit.
/// Without it, rustc's codegen-unit partitioning of the instantiating crate
/// decides whether the loop and its per-batch callees land together, and
/// an unrelated edit there can split them and slow every run.
#[inline]
pub fn run_controlled<W: World>(world: &mut W, queue: &mut EventQueue<W::Event>, horizon: Time, control: Option<&RunControl>) -> RunSummary {
    let mut events = 0u64;
    let mut end_time = Time::ZERO;
    let mut flushed = 0u64;
    // The whole earliest run (every event sharing one timestamp) is taken in
    // a single scheduler pop and drained here; on the wheel backend the two
    // buffers just trade allocations back and forth. Handlers observing one
    // batch may push same-instant events — those land in the *next* run, in
    // seq order, exactly as the one-pop-per-event loop delivered them.
    let mut batch: std::collections::VecDeque<ScheduledEvent<W::Event>> = std::collections::VecDeque::new();
    loop {
        let Some(at) = queue.peek_time() else {
            if let Some(c) = control {
                c.advance(events - flushed, end_time);
            }
            return RunSummary { events, end_time, hit_horizon: false, stopped: false };
        };
        if at > horizon {
            if let Some(c) = control {
                c.advance(events - flushed, end_time);
            }
            return RunSummary { events, end_time, hit_horizon: true, stopped: false };
        }
        let now = queue.pop_run(&mut batch).expect("peeked queue must pop a run");
        debug_assert_eq!(now, at);
        end_time = now;
        while let Some(ev) = batch.pop_front() {
            events += 1;
            world.handle(now, ev.event, queue);
            if let Some(c) = control {
                if events.is_multiple_of(progress::PROGRESS_STRIDE) {
                    c.advance(events - flushed, end_time);
                    flushed = events;
                    if c.stop_requested() {
                        // Hand the unprocessed tail of the run back so the
                        // queue still holds everything not yet handled.
                        queue.unpop_run(&mut batch);
                        return RunSummary { events, end_time, hit_horizon: false, stopped: true };
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy world that counts events and optionally re-schedules itself.
    struct Ticker {
        remaining: u32,
        period: Duration,
        seen: Vec<Time>,
    }

    impl World for Ticker {
        type Event = ();
        fn handle(&mut self, now: Time, _: (), queue: &mut EventQueue<()>) {
            self.seen.push(now);
            if self.remaining > 0 {
                self.remaining -= 1;
                queue.push(now + self.period, ());
            }
        }
    }

    #[test]
    fn run_drains_queue() {
        let mut w = Ticker { remaining: 4, period: Duration::from_micros(10), seen: vec![] };
        let mut q = EventQueue::new();
        q.push(Time::ZERO, ());
        let summary = run(&mut w, &mut q, Time::from_secs(1));
        assert_eq!(summary.events, 5);
        assert!(!summary.hit_horizon);
        assert_eq!(w.seen.len(), 5);
        assert_eq!(w.seen[4], Time::from_micros(40));
    }

    #[test]
    fn run_respects_horizon() {
        let mut w = Ticker { remaining: 1_000_000, period: Duration::from_micros(1), seen: vec![] };
        let mut q = EventQueue::new();
        q.push(Time::ZERO, ());
        let summary = run(&mut w, &mut q, Time::from_micros(10));
        assert!(summary.hit_horizon);
        // t = 0..=10 inclusive
        assert_eq!(summary.events, 11);
        assert_eq!(summary.end_time, Time::from_micros(10));
        // The next event is still queued.
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_queue_returns_zero_summary() {
        let mut w = Ticker { remaining: 0, period: Duration::ZERO, seen: vec![] };
        let mut q: EventQueue<()> = EventQueue::new();
        let summary = run(&mut w, &mut q, Time::from_secs(1));
        assert_eq!(summary.events, 0);
        assert_eq!(summary.end_time, Time::ZERO);
        assert!(!summary.stopped);
    }

    #[test]
    fn controlled_run_publishes_progress() {
        let mut w = Ticker { remaining: 1000, period: Duration::from_micros(1), seen: vec![] };
        let mut q = EventQueue::new();
        q.push(Time::ZERO, ());
        let control = RunControl::new();
        let summary = run_controlled(&mut w, &mut q, Time::from_secs(1), Some(&control));
        assert_eq!(summary.events, 1001);
        assert!(!summary.stopped);
        let (events, sim_ns) = control.snapshot();
        assert_eq!(events, 1001);
        assert_eq!(sim_ns, summary.end_time.as_nanos());
    }

    #[test]
    fn stop_request_cancels_within_one_stride() {
        let mut w = Ticker { remaining: u32::MAX, period: Duration::from_micros(1), seen: vec![] };
        let mut q = EventQueue::new();
        q.push(Time::ZERO, ());
        let control = RunControl::new();
        control.request_stop();
        let summary = run_controlled(&mut w, &mut q, Time::MAX, Some(&control));
        assert!(summary.stopped);
        assert!(!summary.hit_horizon);
        assert_eq!(summary.events, progress::PROGRESS_STRIDE);
        // The cancelled run leaves its pending events queued.
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn controlled_run_without_control_matches_run() {
        let mk = || {
            let mut q = EventQueue::new();
            q.push(Time::ZERO, ());
            (Ticker { remaining: 500, period: Duration::from_micros(3), seen: vec![] }, q)
        };
        let (mut w1, mut q1) = mk();
        let (mut w2, mut q2) = mk();
        let a = run(&mut w1, &mut q1, Time::from_millis(1));
        let b = run_controlled(&mut w2, &mut q2, Time::from_millis(1), None);
        assert_eq!(a, b);
    }
}
