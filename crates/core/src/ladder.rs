//! The graceful-degradation ladder shared by Clove-ECN and Clove-INT.
//!
//! Each destination sits on one rung, judged by how long its feedback loop
//! has been silent: **fresh** up to `stale_horizon` (the policy's normal
//! pick), **stale** up to `dead_horizon` (learned WRR weights decay toward
//! uniform, at most one step per `stale_decay_interval`), **dead** beyond
//! (`dead_pick` hash-spreads over the discovered ports, Edge-Flowlet
//! behaviour). Never-heard feedback is fresh: nothing learned is there to
//! distrust. Silence only accumulates while the edge keeps transmitting — an
//! idle destination owes us no feedback — so a tx gap longer than the stale
//! horizon restarts the silence clock.

use crate::paths::PathSet;
use crate::wrr::Wrr;
use clove_net::hash::hash_tuple;
use clove_net::types::{FlowKey, HostId};
use clove_sim::{Duration, Time};
use clove_telemetry::{LadderRung, Trace};

/// Ladder horizons and the stale-rung decay schedule.
#[derive(Debug, Clone, Copy)]
pub struct LadderConfig {
    /// Silence past this moves a destination to the stale rung.
    pub stale_horizon: Duration,
    /// Silence past this moves a destination to the dead rung.
    pub dead_horizon: Duration,
    /// Decay rate toward uniform per stale-decay step.
    pub stale_rho: f64,
    /// Minimum spacing between stale-decay steps, so a burst of packets
    /// cannot fast-forward the decay.
    pub stale_decay_interval: Duration,
}

impl LadderConfig {
    /// Defaults scaled for a base RTT: feedback normally arrives every
    /// ~RTT, so `stale_rtts`×RTT of silence means the control loop is
    /// broken, and 64×RTT means it has been broken long enough to forget
    /// everything.
    pub fn for_rtt(rtt: Duration, stale_rtts: u64) -> LadderConfig {
        LadderConfig { stale_horizon: rtt * stale_rtts, dead_horizon: rtt * 64, stale_rho: 0.1, stale_decay_interval: rtt * 2 }
    }
}

/// Per-destination ladder state.
#[derive(Default)]
pub(crate) struct Ladder {
    /// Last time a stale-decay step ran.
    last_stale_decay: Time,
    /// Last data-path transmission toward this destination.
    last_tx: Time,
    /// Start of the current continuously-transmitting span.
    silence_base: Time,
    /// Rung this destination was last observed on; kept current regardless
    /// of tracing so trace on/off cannot diverge, and consulted only to
    /// emit rung-change events.
    rung: LadderRung,
}

impl Ladder {
    /// Account one transmission toward `dst` at `now`, given the `age` of
    /// the freshest feedback from it (`None`: never heard). Emits a
    /// `ladder_transition` trace event on a rung change and, on the stale
    /// rung, runs a rate-limited decay of `wrr` toward uniform. Returns the
    /// rung and whether a decay step ran.
    #[inline]
    pub(crate) fn step(&mut self, cfg: &LadderConfig, now: Time, dst: HostId, age: Option<Duration>, wrr: &mut Wrr, trace: &Trace) -> (LadderRung, bool) {
        if now.saturating_since(self.last_tx) > cfg.stale_horizon {
            self.silence_base = now;
        }
        self.last_tx = now;
        let rung = match age.map(|a| a.min(now.saturating_since(self.silence_base))) {
            Some(a) if a > cfg.dead_horizon => LadderRung::Dead,
            Some(a) if a > cfg.stale_horizon => LadderRung::Stale,
            _ => LadderRung::Fresh,
        };
        if rung != self.rung {
            trace.ladder_transition(now.0, dst.0, self.rung, rung);
            self.rung = rung;
        }
        let decayed = rung == LadderRung::Stale && now.saturating_since(self.last_stale_decay) >= cfg.stale_decay_interval;
        if decayed {
            wrr.decay_toward_uniform(cfg.stale_rho);
            self.last_stale_decay = now;
        }
        (rung, decayed)
    }
}

/// Dead-rung pick: hash-spread the flowlet uniformly over the discovered
/// ports, or `None` when none are known. `salt` keeps each policy's spread
/// independent of its other hashes.
#[inline]
pub(crate) fn dead_pick(paths: &PathSet, flow: &FlowKey, flowlet_id: u64, salt: u64) -> Option<u16> {
    if paths.is_empty() {
        return None;
    }
    let ports = paths.ports();
    Some(ports[(hash_tuple(flow, flowlet_id ^ salt) % ports.len() as u64) as usize])
}

/// Pre-discovery port: hash-spread over 64 ephemeral source ports like
/// plain ECMP, so an edge that knows no paths yet degrades gracefully.
#[inline]
pub(crate) fn fallback_port(flow: &FlowKey, flowlet_id: u64, salt: u64) -> u16 {
    49152 + (hash_tuple(flow, flowlet_id ^ salt) % 64) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use clove_telemetry::TraceEvent;

    const RTT: Duration = Duration(100_000); // 100us
    const DST: HostId = HostId(1);

    fn cfg() -> LadderConfig {
        LadderConfig::for_rtt(RTT, 16)
    }

    fn wrr() -> Wrr {
        let mut w = Wrr::new();
        w.set_ports(&[10, 20]);
        w.set_weight(10, 0.1);
        w.set_weight(20, 0.9);
        w
    }

    /// Step at `now` with the last feedback heard at `heard`.
    fn step_heard(l: &mut Ladder, w: &mut Wrr, now: Time, heard: Time) -> (LadderRung, bool) {
        l.step(&cfg(), now, DST, Some(now.saturating_since(heard)), w, &Trace::disabled())
    }

    /// Transmit every RTT over `[from, to)` so the silence clock runs.
    fn transmit(l: &mut Ladder, w: &mut Wrr, from: Time, to: Time, heard: Time) {
        let mut t = from;
        while t < to {
            step_heard(l, w, t, heard);
            t += RTT;
        }
    }

    #[test]
    fn never_heard_is_fresh() {
        let (mut l, mut w) = (Ladder::default(), wrr());
        for t in [Time::ZERO, Time::from_millis(10), Time::from_millis(500)] {
            assert_eq!(l.step(&cfg(), t, DST, None, &mut w, &Trace::disabled()), (LadderRung::Fresh, false));
        }
    }

    #[test]
    fn idle_tx_gap_restarts_the_silence_clock() {
        let (mut l, mut w) = (Ladder::default(), wrr());
        let heard = Time::ZERO;
        // Continuous sending past the stale horizon: the silence is real.
        transmit(&mut l, &mut w, Time::ZERO, Time::from_micros(2000), heard);
        assert_eq!(step_heard(&mut l, &mut w, Time::from_micros(2000), heard).0, LadderRung::Stale);
        // Go idle for longer than the stale horizon: the next transmission
        // starts a new span, and the old feedback no longer counts against it.
        let back = Time::from_micros(2000) + cfg().stale_horizon + Duration(1);
        assert_eq!(step_heard(&mut l, &mut w, back, heard), (LadderRung::Fresh, false));
        // Its age grows again only while we keep sending.
        transmit(&mut l, &mut w, back, back + cfg().stale_horizon, heard);
        assert_eq!(step_heard(&mut l, &mut w, back + cfg().stale_horizon, heard).0, LadderRung::Fresh);
        assert_eq!(step_heard(&mut l, &mut w, back + cfg().stale_horizon + Duration(1), heard).0, LadderRung::Stale);
    }

    #[test]
    fn rung_boundaries_are_exclusive_at_both_horizons() {
        let c = cfg();
        // Sending since t=0 (the silence clock starts there); feedback heard
        // at t=0, so silence == age == now.
        let rung_at = |age: Duration| {
            let (mut l, mut w) = (Ladder::default(), wrr());
            transmit(&mut l, &mut w, Time::ZERO, Time::ZERO + age, Time::ZERO);
            step_heard(&mut l, &mut w, Time::ZERO + age, Time::ZERO).0
        };
        assert_eq!(rung_at(c.stale_horizon), LadderRung::Fresh);
        assert_eq!(rung_at(c.stale_horizon + Duration(1)), LadderRung::Stale);
        assert_eq!(rung_at(c.dead_horizon), LadderRung::Stale);
        assert_eq!(rung_at(c.dead_horizon + Duration(1)), LadderRung::Dead);
    }

    #[test]
    fn stale_decay_runs_at_most_once_per_interval() {
        let (mut l, mut w) = (Ladder::default(), wrr());
        let c = cfg();
        transmit(&mut l, &mut w, Time::ZERO, Time::from_micros(1700), Time::ZERO);
        let first = Time::from_micros(1700);
        let before = w.weight(10).unwrap();
        assert_eq!(step_heard(&mut l, &mut w, first, Time::ZERO), (LadderRung::Stale, true));
        let after = w.weight(10).unwrap();
        assert!(after > before, "decay did not move toward uniform: {before} -> {after}");
        // A burst inside the interval cannot fast-forward the decay.
        let mut t = first;
        while t < first + c.stale_decay_interval {
            t += Duration::from_micros(1);
            let decayed = step_heard(&mut l, &mut w, t, Time::ZERO).1;
            assert_eq!(decayed, t == first + c.stale_decay_interval, "decay at {t:?}");
        }
        assert!(w.weight(10).unwrap() > after);
        // The dead rung never decays: its weights are not consulted.
        let dead = Time::ZERO + c.dead_horizon + Duration(1);
        transmit(&mut l, &mut w, t, dead, Time::ZERO);
        assert_eq!(step_heard(&mut l, &mut w, dead + c.stale_decay_interval, Time::ZERO), (LadderRung::Dead, false));
    }

    #[test]
    fn trace_event_only_on_rung_change() {
        let trace = Trace::new(64);
        let (mut l, mut w) = (Ladder::default(), wrr());
        let mut t = Time::ZERO;
        while t <= Time::from_millis(8) {
            l.step(&cfg(), t, DST, Some(t.saturating_since(Time::ZERO)), &mut w, &trace);
            t += RTT;
        }
        // Fresh feedback: back to fresh in one jump.
        l.step(&cfg(), t, DST, Some(Duration::ZERO), &mut w, &trace);
        l.step(&cfg(), t + RTT, DST, Some(RTT), &mut w, &trace);
        let (events, dropped) = trace.take();
        assert_eq!(dropped, 0);
        let rungs: Vec<_> = events
            .iter()
            .map(|e| match e {
                TraceEvent::LadderTransition { dst, from, to, .. } => (*dst, *from, *to),
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(rungs, vec![(1, LadderRung::Fresh, LadderRung::Stale), (1, LadderRung::Stale, LadderRung::Dead), (1, LadderRung::Dead, LadderRung::Fresh)]);
    }

    #[test]
    fn dead_pick_spreads_over_known_ports_only() {
        let flow = FlowKey::tcp(HostId(0), DST, 1234, 80);
        assert_eq!(dead_pick(&PathSet::default(), &flow, 7, 0xDEAD), None);
        let mut paths = PathSet::default();
        paths.set_ports(&[10, 20, 30]);
        let mut seen = [false; 3];
        for id in 0..64 {
            let port = dead_pick(&paths, &flow, id, 0xDEAD).unwrap();
            seen[(port / 10 - 1) as usize] = true;
        }
        assert_eq!(seen, [true; 3]);
    }
}
