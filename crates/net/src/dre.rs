//! Discounting Rate Estimator (DRE).
//!
//! CONGA's link-load estimator, reused here for three purposes: CONGA's own
//! congestion metric, the utilization INT switches stamp into packets, and
//! general link-utilization reporting. A register `X` accumulates bytes as
//! they are transmitted and decays multiplicatively by a factor `(1 - α)`
//! every `period`; the estimated rate is `X · α / period`, which tracks a
//! recent exponentially-weighted window of τ = period/α.
//!
//! Decay is applied *lazily* from timestamps, so the estimator costs no
//! simulation events — important because every link has one.

use clove_sim::{Duration, Time};

/// A discounting rate estimator for one link direction.
#[derive(Debug, Clone)]
pub struct Dre {
    x_bytes: f64,
    alpha: f64,
    period: Duration,
    last_decay: Time,
    capacity_bps: u64,
}

impl Dre {
    /// `alpha` in `(0, 1]`, `period` > 0, `capacity_bps` is the link rate
    /// used to normalize utilization.
    pub fn new(alpha: f64, period: Duration, capacity_bps: u64) -> Dre {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        assert!(!period.is_zero(), "period must be positive");
        assert!(capacity_bps > 0, "capacity must be positive");
        Dre { x_bytes: 0.0, alpha, period, last_decay: Time::ZERO, capacity_bps }
    }

    /// Apply all decay steps that elapsed up to `now`.
    fn decay_to(&mut self, now: Time) {
        let elapsed = now.saturating_since(self.last_decay).as_nanos();
        // Most transmits on a busy link are less than one period apart:
        // return before paying for the division.
        if elapsed < self.period.as_nanos() {
            return;
        }
        let steps = elapsed / self.period.as_nanos();
        // (1-alpha)^steps with exponentiation by squaring via powi for
        // moderate step counts; large counts collapse to ~0 quickly.
        if steps > 4096 {
            self.x_bytes = 0.0;
        } else {
            self.x_bytes *= (1.0 - self.alpha).powi(steps as i32);
        }
        self.last_decay += Duration::from_nanos(steps * self.period.as_nanos());
    }

    /// Account `bytes` transmitted at `now`.
    pub fn on_transmit(&mut self, now: Time, bytes: u32) {
        self.decay_to(now);
        self.x_bytes += bytes as f64;
    }

    /// Estimated transmit rate in bits per second.
    pub fn rate_bps(&mut self, now: Time) -> f64 {
        self.decay_to(now);
        self.x_bytes * 8.0 * self.alpha / self.period.as_secs_f64()
    }

    /// Estimated utilization in `[0, ~]` of link capacity (can transiently
    /// exceed 1.0 during bursts).
    pub fn utilization(&mut self, now: Time) -> f64 {
        self.rate_bps(now) / self.capacity_bps as f64
    }

    /// Utilization in per-mille, saturating at 2000 (200%) — the form INT
    /// stamps into packets.
    pub fn utilization_pm(&mut self, now: Time) -> u16 {
        (self.utilization(now) * 1000.0).round().clamp(0.0, 2000.0) as u16
    }

    /// CONGA's 3-bit quantized congestion metric (0..=7).
    pub fn quantized(&mut self, now: Time, bits: u8) -> u8 {
        let max = (1u16 << bits) - 1;
        (self.utilization(now).clamp(0.0, 1.0) * max as f64).round() as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dre() -> Dre {
        // alpha = 0.1, period = 100us => window ~ 1ms, 1 Gbps capacity
        Dre::new(0.1, Duration::from_micros(100), 1_000_000_000)
    }

    #[test]
    fn steady_stream_estimates_rate() {
        let mut d = dre();
        // Send 12.5 KB per 100us = 1 Gbps for 10 ms.
        let mut t = Time::ZERO;
        for _ in 0..100 {
            d.on_transmit(t, 12_500);
            t += Duration::from_micros(100);
        }
        let u = d.utilization(t);
        assert!((0.8..1.2).contains(&u), "utilization {u}");
    }

    #[test]
    fn idle_decays_to_zero() {
        let mut d = dre();
        d.on_transmit(Time::ZERO, 125_000);
        let u0 = d.utilization(Time::from_micros(100));
        let u1 = d.utilization(Time::from_millis(10));
        assert!(u1 < u0 * 0.01, "u0={u0} u1={u1}");
    }

    #[test]
    fn long_idle_collapses() {
        let mut d = dre();
        d.on_transmit(Time::ZERO, 1_000_000);
        assert_eq!(d.utilization(Time::from_secs(100)), 0.0);
    }

    #[test]
    fn half_rate_is_half_utilization() {
        let mut full = dre();
        let mut half = dre();
        let mut t = Time::ZERO;
        for _ in 0..200 {
            full.on_transmit(t, 12_500);
            half.on_transmit(t, 6_250);
            t += Duration::from_micros(100);
        }
        let r = half.utilization(t) / full.utilization(t);
        assert!((r - 0.5).abs() < 0.01, "ratio {r}");
    }

    #[test]
    fn per_mille_and_quantized() {
        let mut d = dre();
        let mut t = Time::ZERO;
        for _ in 0..200 {
            d.on_transmit(t, 12_500);
            t += Duration::from_micros(100);
        }
        let pm = d.utilization_pm(t);
        assert!((900..=1100).contains(&pm), "pm {pm}");
        let q = d.quantized(t, 3);
        assert!(q >= 6, "q {q}");
    }

    #[test]
    fn quantized_zero_when_idle() {
        let mut d = dre();
        assert_eq!(d.quantized(Time::from_secs(1), 3), 0);
    }

    /// The estimator with the decay rule as it was before the sub-period
    /// fast path: the reference the fast path must match bit for bit.
    struct Reference {
        x_bytes: f64,
        alpha: f64,
        period: Duration,
        last_decay: Time,
        capacity_bps: u64,
    }

    impl Reference {
        fn decay_to(&mut self, now: Time) {
            if now <= self.last_decay {
                return;
            }
            let steps = now.saturating_since(self.last_decay).as_nanos() / self.period.as_nanos();
            if steps == 0 {
                return;
            }
            if steps > 4096 {
                self.x_bytes = 0.0;
            } else {
                self.x_bytes *= (1.0 - self.alpha).powi(steps as i32);
            }
            self.last_decay += Duration::from_nanos(steps * self.period.as_nanos());
        }

        fn utilization(&mut self, now: Time) -> f64 {
            self.decay_to(now);
            self.x_bytes * 8.0 * self.alpha / self.period.as_secs_f64() / self.capacity_bps as f64
        }
    }

    #[test]
    fn fast_path_matches_reference_decay_bit_for_bit() {
        let (alpha, period, capacity) = (0.1, Duration::from_micros(50), 10_000_000_000);
        let mut fast = Dre::new(alpha, period, capacity);
        let mut slow = Reference { x_bytes: 0.0, alpha, period, last_decay: Time::ZERO, capacity_bps: capacity };
        let mut rng = clove_sim::SimRng::new(0xD4E);
        let mut now = Time::ZERO;
        for _ in 0..200_000 {
            // Mostly sub-period gaps (back-to-back packets), some spanning
            // several periods, rarely an idle stretch past the 4096-step cut.
            let gap = match rng.below(100) {
                0 => rng.range(4096 * 50_000, 5000 * 50_000),
                1..=9 => rng.range(50_000, 1_000_000),
                _ => rng.below(50_000),
            };
            now += Duration::from_nanos(gap);
            if rng.chance(0.7) {
                let bytes = rng.range(64, 9001) as u32;
                fast.on_transmit(now, bytes);
                slow.decay_to(now);
                slow.x_bytes += bytes as f64;
            } else {
                let u = slow.utilization(now);
                let (pm, q) = ((u * 1000.0).round().clamp(0.0, 2000.0) as u16, (u.clamp(0.0, 1.0) * 7.0).round() as u8);
                assert_eq!((fast.utilization_pm(now), fast.quantized(now, 3)), (pm, q), "at {now:?}");
                assert_eq!(fast.utilization(now).to_bits(), u.to_bits());
            }
        }
    }
}
