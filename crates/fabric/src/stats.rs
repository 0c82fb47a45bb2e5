//! Measurement plumbing: time-weighted gauges.

use crate::time::SimTime;

/// A time-weighted gauge: tracks a level over simulated time and reports its
/// time-average (e.g. queue occupancy, credits outstanding).
#[derive(Debug, Clone)]
pub struct Gauge {
    level: i64,
    last_change: SimTime,
    weighted_sum: i128,
    max_level: i64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            level: 0,
            last_change: SimTime::ZERO,
            weighted_sum: 0,
            max_level: 0,
        }
    }
}

impl Gauge {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn settle(&mut self, now: SimTime) {
        let dt = now.since(self.last_change).picos();
        self.weighted_sum += self.level as i128 * dt as i128;
        self.last_change = now;
    }

    pub fn set(&mut self, now: SimTime, level: i64) {
        self.settle(now);
        self.level = level;
        self.max_level = self.max_level.max(level);
    }

    pub fn adjust(&mut self, now: SimTime, delta: i64) {
        let l = self.level + delta;
        self.set(now, l);
    }

    pub fn level(&self) -> i64 {
        self.level
    }

    pub fn max_level(&self) -> i64 {
        self.max_level
    }

    /// Time-average of the level over [0, now].
    pub fn average(&mut self, now: SimTime) -> f64 {
        self.settle(now);
        if now.picos() == 0 {
            return self.level as f64;
        }
        self.weighted_sum as f64 / now.picos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_time_average() {
        let mut g = Gauge::new();
        g.set(SimTime(0), 10); // level 10 for 100 ps
        g.set(SimTime(100), 0); // level 0 for 100 ps
        assert_eq!(g.max_level(), 10);
        let avg = g.average(SimTime(200));
        assert!((avg - 5.0).abs() < 1e-12, "avg = {avg}");
    }

    #[test]
    fn gauge_adjust() {
        let mut g = Gauge::new();
        g.adjust(SimTime(0), 3);
        g.adjust(SimTime(50), -1);
        assert_eq!(g.level(), 2);
    }
}
