//! Brownout degradation: a load-watermark controller that trades result
//! cost for survival under pressure.
//!
//! The controller watches two signals the engine already produces — queue
//! depth and queue-wait p99 — and steps through a ladder of degraded
//! modes, one level per tick:
//!
//! | level | mode            | effect                                        |
//! |-------|-----------------|-----------------------------------------------|
//! | 0     | `normal`        | configured head, configured batching          |
//! | 1     | `degraded_head` | decoder segment head → int8 quantized         |
//! | 2     | `shrink_batch`  | + `max_batch`/2 and `max_delay`/4 (†)         |
//! | 3     | `shed`          | + new submissions refused (`503 Retry-After`) |
//!
//! (†) `max_delay` is how long a *busy* engine may hold a partial batch
//! open (an idle one flushes at once); the pressure that raises the level
//! keeps sessions in flight, so the quartered hold is what queued
//! requests see.
//!
//! Stepping **up** is immediate (pressure at the next level's watermark);
//! stepping **down** requires the load to fall below `exit_fraction` of
//! the current level's watermarks and *stay* there for
//! [`BrownoutConfig::dwell_ticks`] consecutive ticks — the hysteresis
//! that keeps the mode from flapping when load hovers at a threshold.
//!
//! The controller is a pure function of its observations (no clocks, no
//! atomics), so every transition is unit-testable; the engine's
//! supervisor thread feeds it once per tick and applies the resulting
//! level to the live batching knobs.

/// Watermarks and hysteresis for the brownout ladder.
#[derive(Debug, Clone)]
pub struct BrownoutConfig {
    /// Queue-depth watermark to *enter* level `i + 1`.
    pub enter_depth: [usize; 3],
    /// Queue-wait p99 watermark (milliseconds) to *enter* level `i + 1`.
    pub enter_p99_ms: [f64; 3],
    /// To step down, load must fall below `exit_fraction ×` the current
    /// level's enter watermarks (both of them).
    pub exit_fraction: f64,
    /// Consecutive calm ticks required before stepping down one level.
    pub dwell_ticks: u32,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        Self {
            enter_depth: [16, 32, 64],
            enter_p99_ms: [50.0, 200.0, 1000.0],
            exit_fraction: 0.5,
            dwell_ticks: 50,
        }
    }
}

impl BrownoutConfig {
    /// Scale the depth watermarks to a bounded queue: enter the ladder at
    /// 1/4, 1/2, and 3/4 of `capacity` (each at least 1), keeping the
    /// default latency watermarks.
    pub fn for_queue_capacity(capacity: usize) -> Self {
        Self {
            enter_depth: [
                (capacity / 4).max(1),
                (capacity / 2).max(2),
                (capacity * 3 / 4).max(3),
            ],
            ..Self::default()
        }
    }
}

/// Names for the four ladder levels, used on `/metrics` and in
/// `EngineStats`.
pub const MODE_NAMES: [&str; 4] = ["normal", "degraded_head", "shrink_batch", "shed"];

/// Human-readable name of a ladder level (out-of-range clamps to `shed`).
pub fn mode_name(level: u8) -> &'static str {
    MODE_NAMES[(level as usize).min(MODE_NAMES.len() - 1)]
}

/// The ladder state machine; see the module docs for the transition
/// rules.
#[derive(Debug, Clone)]
pub struct BrownoutController {
    cfg: BrownoutConfig,
    level: u8,
    /// Consecutive calm ticks observed at the current level.
    calm: u32,
}

impl BrownoutController {
    pub fn new(cfg: BrownoutConfig) -> Self {
        Self {
            cfg,
            level: 0,
            calm: 0,
        }
    }

    /// Current ladder level (0 = normal … 3 = shed).
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Feed one tick's load observation and return the (possibly new)
    /// level. At most one level of movement per tick, in either
    /// direction.
    pub fn observe(&mut self, queue_depth: usize, queue_wait_p99_ms: f64) -> u8 {
        let pressed = |level: u8| {
            let i = (level - 1) as usize;
            queue_depth >= self.cfg.enter_depth[i] || queue_wait_p99_ms >= self.cfg.enter_p99_ms[i]
        };
        if self.level < 3 && pressed(self.level + 1) {
            self.level += 1;
            self.calm = 0;
            return self.level;
        }
        if self.level > 0 {
            let i = (self.level - 1) as usize;
            let calm_now = (queue_depth as f64)
                < self.cfg.enter_depth[i] as f64 * self.cfg.exit_fraction
                && queue_wait_p99_ms < self.cfg.enter_p99_ms[i] * self.cfg.exit_fraction;
            if calm_now {
                self.calm += 1;
                if self.calm >= self.cfg.dwell_ticks {
                    self.level -= 1;
                    self.calm = 0;
                }
            } else {
                self.calm = 0;
            }
        }
        self.level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BrownoutConfig {
        BrownoutConfig {
            enter_depth: [10, 20, 40],
            enter_p99_ms: [50.0, 200.0, 1000.0],
            exit_fraction: 0.5,
            dwell_ticks: 3,
        }
    }

    #[test]
    fn idle_stays_normal() {
        let mut c = BrownoutController::new(cfg());
        for _ in 0..100 {
            assert_eq!(c.observe(0, 0.0), 0);
        }
    }

    #[test]
    fn sustained_pressure_climbs_one_level_per_tick_to_shed() {
        let mut c = BrownoutController::new(cfg());
        assert_eq!(c.observe(100, 0.0), 1);
        assert_eq!(c.observe(100, 0.0), 2);
        assert_eq!(c.observe(100, 0.0), 3);
        assert_eq!(c.observe(100, 0.0), 3, "shed is the ceiling");
    }

    #[test]
    fn latency_watermark_alone_triggers_entry() {
        let mut c = BrownoutController::new(cfg());
        assert_eq!(c.observe(0, 60.0), 1, "p99 above 50ms enters level 1");
    }

    #[test]
    fn step_down_requires_dwell_below_exit_watermark() {
        let mut c = BrownoutController::new(cfg());
        c.observe(15, 0.0);
        assert_eq!(c.level(), 1);
        // Below enter (10) but not below exit (5): hold the level forever.
        for _ in 0..20 {
            assert_eq!(c.observe(7, 0.0), 1, "hysteresis band holds the level");
        }
        // Calm (< 5 and < 25ms) must persist dwell_ticks before stepping.
        assert_eq!(c.observe(2, 0.0), 1);
        assert_eq!(c.observe(2, 0.0), 1);
        assert_eq!(c.observe(2, 0.0), 0, "third calm tick steps down");
    }

    #[test]
    fn pressure_blip_resets_the_dwell_counter() {
        let mut c = BrownoutController::new(cfg());
        c.observe(15, 0.0);
        c.observe(2, 0.0);
        c.observe(2, 0.0);
        c.observe(7, 0.0); // in the hysteresis band — calm streak resets
        assert_eq!(c.observe(2, 0.0), 1);
        assert_eq!(c.observe(2, 0.0), 1);
        assert_eq!(c.observe(2, 0.0), 0);
    }

    #[test]
    fn descent_is_also_one_level_per_dwell() {
        let mut c = BrownoutController::new(cfg());
        for _ in 0..3 {
            c.observe(100, 2000.0);
        }
        assert_eq!(c.level(), 3);
        let mut downs = Vec::new();
        for _ in 0..12 {
            downs.push(c.observe(0, 0.0));
        }
        assert_eq!(downs, vec![3, 3, 2, 2, 2, 1, 1, 1, 0, 0, 0, 0]);
    }

    #[test]
    fn mode_names_cover_the_ladder() {
        assert_eq!(mode_name(0), "normal");
        assert_eq!(mode_name(1), "degraded_head");
        assert_eq!(mode_name(2), "shrink_batch");
        assert_eq!(mode_name(3), "shed");
        assert_eq!(mode_name(200), "shed", "out of range clamps");
    }

    #[test]
    fn capacity_scaled_watermarks() {
        let c = BrownoutConfig::for_queue_capacity(64);
        assert_eq!(c.enter_depth, [16, 32, 48]);
        let tiny = BrownoutConfig::for_queue_capacity(1);
        assert_eq!(
            tiny.enter_depth,
            [1, 2, 3],
            "floors keep the ladder ordered"
        );
    }
}
