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
//! Levels 1, 2 and 3 are entered when the queue depth reaches 1/4, 1/2
//! and 3/4 of the engine's own `queue_capacity` (16 / 32 / 64 requests
//! when it is unbounded), or the queue-wait p99 reaches 50 / 200 /
//! 1000 ms.
//!
//! Stepping **up** is immediate (pressure at the next level's watermark);
//! stepping **down** requires the load to fall below half of the current
//! level's watermarks and *stay* there for 50 consecutive ticks (half a
//! second at the supervisor's 10 ms cadence) — the hysteresis that keeps
//! the mode from flapping when load hovers at a threshold.
//!
//! The controller is a pure function of its observations (no clocks, no
//! atomics), so every transition is unit-testable; the engine's
//! supervisor thread feeds it once per tick and applies the resulting
//! level to the live batching knobs.

/// Turns the brownout controller on (`EngineConfig::brownout`). There is
/// nothing to set: the watermarks and the hysteresis are the ones in the
/// module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct BrownoutConfig;

/// Queue-wait p99 watermark (milliseconds) to *enter* level `i + 1`.
const ENTER_P99_MS: [f64; 3] = [50.0, 200.0, 1000.0];
/// To step down, load must fall below this fraction of the current
/// level's enter watermarks (both of them).
const EXIT_FRACTION: f64 = 0.5;
/// Consecutive calm ticks required before stepping down one level.
const DWELL_TICKS: u32 = 50;

/// Queue-depth watermark to *enter* level `i + 1`: 1/4, 1/2 and 3/4 of a
/// bounded queue (floored so the ladder stays ordered), 16 / 32 / 64 for
/// an unbounded one.
fn enter_depth(queue_capacity: Option<usize>) -> [usize; 3] {
    match queue_capacity {
        Some(c) => [(c / 4).max(1), (c / 2).max(2), (c * 3 / 4).max(3)],
        None => [16, 32, 64],
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
    enter_depth: [usize; 3],
    level: u8,
    /// Consecutive calm ticks observed at the current level.
    calm: u32,
}

impl BrownoutController {
    /// The controller for an engine whose queue admits `queue_capacity`
    /// waiting requests (`None`: unbounded).
    pub fn new(queue_capacity: Option<usize>) -> Self {
        Self {
            enter_depth: enter_depth(queue_capacity),
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
            queue_depth >= self.enter_depth[i] || queue_wait_p99_ms >= ENTER_P99_MS[i]
        };
        if self.level < 3 && pressed(self.level + 1) {
            self.level += 1;
            self.calm = 0;
            return self.level;
        }
        if self.level > 0 {
            let i = (self.level - 1) as usize;
            let calm_now = (queue_depth as f64) < self.enter_depth[i] as f64 * EXIT_FRACTION
                && queue_wait_p99_ms < ENTER_P99_MS[i] * EXIT_FRACTION;
            if calm_now {
                self.calm += 1;
                if self.calm >= DWELL_TICKS {
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

    /// Depth watermarks 10 / 20 / 30.
    fn controller() -> BrownoutController {
        BrownoutController::new(Some(40))
    }

    #[test]
    fn idle_stays_normal() {
        let mut c = controller();
        for _ in 0..100 {
            assert_eq!(c.observe(0, 0.0), 0);
        }
    }

    #[test]
    fn sustained_pressure_climbs_one_level_per_tick_to_shed() {
        let mut c = controller();
        assert_eq!(c.observe(100, 0.0), 1);
        assert_eq!(c.observe(100, 0.0), 2);
        assert_eq!(c.observe(100, 0.0), 3);
        assert_eq!(c.observe(100, 0.0), 3, "shed is the ceiling");
    }

    #[test]
    fn latency_watermark_alone_triggers_entry() {
        let mut c = controller();
        assert_eq!(c.observe(0, 60.0), 1, "p99 above 50ms enters level 1");
    }

    #[test]
    fn step_down_requires_dwell_below_exit_watermark() {
        let mut c = controller();
        c.observe(15, 0.0);
        assert_eq!(c.level(), 1);
        // Below enter (10) but not below exit (5): hold the level forever.
        for _ in 0..200 {
            assert_eq!(c.observe(7, 0.0), 1, "hysteresis band holds the level");
        }
        // Calm (< 5 and < 25ms) must persist DWELL_TICKS before stepping.
        for _ in 1..DWELL_TICKS {
            assert_eq!(c.observe(2, 0.0), 1);
        }
        assert_eq!(c.observe(2, 0.0), 0, "the last calm tick steps down");
    }

    #[test]
    fn pressure_blip_resets_the_dwell_counter() {
        let mut c = controller();
        c.observe(15, 0.0);
        for _ in 1..DWELL_TICKS {
            c.observe(2, 0.0);
        }
        c.observe(7, 0.0); // in the hysteresis band — calm streak resets
        for _ in 1..DWELL_TICKS {
            assert_eq!(c.observe(2, 0.0), 1);
        }
        assert_eq!(c.observe(2, 0.0), 0);
    }

    #[test]
    fn descent_is_also_one_level_per_dwell() {
        let mut c = controller();
        for _ in 0..3 {
            c.observe(100, 2000.0);
        }
        assert_eq!(c.level(), 3);
        let downs: Vec<u8> = (0..4 * DWELL_TICKS).map(|_| c.observe(0, 0.0)).collect();
        let want: Vec<u8> = (1..=4 * DWELL_TICKS)
            .map(|tick| 3u32.saturating_sub(tick / DWELL_TICKS) as u8)
            .collect();
        assert_eq!(downs, want);
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
        assert_eq!(enter_depth(Some(64)), [16, 32, 48]);
        assert_eq!(
            enter_depth(Some(1)),
            [1, 2, 3],
            "floors keep the ladder ordered"
        );
        assert_eq!(enter_depth(None), [16, 32, 64], "unbounded queue");
    }
}
