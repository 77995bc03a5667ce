//! Brownout: a load-watermark controller that sheds new work under
//! pressure.
//!
//! The controller watches two signals the engine already produces — queue
//! depth and queue-wait p99 — and switches between two states:
//!
//! | level | mode     | effect                                        |
//! |-------|----------|-----------------------------------------------|
//! | 0     | `normal` | every submission is admitted                  |
//! | 1     | `shed`   | new submissions refused (`503 Retry-After`)   |
//!
//! Brownout never changes how an admitted request is decoded: the segment
//! head and the batching knobs are the configured ones in both states, so
//! a served answer is the same bits under any load.
//!
//! `shed` is entered when the queue depth reaches 3/4 of the engine's own
//! `queue_capacity` (64 requests when it is unbounded), or the queue-wait
//! p99 reaches 1000 ms. Entering is immediate; leaving requires the load
//! to fall below half of both watermarks and *stay* there for 50
//! consecutive ticks (half a second at the supervisor's 10 ms cadence) —
//! the hysteresis that keeps the mode from flapping when load hovers at a
//! threshold.
//!
//! The controller is a pure function of its observations (no clocks, no
//! atomics), so every transition is unit-testable; the engine's
//! supervisor thread feeds it once per tick.

/// Turns the brownout controller on (`EngineConfig::brownout`). There is
/// nothing to set: the watermarks and the hysteresis are the ones in the
/// module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct BrownoutConfig;

/// Queue-wait p99 watermark (milliseconds) to *enter* `shed`.
const ENTER_P99_MS: f64 = 1000.0;
/// To leave `shed`, load must fall below this fraction of both enter
/// watermarks.
const EXIT_FRACTION: f64 = 0.5;
/// Consecutive calm ticks required before leaving `shed`.
const DWELL_TICKS: u32 = 50;

/// Queue-depth watermark to *enter* `shed`: 3/4 of a bounded queue (at
/// least one waiting request), 64 for an unbounded one.
fn enter_depth(queue_capacity: Option<usize>) -> usize {
    queue_capacity.map_or(64, |c| (c * 3 / 4).max(1))
}

/// Names for the two levels, used on `/metrics` and in `EngineStats`.
pub const MODE_NAMES: [&str; 2] = ["normal", "shed"];

/// Human-readable name of a level (out-of-range clamps to `shed`).
pub fn mode_name(level: u8) -> &'static str {
    MODE_NAMES[(level as usize).min(MODE_NAMES.len() - 1)]
}

/// The two-state machine; see the module docs for the transition rules.
#[derive(Debug, Clone)]
pub struct BrownoutController {
    enter_depth: usize,
    shedding: bool,
    /// Consecutive calm ticks observed while shedding.
    calm: u32,
}

impl BrownoutController {
    /// The controller for an engine whose queue admits `queue_capacity`
    /// waiting requests (`None`: unbounded).
    pub fn new(queue_capacity: Option<usize>) -> Self {
        Self {
            enter_depth: enter_depth(queue_capacity),
            shedding: false,
            calm: 0,
        }
    }

    /// Current level (0 = normal, 1 = shed).
    pub fn level(&self) -> u8 {
        u8::from(self.shedding)
    }

    /// Feed one tick's load observation and return the (possibly new)
    /// level.
    pub fn observe(&mut self, queue_depth: usize, queue_wait_p99_ms: f64) -> u8 {
        if !self.shedding {
            self.shedding = queue_depth >= self.enter_depth || queue_wait_p99_ms >= ENTER_P99_MS;
        } else {
            let calm_now = (queue_depth as f64) < self.enter_depth as f64 * EXIT_FRACTION
                && queue_wait_p99_ms < ENTER_P99_MS * EXIT_FRACTION;
            self.calm = if calm_now { self.calm + 1 } else { 0 };
            if self.calm >= DWELL_TICKS {
                self.shedding = false;
                self.calm = 0;
            }
        }
        self.level()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Depth watermark 30.
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
    fn pressure_sheds_at_once_and_shed_is_the_ceiling() {
        let mut c = controller();
        assert_eq!(c.observe(29, 999.0), 0, "below both watermarks");
        assert_eq!(c.observe(30, 0.0), 1, "the depth watermark sheds");
        assert_eq!(c.observe(100, 0.0), 1, "shed is the ceiling");
    }

    #[test]
    fn latency_watermark_alone_triggers_entry() {
        let mut c = controller();
        assert_eq!(c.observe(0, 1000.0), 1, "p99 at 1000ms sheds");
    }

    #[test]
    fn leaving_requires_dwell_below_exit_watermark() {
        let mut c = controller();
        c.observe(30, 0.0);
        assert_eq!(c.level(), 1);
        // Below enter (30) but not below exit (15): shed forever.
        for _ in 0..200 {
            assert_eq!(c.observe(20, 0.0), 1, "hysteresis band holds the level");
        }
        // Calm (< 15 and < 500ms) must persist DWELL_TICKS before leaving.
        for _ in 1..DWELL_TICKS {
            assert_eq!(c.observe(2, 0.0), 1);
        }
        assert_eq!(c.observe(2, 0.0), 0, "the last calm tick leaves shed");
    }

    #[test]
    fn pressure_blip_resets_the_dwell_counter() {
        let mut c = controller();
        c.observe(30, 0.0);
        for _ in 1..DWELL_TICKS {
            c.observe(2, 0.0);
        }
        c.observe(2, 600.0); // latency in the hysteresis band — calm streak resets
        for _ in 1..DWELL_TICKS {
            assert_eq!(c.observe(2, 0.0), 1);
        }
        assert_eq!(c.observe(2, 0.0), 0);
    }

    #[test]
    fn mode_names_cover_both_levels() {
        assert_eq!(mode_name(0), "normal");
        assert_eq!(mode_name(1), "shed");
        assert_eq!(mode_name(200), "shed", "out of range clamps");
    }

    #[test]
    fn capacity_scaled_watermark() {
        assert_eq!(enter_depth(Some(64)), 48);
        assert_eq!(enter_depth(Some(1)), 1, "at least one waiting request");
        assert_eq!(enter_depth(None), 64, "unbounded queue");
    }
}
