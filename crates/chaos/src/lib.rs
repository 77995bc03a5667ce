//! Deterministic fault injection for resilience testing.
//!
//! The serving stack declares named **fault points** at the places where a
//! production deployment actually fails — accepting a connection, reading a
//! request, assembling a batch, dispatching a kernel, writing a response —
//! and this crate decides, per call, whether that point should misbehave.
//! Three fault kinds cover the failure taxonomy the self-healing machinery
//! must survive:
//!
//! - **panic** — the calling thread unwinds (exercises worker healing and
//!   per-member fallback isolation),
//! - **error** — the point returns a typed [`InjectedFault`] the caller
//!   propagates like any other error (exercises error paths end to end),
//! - **delay** — the calling thread sleeps a configured duration
//!   (exercises watchdogs, deadlines, and brownout controllers).
//!
//! Faults are drawn from a **seeded, per-point deterministic sequence**:
//! the `k`-th evaluation of a given point always produces the same
//! decision for the same `(seed, point, k)`, regardless of thread
//! interleaving across points, so a failing chaos run replays exactly from
//! its seed. Configuration comes from the `CHAOS_FAULTS` / `CHAOS_SEED`
//! environment variables (see [`configure_from_env`]) or programmatically
//! via [`configure`].
//!
//! When no faults are armed — the production configuration — every
//! [`point`] call is a single relaxed atomic load and an immediate return,
//! mirroring the `rntrajrec_obs` disabled fast path.
//!
//! # Spec grammar
//!
//! ```text
//! spec    := entry (';' entry)*
//! entry   := point '=' kind ('@' prob)? ('x' limit)?
//! kind    := 'panic' | 'error' | 'delay:' millis
//! ```
//!
//! Example: `engine.worker=panic@0.25x2;kernel.dispatch=delay:5@0.01`
//! panics the engine worker on ~25% of batches but at most twice, and adds
//! a 5 ms stall to ~1% of kernel dispatches.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::Duration;

/// What an armed fault point does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Unwind the calling thread with a panic.
    Panic,
    /// Return a typed [`InjectedFault`] from [`point`].
    Error,
    /// Sleep the calling thread for the given duration, then succeed.
    Delay(Duration),
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Panic => write!(f, "panic"),
            FaultKind::Error => write!(f, "error"),
            FaultKind::Delay(d) => write!(f, "delay:{}", d.as_millis()),
        }
    }
}

/// The typed error an `error`-kind fault point returns; carries the point
/// name so callers and logs can attribute the failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Name of the fault point that fired.
    pub point: &'static str,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chaos: injected error at {}", self.point)
    }
}

impl std::error::Error for InjectedFault {}

/// One armed fault point.
#[derive(Debug)]
struct Fault {
    kind: FaultKind,
    /// Probability per evaluation, in `[0, 1]`.
    prob: f64,
    /// Stop firing after this many injections (`None` = unbounded).
    limit: Option<u64>,
    /// Per-point seed: `splitmix64(global_seed ^ fnv1a(name))`.
    seed: u64,
    /// Evaluations so far; the `k`-th evaluation draws
    /// `splitmix64(seed + k)`, so the decision sequence at a point is a
    /// pure function of `(seed, k)` — deterministic under concurrency.
    draws: AtomicU64,
    /// Successful injections so far (bounded by `limit`).
    fired: AtomicU64,
}

#[derive(Debug, Default)]
struct Config {
    faults: HashMap<&'static str, Fault>,
    seed: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn config() -> &'static RwLock<Config> {
    static CONFIG: std::sync::OnceLock<RwLock<Config>> = std::sync::OnceLock::new();
    CONFIG.get_or_init(|| RwLock::new(Config::default()))
}

/// SplitMix64 — the standard 64-bit mixer; good equidistribution from
/// sequential inputs, which is exactly the `seed + k` use here.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the point name: stable, dependency-free name hashing.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Uniform in `[0, 1)` from the top 53 bits.
#[inline]
fn u01(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Is any fault armed? One relaxed load — the entire disabled-path cost.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Evaluate a fault point. The no-faults fast path is a single relaxed
/// atomic load. When the point is armed and its draw fires:
/// `panic` unwinds here, `delay` sleeps here and then returns `Ok`, and
/// `error` returns the typed [`InjectedFault`] for the caller to
/// propagate.
#[inline]
pub fn point(name: &'static str) -> Result<(), InjectedFault> {
    if !ENABLED.load(Ordering::Relaxed) {
        return Ok(());
    }
    hit(name)
}

/// [`point`] for infallible call sites (kernel dispatch, accept loops):
/// an injected `error` escalates to a panic so the fault still surfaces
/// through the nearest isolation boundary instead of being dropped.
#[inline]
pub fn point_infallible(name: &'static str) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(fault) = hit(name) {
        panic!("{fault} (escalated at infallible point)");
    }
}

#[cold]
fn hit(name: &'static str) -> Result<(), InjectedFault> {
    let cfg = config().read().unwrap_or_else(|e| e.into_inner());
    let Some(fault) = cfg.faults.get(name) else {
        return Ok(());
    };
    let k = fault.draws.fetch_add(1, Ordering::Relaxed);
    if u01(splitmix64(fault.seed.wrapping_add(k))) >= fault.prob {
        return Ok(());
    }
    // Respect the injection cap without racing past it: only the winners
    // of the fetch_update actually fire.
    let won = fault
        .fired
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            match fault.limit {
                Some(limit) if n >= limit => None,
                _ => Some(n + 1),
            }
        })
        .is_ok();
    if !won {
        return Ok(());
    }
    match fault.kind {
        FaultKind::Panic => {
            drop(cfg);
            panic!("chaos: injected panic at {name}");
        }
        FaultKind::Delay(d) => {
            drop(cfg);
            std::thread::sleep(d);
            Ok(())
        }
        FaultKind::Error => Err(InjectedFault { point: name }),
    }
}

/// Parse and arm a fault spec (see the crate docs for the grammar) under
/// the given deterministic seed, replacing any previous configuration.
/// An empty spec disarms everything, like [`disarm`].
///
/// # Errors
/// A human-readable message naming the malformed entry.
pub fn configure(spec: &str, seed: u64) -> Result<(), String> {
    let mut faults = HashMap::new();
    for entry in spec
        .split([';', ','])
        .map(str::trim)
        .filter(|e| !e.is_empty())
    {
        let (name, rest) = entry
            .split_once('=')
            .ok_or_else(|| format!("chaos spec entry '{entry}': expected point=kind[@prob][xN]"))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(format!("chaos spec entry '{entry}': empty point name"));
        }
        let (kind_prob, limit) = match rest.rsplit_once('x') {
            Some((head, lim)) if lim.chars().all(|c| c.is_ascii_digit()) && !lim.is_empty() => {
                (head, Some(lim.parse::<u64>().map_err(|e| e.to_string())?))
            }
            _ => (rest, None),
        };
        let (kind_str, prob) = match kind_prob.split_once('@') {
            Some((k, p)) => (
                k,
                p.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("chaos spec entry '{entry}': bad probability '{p}'"))?,
            ),
            None => (kind_prob, 1.0),
        };
        if !(0.0..=1.0).contains(&prob) {
            return Err(format!(
                "chaos spec entry '{entry}': probability {prob} outside [0,1]"
            ));
        }
        let kind = match kind_str.trim() {
            "panic" => FaultKind::Panic,
            "error" => FaultKind::Error,
            other => match other.strip_prefix("delay:") {
                Some(ms) => {
                    FaultKind::Delay(Duration::from_millis(ms.trim().parse::<u64>().map_err(
                        |_| format!("chaos spec entry '{entry}': bad delay millis '{ms}'"),
                    )?))
                }
                None => {
                    return Err(format!(
                        "chaos spec entry '{entry}': unknown kind '{other}' (panic|error|delay:MS)"
                    ))
                }
            },
        };
        // Point names are &'static in the API; specs arrive as owned
        // strings, so leak each distinct configured name once. Bounded by
        // the number of distinct names ever configured in the process.
        let name: &'static str = Box::leak(name.to_string().into_boxed_str());
        faults.insert(
            name,
            Fault {
                kind,
                prob,
                limit,
                seed: splitmix64(seed ^ fnv1a(name)),
                draws: AtomicU64::new(0),
                fired: AtomicU64::new(0),
            },
        );
    }
    let armed = !faults.is_empty();
    let mut cfg = config().write().unwrap_or_else(|e| e.into_inner());
    cfg.faults = faults;
    cfg.seed = seed;
    ENABLED.store(armed, Ordering::Relaxed);
    Ok(())
}

/// Arm faults from the environment: `CHAOS_FAULTS` holds the spec,
/// `CHAOS_SEED` the replay seed (default 0). Returns whether anything was
/// armed; unset/empty `CHAOS_FAULTS` leaves chaos disabled.
///
/// # Errors
/// Propagates [`configure`] parse errors — a misspelled fault spec should
/// fail loudly at boot, not silently run a clean experiment.
pub fn configure_from_env() -> Result<bool, String> {
    let spec = match std::env::var("CHAOS_FAULTS") {
        Ok(s) if !s.trim().is_empty() => s,
        _ => return Ok(false),
    };
    let seed = match std::env::var("CHAOS_SEED") {
        Ok(s) => s
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("CHAOS_SEED '{s}' is not a u64"))?,
        Err(_) => 0,
    };
    configure(&spec, seed)?;
    Ok(enabled())
}

/// Disarm every fault point and restore the zero-cost fast path.
pub fn disarm() {
    let mut cfg = config().write().unwrap_or_else(|e| e.into_inner());
    cfg.faults.clear();
    ENABLED.store(false, Ordering::Relaxed);
}

/// Snapshot of one armed fault point's live counters, for `/metrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct PointStats {
    /// Fault point name.
    pub point: &'static str,
    /// Configured fault kind, rendered with the spec grammar.
    pub kind: String,
    /// Configured per-evaluation probability.
    pub prob: f64,
    /// Evaluations so far.
    pub draws: u64,
    /// Injections so far.
    pub fired: u64,
}

/// Live counters for every armed point, sorted by name (stable output for
/// `/metrics` and logs). Empty when disarmed.
pub fn snapshot() -> Vec<PointStats> {
    let cfg = config().read().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<PointStats> = cfg
        .faults
        .iter()
        .map(|(name, f)| PointStats {
            point: name,
            kind: f.kind.to_string(),
            prob: f.prob,
            draws: f.draws.load(Ordering::Relaxed),
            fired: f.fired.load(Ordering::Relaxed),
        })
        .collect();
    out.sort_by_key(|s| s.point);
    out
}

/// The seed the current configuration was armed with (0 when disarmed).
pub fn seed() -> u64 {
    config().read().unwrap_or_else(|e| e.into_inner()).seed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chaos state is process-global; serialize the tests that mutate it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_points_are_free_and_ok() {
        let _g = lock();
        disarm();
        assert!(!enabled());
        for _ in 0..1000 {
            assert!(point("engine.worker").is_ok());
        }
    }

    #[test]
    fn error_points_fire_deterministically_for_a_seed() {
        let _g = lock();
        let run = |seed: u64| -> Vec<bool> {
            configure("p.err=error@0.5", seed).unwrap();
            let v = (0..64).map(|_| point("p.err").is_err()).collect();
            disarm();
            v
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed must replay the same decisions");
        assert_ne!(a, c, "different seeds should diverge");
        assert!(a.iter().any(|&e| e) && a.iter().any(|&e| !e));
    }

    #[test]
    fn limit_caps_injections() {
        let _g = lock();
        configure("p.lim=error@1.0x3", 1).unwrap();
        let errs = (0..50).filter(|_| point("p.lim").is_err()).count();
        assert_eq!(errs, 3);
        let snap = snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].fired, 3);
        assert_eq!(snap[0].draws, 50);
        disarm();
    }

    #[test]
    fn panic_kind_unwinds_and_infallible_escalates_errors() {
        let _g = lock();
        configure("p.boom=panic@1.0;p.esc=error@1.0", 2).unwrap();
        let caught = std::panic::catch_unwind(|| point("p.boom"));
        assert!(caught.is_err());
        let caught = std::panic::catch_unwind(|| point_infallible("p.esc"));
        assert!(caught.is_err());
        disarm();
    }

    #[test]
    fn delay_kind_sleeps_then_succeeds() {
        let _g = lock();
        configure("p.slow=delay:20@1.0", 3).unwrap();
        let t0 = std::time::Instant::now();
        assert!(point("p.slow").is_ok());
        assert!(t0.elapsed() >= Duration::from_millis(15));
        disarm();
    }

    #[test]
    fn unarmed_points_pass_when_others_are_armed() {
        let _g = lock();
        configure("p.other=panic@1.0", 4).unwrap();
        assert!(point("p.unarmed").is_ok());
        disarm();
    }

    #[test]
    fn spec_parser_rejects_malformed_entries() {
        let _g = lock();
        for bad in [
            "nokind",
            "p=weird",
            "p=panic@1.5",
            "p=panic@zero",
            "p=delay:abc",
            "=panic",
        ] {
            assert!(
                configure(bad, 0).is_err(),
                "spec '{bad}' should be rejected"
            );
        }
        // The failed configure must not leave stale faults armed.
        assert!(configure("", 0).is_ok());
        assert!(!enabled());
    }

    #[test]
    fn env_roundtrip_parses_spec_and_seed() {
        let _g = lock();
        std::env::set_var("CHAOS_FAULTS", "p.env=delay:1@0.5");
        std::env::set_var("CHAOS_SEED", "99");
        assert!(configure_from_env().unwrap());
        assert!(enabled());
        assert_eq!(seed(), 99);
        std::env::remove_var("CHAOS_FAULTS");
        std::env::remove_var("CHAOS_SEED");
        disarm();
    }
}
