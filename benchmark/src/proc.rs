//! Outside-in process accounting: CPU time and peak RSS read from
//! `/proc/<pid>`, and a guard that stops a child however the run ends.

use std::process::{Child, Command};

/// Linux reports `/proc` CPU times in `USER_HZ` ticks, fixed at 100 for
/// userspace on every architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU time consumed so far, in milliseconds: `utime + stime` of a
/// `/proc/<pid>/stat` line. The command name (field 2) may itself contain
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ms(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 1000.0 / TICKS_PER_SECOND)
}

/// Peak resident set size in MB: the `VmHWM:` line of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb as f64 / 1024.0)
}

/// `pid` as a `/proc` path component; `None` reads this process.
fn proc_dir(pid: Option<u32>) -> String {
    pid.map_or_else(|| "/proc/self".to_string(), |p| format!("/proc/{p}"))
}

/// On-CPU nanoseconds of one task: the first field of its `schedstat`.
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// CPU milliseconds the process has consumed. `utime + stime` in `stat`
/// are sampled at the 10 ms scheduler tick, and a server that wakes on a
/// 10 ms timer runs in phase with that tick, which biases the sample by
/// ±10 % between runs; the scheduler's own per-task run time in
/// `/proc/<pid>/task/*/schedstat` is exact, so it is preferred, summed
/// over the live threads (none exits during a window). `stat` is the
/// fallback where the kernel keeps no schedstats.
pub fn cpu_ms(pid: Option<u32>) -> Result<f64, String> {
    let dir = proc_dir(pid);
    let exact: Option<u64> = std::fs::read_dir(format!("{dir}/task"))
        .ok()
        .and_then(|tasks| {
            tasks
                .map(|t| {
                    let text = std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok()?;
                    parse_schedstat_ns(&text)
                })
                .sum()
        });
    if let Some(ns) = exact.filter(|&ns| ns > 0) {
        return Ok(ns as f64 / 1e6);
    }
    let path = format!("{dir}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_stat_cpu_ms(&text).ok_or_else(|| format!("{path}: unparseable"))
}

/// Share of the machine's CPU time stolen by the hypervisor so far, as
/// `(steal, total)` ticks from the first line of `/proc/stat`.
pub fn parse_host_steal(stat: &str) -> Option<(u64, u64)> {
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_ascii_whitespace()
        .map_while(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

pub fn host_steal() -> Option<(u64, u64)> {
    parse_host_steal(&std::fs::read_to_string("/proc/stat").ok()?)
}

pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = format!("{}/status", proc_dir(pid));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_vm_hwm_mb(&text).ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Make the kernel kill the child if this process dies first, so a
/// benchmark killed by its driver cannot leave a server behind to perturb
/// the next run.
pub fn die_with_parent(cmd: &mut Command) {
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: the closure runs in the forked child before exec and makes
    // one async-signal-safe syscall; it touches no memory of the parent.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
            Ok(())
        });
    }
}

/// Owns a child process: kills it and waits for it on drop.
pub struct ChildGuard(Child);

impl ChildGuard {
    pub fn new(child: Child) -> Self {
        Self(child)
    }

    pub fn id(&self) -> u32 {
        self.0.id()
    }

    pub fn child_mut(&mut self) -> &mut Child {
        &mut self.0
    }

    /// Has the child already exited (it should not have)?
    pub fn exited(&mut self) -> bool {
        matches!(self.0.try_wait(), Ok(Some(_)))
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Sleep until `deadline` (no-op when already past).
pub fn sleep_until(deadline: std::time::Instant) {
    let now = std::time::Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        // A hostile comm with spaces and a ')' inside; utime=250 stime=50.
        let line = "4242 (serve http) x) S 1 4242 4242 0 -1 4194304 900 0 0 0 250 50 0 0 20 0 9 0 \
                    12345 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(parse_stat_cpu_ms(line), Some(3000.0));
        assert_eq!(parse_stat_cpu_ms("garbage"), None);
        assert_eq!(parse_stat_cpu_ms("1 (x) S 1 2"), None);
    }

    #[test]
    fn schedstat_and_host_steal_parse() {
        assert_eq!(parse_schedstat_ns("36626 1067140 2\n"), Some(36626));
        assert_eq!(parse_schedstat_ns(""), None);
        let stat = "cpu  978969 0 74846 2500725 5939 0 18544 18333 0 0\ncpu0 1 2 3\n";
        assert_eq!(
            parse_host_steal(stat),
            Some((18333, 978969 + 74846 + 2500725 + 5939 + 18544 + 18333))
        );
        assert_eq!(parse_host_steal("intr 1 2 3"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_mb() {
        let status =
            "Name:\tserve_http\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn own_process_is_readable() {
        assert!(cpu_ms(None).expect("own stat") >= 0.0);
        assert!(peak_rss_mb(None).expect("own status") > 0.0);
    }
}
