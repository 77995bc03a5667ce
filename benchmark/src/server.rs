//! The `serve_http` child: boot it, time the boot, stop it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{ChildStdout, Stdio};
use std::time::{Duration, Instant};

use crate::adapter;
use crate::client;
use crate::prep::{Dirs, Prepared};
use crate::proc::{self, ChildGuard};

const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Server {
    // Field order is drop order: the child is killed and reaped first,
    // then its pipe is closed.
    guard: ChildGuard,
    /// Kept open so the server's later prints never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Spawn → first `200` from `/healthz`.
    pub setup_s: f64,
    /// The kernel backend the server says it dispatches to.
    pub kernel_backend: String,
}

impl Server {
    pub fn pid(&self) -> u32 {
        self.guard.id()
    }

    pub fn alive(&mut self) -> bool {
        !self.guard.exited()
    }
}

/// Spawn `serve_http` over the run's artifacts and wait until it answers
/// `/healthz`. stderr goes to `log` (it is only read by a human).
pub fn boot(dirs: &Dirs, p: &Prepared, traced: bool, log: &Path) -> Result<Server, String> {
    let log_file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    let mut cmd = adapter::server_command(&dirs.bin, &p.artifacts, traced);
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(log_file));
    proc::die_with_parent(&mut cmd);
    let spawned = Instant::now();
    let mut guard = ChildGuard::new(cmd.spawn().map_err(|e| format!("spawn serve_http: {e}"))?);
    let mut stdout = BufReader::new(guard.child_mut().stdout.take().expect("stdout was piped"));

    let mut kernel_backend = String::new();
    let addr = loop {
        let mut line = String::new();
        let n = stdout.read_line(&mut line).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err(format!(
                "serve_http exited before listening; see {}",
                log.display()
            ));
        }
        if let Some(rest) = line.strip_prefix("kernels: backend=") {
            kernel_backend = rest.split(' ').next().unwrap_or_default().to_string();
        }
        if let Some(addr) = adapter::parse_listen_line(&line) {
            break addr;
        }
    };
    let healthy = client::wait_healthy(addr, spawned + BOOT_TIMEOUT)?;
    Ok(Server {
        guard,
        _stdout: stdout,
        addr,
        setup_s: (healthy - spawned).as_secs_f64(),
        kernel_backend,
    })
}
