//! The `serve` process under test: build, spawn, discover, query, stop.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use ai2_serve::{AdminRequest, Request, Response, ServeStats, TcpClient};

/// Builds the repository's `serve` binary (a no-op when it is current)
/// and returns its path under the cargo target directory.
pub fn build_serve(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "ai2-serve",
            "--bin",
            "serve",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building serve failed ({status})"));
    }
    let bin = target_dir(root).join("release").join("serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("serve binary missing at {}", bin.display()))
    }
}

/// The cargo target directory of the checkout at `root`.
pub fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    }
}

/// A running `serve` child. Killed and reaped on drop.
pub struct ServeProc {
    child: Child,
    pub addr: SocketAddr,
    /// Spawn → `SERVE_ADDR` line: dataset generation, training,
    /// checkpoint save and replica restore.
    pub setup_s: f64,
}

impl ServeProc {
    /// Spawns `serve` in its default configuration plus the benchmark's
    /// pipeline file, saving the trained checkpoint to `ckpt`.
    pub fn spawn(bin: &Path, pipelines: &Path, ckpt: &Path) -> Result<ServeProc, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--port", "0", "--pipelines"])
            .arg(pipelines)
            .arg("--save-checkpoint")
            .arg(ckpt)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        crate::load::die_with_parent(&mut cmd);
        let t0 = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn serve: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let mut reader = BufReader::new(stdout);
        let addr = loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("serve exited before printing SERVE_ADDR".into());
                }
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix("SERVE_ADDR=") {
                        break addr.parse::<SocketAddr>();
                    }
                }
            }
        };
        let setup_s = t0.elapsed().as_secs_f64();
        let addr = match addr {
            Ok(addr) => addr,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("bad SERVE_ADDR line {line:?}: {e}"));
            }
        };
        Ok(ServeProc {
            child,
            addr,
            setup_s,
        })
    }

    /// The `stats` endpoint over a fresh connection.
    pub fn stats(&self) -> Result<ServeStats, String> {
        let mut client =
            TcpClient::connect(self.addr).map_err(|e| format!("stats connect: {e}"))?;
        match client.send(&Request::Admin(AdminRequest::Stats { id: 0 })) {
            Ok(Response::Stats(s)) => Ok(s),
            Ok(other) => Err(format!("stats answered {other:?}")),
            Err(e) => Err(format!("stats: {e}")),
        }
    }

    /// Peak resident set of the server (`VmHWM`), MiB.
    pub fn rss_peak_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }

    /// Kills the server and waits for it to exit.
    pub fn stop(mut self) {
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        self.kill();
    }
}
