//! Loopback worker processes for tests, demos and CI: spawn `n` workers
//! on 127.0.0.1, learn their OS-assigned ports from the readiness line,
//! and reap them.

use std::io::{self, BufRead as _, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use crate::transport::LISTENING_PREFIX;

/// Worker processes spawned on loopback for tests, demos, and CI; killed
/// on drop if still running.
pub struct SpawnedWorkers {
    /// The workers' bound addresses, ready for [`run_distributed`].
    pub addrs: Vec<String>,
    children: Vec<Child>,
}

impl SpawnedWorkers {
    /// SIGKILLs worker `idx` (by position in [`SpawnedWorkers::addrs`])
    /// and removes it from the set, returning its address. The chaos
    /// suite calls this mid-campaign; a later [`SpawnedWorkers::join`]
    /// only waits on the survivors.
    ///
    /// # Errors
    ///
    /// Any kill/wait error.
    ///
    /// # Panics
    ///
    /// When `idx` is out of bounds.
    pub fn kill_one(&mut self, idx: usize) -> io::Result<String> {
        let mut child = self.children.remove(idx);
        let addr = self.addrs.remove(idx);
        // Always reap, even when the kill itself errors, so a half-dead
        // child can't linger as a zombie.
        let killed = child.kill();
        let waited = child.wait();
        killed.and(waited)?;
        Ok(addr)
    }

    /// Waits for every worker process to exit (after a campaign run with
    /// `shutdown_workers = true`), for up to ~10 seconds per worker.
    ///
    /// A worker whose coordinator connection was abandoned mid-campaign
    /// (failure → re-queue) never receives a `Shutdown` frame and sits in
    /// its accept loop; rather than hang forever, such a worker is killed
    /// and reported as an error — the campaign's results are unaffected,
    /// but a clean-shutdown assertion (the integration tests') should see
    /// it.
    ///
    /// # Errors
    ///
    /// Any wait error, a worker exiting unsuccessfully, or a worker that
    /// had to be killed after the grace period.
    pub fn join(mut self) -> io::Result<()> {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        // Pop children one at a time so an early error return leaves the
        // rest inside `self` for `Drop` to kill — a lazy `drain` would
        // leak them as orphan processes instead.
        while let Some(mut child) = self.children.pop() {
            let status = loop {
                if let Some(status) = child.try_wait()? {
                    break status;
                }
                if std::time::Instant::now() >= deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(io::Error::other(
                        "worker did not exit after shutdown; killed",
                    ));
                }
                std::thread::sleep(Duration::from_millis(20));
            };
            if !status.success() {
                return Err(io::Error::other(format!("worker exited with {status}")));
            }
        }
        Ok(())
    }
}

impl Drop for SpawnedWorkers {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawns `n` worker processes of `exe` on 127.0.0.1, waiting for each to
/// print its [`LISTENING_PREFIX`] readiness line. `args` is the argument
/// prefix that puts the executable into worker mode listening on
/// `127.0.0.1:0` (`["serve", "--listen", "127.0.0.1:0"]` for the
/// `symplfied` CLI).
///
/// # Errors
///
/// Any spawn error, or a worker exiting / closing stdout before
/// announcing readiness.
pub fn spawn_loopback_workers(exe: &Path, args: &[String], n: usize) -> io::Result<SpawnedWorkers> {
    let mut workers = SpawnedWorkers {
        addrs: Vec::with_capacity(n),
        children: Vec::with_capacity(n),
    };
    for _ in 0..n {
        let mut child = Command::new(exe)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| io::Error::other("worker stdout not captured"))?;
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let Some(line) = lines.next() else {
                let _ = child.kill();
                return Err(io::Error::other(
                    "worker exited before announcing its address",
                ));
            };
            let line = line?;
            if let Some(addr) = line.strip_prefix(LISTENING_PREFIX) {
                break addr.trim().to_owned();
            }
        };
        workers.addrs.push(addr);
        workers.children.push(child);
    }
    Ok(workers)
}
