//! A test-only failure injector for the transport: a frame-aware TCP
//! proxy that sits between a coordinator and a worker and breaks the
//! conversation in controlled ways. The chaos acceptance suite (in-crate
//! tests, `crates/core/tests/chaos.rs`, and the `just chaos-demo` CI leg)
//! uses it to prove the supervision layer's claims: a dropped connection
//! re-queues the in-flight task, a mid-frame stall trips the
//! heartbeat-derived liveness deadline instead of hanging the campaign,
//! and either way the merged report reproduces the in-process
//! `outcome_digest` verbatim.
//!
//! This module injects faults into *our own* infrastructure under test —
//! it is not a general network tool. The proxy serves exactly one
//! downstream connection and then exits.

use std::io::{self, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::frame::{read_frame, read_preamble, write_frame, write_preamble};
use crate::WireError;

/// How the proxy should break the worker→coordinator stream.
#[derive(Debug, Clone, Copy)]
pub enum ChaosMode {
    /// Forward this many worker→coordinator frames (heartbeats count),
    /// then drop both connections — the coordinator observes a clean
    /// disconnect mid-task.
    DropAfterFrames(usize),
    /// Forward this many frames, then forward only *half* of the next
    /// frame and go silent for `hold` before dropping — the coordinator
    /// observes a wedged worker (partial bytes, then nothing) and must
    /// fail the connection via its liveness deadline, never by waiting
    /// out the hold.
    StallMidFrame {
        /// Intact frames to forward before the stall.
        after_frames: usize,
        /// How long to hold the half-sent frame before dropping.
        hold: Duration,
    },
    /// Forward every frame, but send frame number `frame` (0-based)
    /// *twice* — duplicate delivery at the frame layer. A doubled
    /// heartbeat is harmless (liveness just re-arms). A doubled result
    /// is read while the connection is idle or already running its next
    /// task. The coordinator refuses it as stale — it names another
    /// shard, another point count, or equals the last result booked on
    /// that connection — fails the connection and re-queues the task in
    /// flight, so the merged report never counts it. The equality check
    /// is what tells a repeated split half from its equally long
    /// sibling, which shares the parent's id.
    DuplicateFrame {
        /// Index of the worker→coordinator frame to send twice.
        frame: usize,
    },
}

/// A one-shot chaos proxy in front of an upstream worker address.
pub struct ChaosProxy {
    /// The proxy's own listen address — hand this to the coordinator in
    /// place of the worker's.
    pub addr: String,
    handle: JoinHandle<()>,
}

impl ChaosProxy {
    /// Starts a proxy on a loopback port that will serve one coordinator
    /// connection against `upstream`, applying `mode` to the
    /// worker→coordinator direction.
    ///
    /// # Errors
    ///
    /// Any socket error binding the listen port.
    pub fn start(upstream: String, mode: ChaosMode) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let handle = std::thread::spawn(move || {
            if let Err(e) = proxy_one(&listener, &upstream, mode) {
                eprintln!("sympl-wire chaos proxy: {e}");
            }
        });
        Ok(ChaosProxy { addr, handle })
    }

    /// Waits for the proxy thread to finish (it exits once its single
    /// connection has been served and broken).
    pub fn join(self) {
        let _ = self.handle.join();
    }
}

fn proxy_one(listener: &TcpListener, upstream: &str, mode: ChaosMode) -> io::Result<()> {
    let (down, _) = listener.accept()?;
    let up = TcpStream::connect(upstream)?;
    down.set_nodelay(true)?;
    up.set_nodelay(true)?;

    // Coordinator→worker is forwarded verbatim on its own thread; the
    // chaos is injected into the worker→coordinator direction only.
    let down_for_copy = down.try_clone()?;
    let up_for_copy = up.try_clone()?;
    let forward = std::thread::spawn(move || {
        let _ = io::copy(&mut &down_for_copy, &mut &up_for_copy);
        let _ = up_for_copy.shutdown(Shutdown::Write);
    });

    let outcome = run_chaos_direction(&up, &down, mode);

    // Tear everything down so the copy thread unblocks whatever happens.
    let _ = down.shutdown(Shutdown::Both);
    let _ = up.shutdown(Shutdown::Both);
    let _ = forward.join();
    outcome
}

/// Forwards the worker preamble then frames downstream, applying `mode`.
/// Frames are re-emitted through [`write_frame`], so the proxy adds no
/// write-splitting stall of its own to the conversation under test.
fn run_chaos_direction(up: &TcpStream, down: &TcpStream, mode: ChaosMode) -> io::Result<()> {
    let mut reader = BufReader::new(up.try_clone()?);
    let mut writer = down.try_clone()?;

    read_preamble(&mut reader).map_err(io::Error::other)?;
    write_preamble(&mut writer).map_err(io::Error::other)?;

    let mut forwarded = 0usize;
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(payload) => payload,
            // End of the upstream stream at a frame boundary: a clean
            // hang-up, forwarded by returning.
            Err(WireError::Disconnected) => return Ok(()),
            Err(e) => return Err(io::Error::other(e)),
        };
        match mode {
            ChaosMode::DropAfterFrames(n) if forwarded >= n => {
                // Drop the connection with this frame unsent.
                return Ok(());
            }
            ChaosMode::StallMidFrame { after_frames, hold } if forwarded >= after_frames => {
                // Send the prefix and half the payload, then go silent:
                // the coordinator holds partial bytes it can never
                // complete into a frame.
                let mut framed = Vec::new();
                write_frame(&mut framed, &payload).map_err(io::Error::other)?;
                let cut = framed.len() - payload.len().div_ceil(2);
                writer.write_all(&framed[..cut])?;
                writer.flush()?;
                std::thread::sleep(hold);
                return Ok(());
            }
            ChaosMode::DuplicateFrame { frame } if forwarded == frame => {
                // Deliver the frame twice, back to back, then keep
                // forwarding normally.
                write_frame(&mut writer, &payload).map_err(io::Error::other)?;
                write_frame(&mut writer, &payload).map_err(io::Error::other)?;
            }
            _ => write_frame(&mut writer, &payload).map_err(io::Error::other)?,
        }
        forwarded += 1;
    }
}
