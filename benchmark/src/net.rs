//! The benchmark's network side: a fleet of in-thread campaign daemons on
//! real loopback TCP, a probe client that speaks only the public frame
//! API, and an echo peer that gives the floor for a frame round trip.

use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sympl_asm::Program;
use sympl_cluster::{Finding, TaskResult};
use sympl_detect::DetectorSet;
use sympl_wire::{
    decode_message, encode_message, handshake, read_frame, shutdown_worker, write_frame, Message,
    ServeOptions, ServiceStats, WireError, WorkerServer,
};

/// What `symplfied serve` resolves task frames with: the bundled
/// workloads, rebuilt per frame.
fn resolve(id: &str) -> Option<(Program, DetectorSet)> {
    sympl_apps::resolve_workload(id).map(|w| (w.program, w.detectors))
}

/// `n` campaign daemons, each `WorkerServer::serve_with(default)` on its
/// own thread and loopback port.
pub struct Fleet {
    pub addrs: Vec<String>,
    daemons: Vec<JoinHandle<Result<ServiceStats, WireError>>>,
}

impl Fleet {
    pub fn start(n: usize) -> std::io::Result<Fleet> {
        let mut addrs = Vec::new();
        let mut daemons = Vec::new();
        for _ in 0..n {
            let server = WorkerServer::bind("127.0.0.1:0")?;
            addrs.push(server.local_addr()?.to_string());
            daemons.push(std::thread::spawn(move || {
                server.serve_with(&resolve, &ServeOptions::default())
            }));
        }
        Ok(Fleet { addrs, daemons })
    }

    /// Drains every daemon (a bare `Shutdown` frame), waits for each to
    /// exit, and returns the per-client accounting each reported. Every
    /// session must already be closed, or the drain waits for it.
    pub fn shutdown(self) -> Result<Vec<ServiceStats>, String> {
        for addr in &self.addrs {
            shutdown_worker(addr).map_err(|e| format!("cannot drain daemon {addr}: {e}"))?;
        }
        self.daemons
            .into_iter()
            .map(|d| {
                d.join()
                    .map_err(|_| "a daemon thread panicked".to_string())?
                    .map_err(|e| format!("daemon failed: {e}"))
            })
            .collect()
    }
}

/// One task's trip through a daemon as the probe saw it.
pub struct Turnaround {
    pub wall: Duration,
    pub heartbeats: usize,
    /// `None` when the daemon answered with an `Error` frame.
    pub done: Option<(TaskResult, Vec<Finding>)>,
    /// Payload bytes of the reply frame.
    pub reply_bytes: usize,
}

/// A coordinator-shaped client built from the public frame functions
/// only, so turnaround is timed from outside the transport layer.
pub struct Probe {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Probe {
    /// Connects, negotiates the preamble, and opens a session
    /// (`ClientHello` → `ClientAccept`).
    pub fn open(addr: &str, label: &str, priority: u64) -> Result<Probe, WireError> {
        // Socket options stay at the defaults the transport itself uses.
        let mut stream = TcpStream::connect(addr)?;
        handshake(&mut stream)?;
        let mut probe = Probe {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        };
        probe.send(&Message::ClientHello {
            client: label.to_string(),
            priority,
        })?;
        match probe.recv()?.0 {
            Message::ClientAccept { .. } => Ok(probe),
            Message::Error(why) => Err(WireError::Remote(why)),
            _ => Err(WireError::UnexpectedMessage("session reply")),
        }
    }

    fn send(&mut self, message: &Message) -> Result<(), WireError> {
        write_frame(&mut self.writer, &encode_message(message)?)
    }

    fn recv(&mut self) -> Result<(Message, usize), WireError> {
        let payload = read_frame(&mut self.reader)?;
        Ok((decode_message(&payload)?, payload.len()))
    }

    /// Submits one `Task` message and waits for its reply: encode and
    /// send → `TaskDone` decoded.
    pub fn submit(&mut self, task: &Message) -> Result<Turnaround, WireError> {
        let start = Instant::now();
        self.send(task)?;
        let mut heartbeats = 0;
        loop {
            let (message, reply_bytes) = self.recv()?;
            let done = match message {
                Message::Heartbeat => {
                    heartbeats += 1;
                    continue;
                }
                Message::TaskDone { result, findings } => Some((result, findings)),
                Message::Error(_) => None,
                _ => return Err(WireError::UnexpectedMessage("task reply")),
            };
            return Ok(Turnaround {
                wall: start.elapsed(),
                heartbeats,
                done,
                reply_bytes,
            });
        }
    }
}

/// A benchmark-owned peer that sends every frame straight back: the
/// round trip through it is framing plus loopback TCP and nothing else.
pub struct Echo {
    addr: String,
    thread: JoinHandle<()>,
}

impl Echo {
    pub fn start() -> std::io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let thread = std::thread::spawn(move || {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            let Ok(clone) = stream.try_clone() else {
                return;
            };
            let (mut reader, mut writer) = (BufReader::new(clone), stream);
            while let Ok(payload) = read_frame(&mut reader) {
                if write_frame(&mut writer, &payload).is_err() {
                    break;
                }
            }
        });
        Ok(Echo { addr, thread })
    }

    /// Median round-trip time (µs) of `rounds` frames of `len` bytes.
    pub fn measure(self, len: usize, rounds: usize) -> Result<f64, WireError> {
        let payload = vec![0xA5u8; len];
        let mut samples = Vec::with_capacity(rounds);
        {
            let mut stream = TcpStream::connect(&self.addr)?;
            let mut reader = BufReader::new(stream.try_clone()?);
            for _ in 0..rounds {
                let start = Instant::now();
                write_frame(&mut stream, &payload)?;
                let back = read_frame(&mut reader)?;
                samples.push(start.elapsed().as_nanos() as f64 / 1e3);
                if back.len() != len {
                    return Err(WireError::UnexpectedMessage("echo length"));
                }
            }
            // Dropping the stream ends the echo thread's read loop.
        }
        self.thread.join().map_err(|_| WireError::Disconnected)?;
        Ok(crate::stats::median(&samples))
    }
}
