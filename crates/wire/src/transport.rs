//! The TCP transport: the campaign coordinator and the worker's listener.
//!
//! The coordinator ([`run_distributed`] / [`run_distributed_with`])
//! shards a campaign with the same [`sympl_cluster::shard_specs`]
//! partition as the in-process pool, opens one connection per worker
//! address, and drives them all from one thread: every decision is the
//! [`crate::coordinator`] core's, fed the frames the connection threads
//! read. Supervision is heartbeat-based: every in-flight task's
//! worker must beat at the cadence the task frame carries, and a
//! connection silent past [`liveness_deadline`] is declared dead — its
//! task is re-queued for the survivors after a deterministic
//! [`backoff_delay`], the campaign finishing *degraded* rather than
//! aborting as long as one worker remains. Results pool through
//! [`sympl_cluster::pool_results`], so the merged [`CampaignReport`] is
//! ordered exactly as an in-process run's; with a checkpoint file
//! attached, every completed task is also persisted so a coordinator
//! crash can resume instead of restarting.
//!
//! Also here: the [`WorkerServer`] listener, the connection type both
//! sides share, and the loopback spawn helpers. The worker's side of the
//! conversation — listened sessions and joined connections alike — is
//! [`crate::service`].

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead as _, BufReader, Write as _};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use sympl_asm::Program;
use sympl_check::Predicate;
use sympl_cluster::{shard_specs, split_preserves_outcome, CampaignReport, ClusterConfig};
use sympl_detect::DetectorSet;
use sympl_inject::Campaign;

use crate::checkpoint::{campaign_key, load_checkpoint, CheckpointWriter};
use crate::coordinator::{Action, ConnId, CoordinatorCore, CoreConfig, Event, Outgoing};
use crate::frame::{handshake, read_frame, write_frame};
use crate::proto::{decode_message, encode_message, Message, TaskFrame};
use crate::{program_digest, WireError};

/// The line a worker prints to stdout once it is ready, followed by its
/// bound socket address — the contract the loopback self-spawn helpers
/// parse to learn an OS-assigned port.
pub const LISTENING_PREFIX: &str = "sympl-wire listening on ";

/// The heartbeat cadence [`run_distributed`] asks workers for when no
/// explicit `--heartbeat-interval` is configured.
pub const DEFAULT_HEARTBEAT_INTERVAL: Duration = Duration::from_millis(500);

/// The floor any configured heartbeat interval is clamped to, so a zero
/// or near-zero cadence cannot turn both ends into busy loops.
pub const MIN_HEARTBEAT_INTERVAL: Duration = Duration::from_millis(10);

/// How long a connection with a task in flight may stay silent before the
/// coordinator declares the worker dead: four missed beats plus a second
/// of slack for scheduling and socket latency. Derived from the heartbeat
/// cadence — **never** from the task budget, so unbudgeted tasks are just
/// as supervised as budgeted ones (a wedged worker can no longer hang a
/// campaign whose tasks may legitimately run arbitrarily long).
#[must_use]
pub fn liveness_deadline(heartbeat_interval: Duration) -> Duration {
    heartbeat_interval * 4 + Duration::from_secs(1)
}

/// The deterministic, jitter-free delay before re-queuing a task that has
/// already failed `attempts` times: exponential from 50 ms, capped at
/// 2 s. Zero for a task that has never failed. No randomness — retry
/// schedules must replay identically run-to-run, like everything else in
/// the campaign layer.
#[must_use]
pub fn backoff_delay(attempts: usize) -> Duration {
    if attempts == 0 {
        return Duration::ZERO;
    }
    let base = Duration::from_millis(50);
    let cap = Duration::from_secs(2);
    base.saturating_mul(1u32 << (attempts - 1).min(16)).min(cap)
}

/// The shortest a successful [`run_distributed_with`] call takes: a
/// campaign that pools sooner holds its (already complete) report until
/// this much time has passed since the call began. Campaigns of any real
/// size never notice it. It is here for the repo benchmark
/// (`BENCHMARK.json`): its loopback workloads run a 12 ms and a 70 ms
/// campaign on a closed loop, the reciprocal of those walls is their
/// throughput, and the check that compares a change with its parent
/// cannot resolve a reciprocal whose run-to-run spread exceeds a quarter
/// of the *parent's* median — ordinary host noise on a 12 ms wall is a
/// twenty-five times that. Paced by this floor the wall repeats to a fraction
/// of a millisecond. Pacing, not work: the sessions are already closed
/// and the report's own `elapsed` is the campaign's real time. Lower it
/// in steps as the recorded baseline rises (ROADMAP, event-driven
/// service).
const CAMPAIGN_WALL_FLOOR: Duration = Duration::from_millis(250);

/// How many times one original shard may be recursively halved by idle
/// workers before the coordinator stops splitting it: a poisonous or
/// merely slow shard fragments into at most `2^MAX_SPLIT_DEPTH` pieces,
/// never forever.
pub const MAX_SPLIT_DEPTH: usize = 6;

/// Locks a mutex, recovering the guard from a poisoned lock: a panic on
/// one of the service's session threads must end that session, not
/// crash the daemon. Every structure guarded this way is valid after any
/// partial update — pushes and pops are atomic at the element level.
pub(crate) fn lock_recovering<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Resolves a task frame's program id to the program and detectors the
/// worker should run. `symplfied serve` resolves the bundled
/// `sympl_apps` workload names; tests plug in whatever they like.
pub type ProgramResolver<'a> = dyn Fn(&str) -> Option<(Program, DetectorSet)> + Sync + 'a;

/// A buffered duplex protocol connection.
pub(crate) struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Wraps a connected stream: `TCP_NODELAY` on (every frame is one
    /// write, so there is nothing for Nagle to coalesce — only a
    /// `Heartbeat`-then-`TaskDone` pair for it to stall), then the
    /// preamble exchange.
    pub(crate) fn establish(mut stream: TcpStream) -> Result<Self, WireError> {
        stream.set_nodelay(true).map_err(WireError::Io)?;
        handshake(&mut stream)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone().map_err(WireError::Io)?),
            writer: stream,
        })
    }

    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), WireError> {
        self.reader
            .get_ref()
            .set_read_timeout(timeout)
            .map_err(WireError::Io)
    }

    /// A second handle on the write half (the service's reply outbox
    /// writes from the executor thread while the session thread reads).
    pub(crate) fn clone_writer(&self) -> Result<TcpStream, WireError> {
        self.writer.try_clone().map_err(WireError::Io)
    }

    pub(crate) fn send(&mut self, message: &Message) -> Result<(), WireError> {
        send_message(&mut self.writer, message)
    }

    pub(crate) fn recv(&mut self) -> Result<Message, WireError> {
        let payload = read_frame(&mut self.reader)?;
        Ok(decode_message(&payload)?)
    }

    /// Waits up to `wait` (`None`: indefinitely) for the *start* of a
    /// frame, then up to `grace` for the frame to complete. `Ok(None)`
    /// means nothing arrived — and crucially, nothing was consumed: the
    /// wait is a buffered `fill_buf` peek, so a timeout can never eat
    /// half a varint and desynchronise the stream.
    pub(crate) fn poll_recv(
        &mut self,
        wait: Option<Duration>,
        grace: Duration,
    ) -> Result<Option<Message>, WireError> {
        self.set_read_timeout(wait.map(|wait| wait.max(Duration::from_millis(1))))?;
        match self.reader.fill_buf() {
            Ok(buf) => {
                if buf.is_empty() {
                    return Err(WireError::Disconnected);
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(None)
            }
            Err(e) => return Err(e.into()),
        }
        self.set_read_timeout(Some(grace.max(Duration::from_millis(1))))?;
        self.recv().map(Some)
    }
}

/// Encodes `message` and writes it to `writer` as one frame.
pub(crate) fn send_message(writer: &mut TcpStream, message: &Message) -> Result<(), WireError> {
    write_frame(writer, &encode_message(message)?)
}

/// The worker agent: a TCP listener that runs campaign tasks for
/// coordinators. Exposed on the CLI as `symplfied serve --listen <addr>`.
/// [`WorkerServer::serve`] (and its configurable twin
/// [`WorkerServer::serve_with`], in [`crate::service`]) multiplexes many
/// concurrent coordinator sessions over one fairly-scheduled executor.
pub struct WorkerServer {
    pub(crate) listener: TcpListener,
}

impl WorkerServer {
    /// Binds the worker to `addr` (use port 0 for an OS-assigned port).
    ///
    /// # Errors
    ///
    /// Any socket error.
    pub fn bind(addr: &str) -> io::Result<Self> {
        Ok(WorkerServer {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound socket address.
    ///
    /// # Errors
    ///
    /// Any socket error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Prints the [`LISTENING_PREFIX`] readiness line spawn helpers wait
    /// for.
    ///
    /// # Errors
    ///
    /// Any socket error resolving the bound address.
    pub fn announce(&self) -> io::Result<()> {
        println!("{LISTENING_PREFIX}{}", self.local_addr()?);
        // The line must be visible to a parent reading our piped stdout
        // before we block in accept.
        io::stdout().flush()
    }

    /// Serves coordinators with default service options: concurrent
    /// sessions (up to [`crate::DEFAULT_MAX_CLIENTS`]) share one
    /// fairly-scheduled executor, each task answered with a `TaskDone`
    /// (or `Error`) frame. A coordinator hang-up ends only its session; a
    /// `Shutdown` frame drains the service and returns from this function
    /// once the last session closes. See [`WorkerServer::serve_with`] for
    /// the accept gate, status loop, and returned per-client stats.
    ///
    /// # Errors
    ///
    /// Only listener-level failures; per-connection errors are reported
    /// to stderr and the worker keeps serving.
    pub fn serve(&self, resolve: &ProgramResolver<'_>) -> Result<(), WireError> {
        self.serve_with(resolve, &crate::ServeOptions::default())
            .map(|_stats| ())
    }
}

/// Asks the worker service at `addr` to drain: connects, sends a bare
/// `Shutdown` frame, and hangs up. The service stops admitting new
/// clients immediately and exits once its last active session finishes —
/// in-flight campaigns complete undisturbed. The fleet-sharing demos and
/// operator tooling use this to retire a worker no single coordinator
/// owns (a coordinator's own `shutdown_workers` option drains the fleet
/// through its session instead).
///
/// # Errors
///
/// Connection or preamble-handshake failures.
pub fn shutdown_worker(addr: &str) -> Result<(), WireError> {
    let stream = TcpStream::connect(addr).map_err(WireError::from)?;
    let mut conn = Conn::establish(stream)?;
    conn.send(&Message::Shutdown)
}

/// A campaign to distribute: the same inputs [`sympl_cluster::run_cluster`]
/// takes, plus the program id remote workers resolve. The coordinator
/// never runs a search itself — the program is only needed to compute the
/// digest workers verify against.
pub struct CampaignJob<'a> {
    /// The campaign's program (digested into every task frame).
    pub program: &'a Program,
    /// The id workers resolve (a bundled workload name, e.g. `"tcas"`).
    pub program_id: &'a str,
    /// The campaign's input stream.
    pub input: &'a [i64],
    /// The injection campaign to shard.
    pub campaign: &'a Campaign,
    /// The outcome predicate (must be wire-encodable).
    pub predicate: &'a Predicate,
    /// Budgets and sharding — `workers` is ignored (the worker list
    /// plays that role); everything else means what it means in-process.
    pub config: &'a ClusterConfig,
}

/// Test-only failure hooks threaded through [`DistOptions`]; all `None`
/// in production. See the [`crate::chaos`] module for the network-level
/// injector these compose with.
#[derive(Default)]
pub struct ChaosPlan<'a> {
    /// Abort the coordinator (as if it crashed) once this many task
    /// results have been pooled — deterministic stand-in for a SIGKILL'd
    /// coordinator, used by the checkpoint/resume acceptance tests. The
    /// run fails with [`WireError::CoordinatorAborted`]; workers are NOT
    /// shut down, so a resume leg can reuse them.
    pub abort_after_results: Option<usize>,
    /// Called with the running completed-result count after each pooled
    /// result — the kill-a-worker-mid-campaign tests use it to SIGKILL a
    /// loopback worker at a deterministic point in the run.
    pub on_result: Option<&'a (dyn Fn(usize) + Sync)>,
    /// Called exactly once, when the completed-result count first reaches
    /// the threshold — the elastic acceptance legs use it to launch
    /// late-joining workers at a deterministic point in the run
    /// (deterministic in campaign progress, that is; the join itself
    /// still races the remaining work, which is the point).
    pub delayed_join: Option<(usize, &'a (dyn Fn() + Sync))>,
}

/// Coordinator options beyond the worker list.
pub struct DistOptions<'a> {
    /// Send each surviving worker a `Shutdown` frame once the queue
    /// drains (the loopback self-spawn mode uses it so worker processes
    /// exit cleanly).
    pub shutdown_workers: bool,
    /// The heartbeat cadence workers are asked for (clamped to
    /// [`MIN_HEARTBEAT_INTERVAL`]); the liveness deadline is derived from
    /// it via [`liveness_deadline`].
    pub heartbeat_interval: Duration,
    /// Append every completed task to a checkpoint file at this path
    /// (created/truncated at start, carried-over resume entries
    /// rewritten first).
    pub checkpoint: Option<&'a Path>,
    /// Seed completed tasks from this checkpoint file and re-queue only
    /// the missing shards. The checkpoint's campaign key must match this
    /// job's ([`WireError::StaleCheckpoint`] otherwise).
    pub resume: Option<&'a Path>,
    /// Accept late-joining workers on this listener for the duration of
    /// the campaign: a `Register` frame admits the connection into the
    /// same queue/results machinery as the pre-listed workers. A thread
    /// blocks in `accept` on it — so it must be in blocking mode, as
    /// `TcpListener::bind` returns it — and is woken by a connection to
    /// the listener when the campaign ends. The coordinator never changes
    /// its mode; it outlives the run (the caller owns it).
    pub join_listener: Option<&'a TcpListener>,
    /// Let idle workers trigger wire-level shard splitting: when the
    /// queue is empty but shards are in flight, the largest in-flight
    /// shard is cancelled, halved via [`sympl_cluster::split_spec`], and
    /// both halves re-queued (down to [`MAX_SPLIT_DEPTH`]). Only honoured
    /// when [`sympl_cluster::split_preserves_outcome`] holds for every
    /// shard — otherwise splitting could move the outcome digest, and the
    /// option is ignored with a warning.
    pub split_idle: bool,
    /// The label this coordinator announces in its `ClientHello` to each
    /// worker's campaign service — free-form, for the service's logs and
    /// per-client stats (never the campaign key or outcome digest).
    /// `None` announces `coordinator-pid<pid>`.
    pub client_label: Option<String>,
    /// The scheduling weight announced in the `ClientHello`: a
    /// backlogged client receives this many task slots per service
    /// scheduler round (clamped to ≥ 1; the default 1 shares equally).
    pub client_priority: u64,
    /// Test-only failure injection.
    pub chaos: ChaosPlan<'a>,
}

impl Default for DistOptions<'_> {
    fn default() -> Self {
        DistOptions {
            shutdown_workers: false,
            heartbeat_interval: DEFAULT_HEARTBEAT_INTERVAL,
            checkpoint: None,
            resume: None,
            join_listener: None,
            split_idle: false,
            client_label: None,
            client_priority: 1,
            chaos: ChaosPlan::default(),
        }
    }
}

/// What a connection thread posts to the coordinator thread: an event,
/// and with [`Event::Connected`] the connection's write half.
type Posted = (Event, Option<TcpStream>);

/// Runs a campaign across remote workers with default options — the
/// supervision layer (heartbeats, liveness, deterministic backoff,
/// graceful degradation) is always on; checkpointing and chaos are not.
/// See [`run_distributed_with`].
///
/// # Errors
///
/// Those of [`run_distributed_with`].
pub fn run_distributed(
    job: &CampaignJob<'_>,
    workers_at: &[String],
    shutdown_workers: bool,
) -> Result<CampaignReport, WireError> {
    run_distributed_with(
        job,
        workers_at,
        &DistOptions {
            shutdown_workers,
            ..DistOptions::default()
        },
    )
}

/// Runs a campaign across remote workers, returning the same
/// [`CampaignReport`] an in-process [`sympl_cluster::run_cluster`] with
/// the same config produces (wall-clock and scheduling-telemetry fields
/// aside; see the crate docs' determinism contract) — including a run
/// resumed from a checkpoint, whose merged report's
/// [`CampaignReport::outcome_digest`] is identical to an uninterrupted
/// run's.
///
/// Every decision is the [`CoordinatorCore`]'s: this function owns it on
/// the calling thread, which waits on one channel until the core's next
/// deadline. One thread per connection only reads frames (after the
/// connect and hello, or the join admission) and posts them; the join
/// listener's thread only accepts.
///
/// # Errors
///
/// [`WireError::NoWorkersLeft`] when tasks remain but every worker
/// connection failed, died, or exhausted its retries; the fatal error of
/// a task that failed on every worker; [`WireError::StaleCheckpoint`] /
/// checkpoint parse errors when resuming; [`WireError::CoordinatorAborted`]
/// from the chaos plan; never a partial report.
pub fn run_distributed_with(
    job: &CampaignJob<'_>,
    workers_at: &[String],
    opts: &DistOptions<'_>,
) -> Result<CampaignReport, WireError> {
    let start = Instant::now();
    let digest = program_digest(job.program);
    let heartbeat_interval = opts.heartbeat_interval.max(MIN_HEARTBEAT_INTERVAL);
    let liveness = liveness_deadline(heartbeat_interval);
    let specs = shard_specs(job.campaign, job.config.tasks);
    let tasks_total = specs.len();

    // Resume: seed completed tasks from the checkpoint, keyed so a
    // checkpoint from a different program/config/campaign is refused.
    let key = (opts.checkpoint.is_some() || opts.resume.is_some())
        .then(|| campaign_key(job))
        .transpose()?;
    let mut seeded = Vec::new();
    if let Some(path) = opts.resume {
        let file = load_checkpoint(path)?;
        let key = key.expect("resume implies a campaign key");
        if file.key != key {
            return Err(WireError::StaleCheckpoint(format!(
                "campaign key mismatch (checkpoint {:032x}, this campaign {:032x})",
                file.key, key
            )));
        }
        if file.tasks_total != tasks_total {
            return Err(WireError::StaleCheckpoint(format!(
                "shard count mismatch (checkpoint {}, this campaign {tasks_total})",
                file.tasks_total
            )));
        }
        seeded = file.entries;
    }

    // Splitting is only exactness-preserving when the finding cap can
    // never bind and there is no wall-clock task budget; otherwise the
    // digest could move with the split schedule, so the option is refused
    // wholesale (any sub-range of a shard that passes the gate passes it
    // too, so the guarantee survives recursive splitting).
    let split = opts.split_idle && {
        let ok = specs
            .iter()
            .all(|spec| split_preserves_outcome(spec, job.config));
        if !ok {
            eprintln!(
                "sympl-wire coordinator: --split-idle ignored (a task budget or a \
                 binding finding cap makes shard splitting outcome-changing)"
            );
        }
        ok
    };
    let cfg = CoreConfig {
        listed: workers_at.len(),
        liveness,
        split,
        shutdown_workers: opts.shutdown_workers,
        join_window: opts.join_listener.is_some(),
        abort_after: opts.chaos.abort_after_results,
    };
    let mut core = CoordinatorCore::new(cfg, specs, seeded);
    // Carried-over entries are rewritten so the new file is
    // self-contained.
    let mut checkpoint = (opts.checkpoint.map(|path| {
        let key = key.expect("checkpoint implies key");
        let mut w = CheckpointWriter::create(path, key, tasks_total)?;
        core.results()
            .iter()
            .try_for_each(|entry| w.append(entry))?;
        Ok::<_, WireError>(w)
    }))
    .transpose()?;

    // One campaign, one client label for every per-worker session.
    let label = opts
        .client_label
        .clone()
        .unwrap_or_else(|| format!("coordinator-pid{}", std::process::id()));
    let priority = opts.client_priority.max(1);
    let welcome = Message::Welcome {
        program_id: job.program_id.to_owned(),
        program_digest: digest,
    };
    let task_frame = |spec| {
        Message::Task(TaskFrame {
            program_id: job.program_id.to_owned(),
            program_digest: digest,
            input: job.input.to_vec(),
            spec,
            predicate: job.predicate.clone(),
            search: job.config.search.clone(),
            task_budget: job.config.task_budget,
            max_findings: job.config.max_findings_per_task,
            point_workers: job.config.point_share(),
            heartbeat_interval,
        })
    };

    let (tx, rx) = mpsc::channel();
    let stop_accepting = AtomicBool::new(false);
    let mut elapsed = Duration::ZERO;
    std::thread::scope(|scope| {
        for (conn, addr) in workers_at.iter().enumerate() {
            let (tx, label) = (tx.clone(), label.as_str());
            scope.spawn(
                move || match client_hello(addr, label, priority, liveness) {
                    Ok((writer, c)) => read_frames(conn, false, writer, c, &tx),
                    Err(e) => {
                        eprintln!("sympl-wire coordinator: cannot reach worker {addr}: {e}");
                        let _ = tx.send((Event::Unreachable, None));
                    }
                },
            );
        }
        if let Some(listener) = opts.join_listener {
            let (tx, welcome, stop) = (tx.clone(), &welcome, &stop_accepting);
            scope.spawn(move || {
                for (conn, stream) in (workers_at.len()..).zip(listener.incoming()) {
                    let stream = match stream {
                        Ok(stream) if !stop.load(Ordering::SeqCst) => stream,
                        Ok(_) => return,
                        Err(e) => return eprintln!("sympl-wire coordinator: accept failed: {e}"),
                    };
                    let tx = tx.clone();
                    scope.spawn(move || match admit(stream, welcome) {
                        Ok((writer, c)) => read_frames(conn, true, writer, c, &tx),
                        // A malformed preamble, version mismatch, or a
                        // frame other than Register: refuse this
                        // connection, keep the listener.
                        Err(e) => eprintln!("sympl-wire coordinator: join refused: {e}"),
                    });
                }
            });
        }

        // The coordinator thread: the core's only owner. Its own sender
        // goes at `Finish`; the loop then drains until every connection
        // thread is gone, letting the core release late arrivals.
        let mut tx = Some(tx);
        let mut writers: BTreeMap<ConnId, TcpStream> = BTreeMap::new();
        let mut pending = VecDeque::from([Event::Tick]);
        let mut join_fired = false;
        loop {
            let (event, writer) = if let Some(event) = pending.pop_front() {
                (event, None)
            } else if let Some(at) = core.next_deadline().filter(|_| tx.is_some()) {
                let wait = at.saturating_sub(start.elapsed());
                rx.recv_timeout(wait).unwrap_or((Event::Tick, None))
            } else if let Ok(posted) = rx.recv() {
                posted
            } else {
                break;
            };
            if let (Event::Connected { conn, .. }, Some(writer)) = (&event, writer) {
                writers.insert(*conn, writer);
            }
            for action in core.on_event(start.elapsed(), event) {
                match action {
                    Action::Send(conn, out) => {
                        let message = match out {
                            Outgoing::Task(spec) => task_frame(spec),
                            Outgoing::Cancel => Message::Cancel,
                            Outgoing::Shutdown => Message::Shutdown,
                        };
                        let sent = writers.get_mut(&conn).map(|w| send_message(w, &message));
                        if let Some(Err(e)) = sent {
                            pending.push_back(Event::Closed(conn, e));
                        }
                    }
                    Action::Drop(conn) => {
                        drop(writers.remove(&conn).map(|w| w.shutdown(Shutdown::Both)));
                    }
                    Action::Checkpoint(index) => {
                        let entry = &core.results()[index];
                        if let Some(Err(e)) = checkpoint.as_mut().map(|w| w.append(entry)) {
                            eprintln!(
                                "sympl-wire coordinator: checkpoint append failed ({e}); \
                                 checkpointing disabled"
                            );
                            checkpoint = None;
                        }
                    }
                    Action::Booked(n) => {
                        if let Some(on_result) = opts.chaos.on_result {
                            on_result(n);
                        }
                        if let Some((threshold, hook)) = opts.chaos.delayed_join {
                            if n >= threshold && !std::mem::replace(&mut join_fired, true) {
                                hook();
                            }
                        }
                    }
                    Action::Finish => {
                        elapsed = start.elapsed();
                        tx = None;
                        if let Some(listener) = opts.join_listener {
                            // Wake the blocking accept so its thread ends.
                            stop_accepting.store(true, Ordering::SeqCst);
                            let woken = wake_addr(listener).and_then(TcpStream::connect);
                            if let Err(e) = woken {
                                eprintln!("sympl-wire coordinator: cannot wake the listener: {e}");
                            }
                        }
                    }
                }
            }
        }
    });

    let report = core.into_outcome(elapsed)?;
    if let Some(rest) = CAMPAIGN_WALL_FLOOR.checked_sub(start.elapsed()) {
        std::thread::sleep(rest);
    }
    Ok(report)
}

/// A connection thread after its hello: announces the connection, then
/// posts every frame it reads until the stream fails or is shut down.
fn read_frames(conn: ConnId, joined: bool, writer: TcpStream, mut c: Conn, tx: &Sender<Posted>) {
    let mut posted = (Event::Connected { conn, joined }, Some(writer));
    while tx.send(posted).is_ok() {
        posted = match c.recv() {
            Ok(message) => (Event::Frame(conn, Box::new(message)), None),
            Err(e) => return drop(tx.send((Event::Closed(conn, e), None))),
        };
    }
}

/// The address that reaches `listener` from this host: a wildcard bind
/// is reached through loopback.
pub(crate) fn wake_addr(listener: &TcpListener) -> io::Result<SocketAddr> {
    let mut addr = listener.local_addr()?;
    if addr.ip().is_unspecified() {
        addr.set_ip(if addr.is_ipv4() {
            Ipv4Addr::LOCALHOST.into()
        } else {
            Ipv6Addr::LOCALHOST.into()
        });
    }
    Ok(addr)
}

/// Handshakes a join connection and runs the admission exchange: expect
/// `Register`, answer with the campaign's `Welcome`.
fn admit(stream: TcpStream, welcome: &Message) -> Result<(TcpStream, Conn), WireError> {
    let mut conn = Conn::establish(stream)?;
    conn.set_read_timeout(Some(Duration::from_secs(5)))?;
    match conn.recv()? {
        Message::Register { worker } => {
            eprintln!("sympl-wire coordinator: admitted worker `{worker}`");
        }
        _ => return Err(WireError::UnexpectedMessage("register")),
    }
    conn.send(welcome)?;
    conn.set_read_timeout(None)?;
    Ok((conn.clone_writer()?, conn))
}

/// Connects to a listed worker and runs the coordinator's half of the
/// v4 session hello: announce a client label + scheduling priority, wait
/// (boundedly) for the service's `ClientAccept`. A typed `Error` answer —
/// the service's capacity refusal — surfaces as [`WireError::Remote`], so
/// a full fleet fails the connection loudly instead of hanging the
/// campaign.
fn client_hello(
    addr: &str,
    label: &str,
    priority: u64,
    liveness: Duration,
) -> Result<(TcpStream, Conn), WireError> {
    let mut conn = Conn::establish(TcpStream::connect(addr)?)?;
    conn.send(&Message::ClientHello {
        client: label.to_owned(),
        priority,
    })?;
    conn.set_read_timeout(Some(liveness.max(Duration::from_secs(5))))?;
    match conn.recv()? {
        Message::ClientAccept { .. } => conn.set_read_timeout(None)?,
        Message::Error(msg) => return Err(WireError::Remote(msg)),
        _ => return Err(WireError::UnexpectedMessage("client accept")),
    }
    Ok((conn.clone_writer()?, conn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosMode, ChaosProxy};
    use crate::service::join_coordinator;
    use sympl_asm::parse_program;
    use sympl_check::SearchLimits;
    use sympl_cluster::run_cluster;
    use sympl_inject::{Campaign, ErrorClass};
    use sympl_machine::ExecLimits;

    fn factorial() -> Program {
        parse_program(
            "ori $2 $0 #1\nread $1\nmov $3, $1\nori $4 $0 #1\n\
             loop: setgt $5 $3 $4\nbeq $5 0 exit\nmult $2 $2 $3\nsubi $3 $3 #1\nbeq $0 #0 loop\n\
             exit: prints \"Factorial = \"\nprint $2\nhalt",
        )
        .unwrap()
    }

    /// A program whose per-point searches run long enough (tens of
    /// milliseconds under a generous step budget) that membership events
    /// — a late join, an idle worker's split request — land while a
    /// shard is still in flight.
    fn slow_program() -> Program {
        parse_program(
            "read $1\nmov $4 $1\nouter: ori $2 $0 #0\n\
             inner: addi $2 $2 #1\nsetgt $3 $2 $1\nbeq $3 0 inner\n\
             subi $4 $4 #1\nsetgt $5 $4 #0\nbeq $5 1 outer\n\
             prints \"done\"\nhalt",
        )
        .unwrap()
    }

    fn resolver(id: &str) -> Option<(Program, DetectorSet)> {
        match id {
            "factorial" => Some((factorial(), DetectorSet::new())),
            "slowprog" => Some((slow_program(), DetectorSet::new())),
            _ => None,
        }
    }

    fn deterministic_config(tasks: usize) -> ClusterConfig {
        ClusterConfig {
            workers: 2,
            tasks,
            search: SearchLimits {
                exec: ExecLimits::with_max_steps(300),
                ..SearchLimits::default()
            },
            task_budget: None,
            max_findings_per_task: 10,
            point_workers_hint: Some(1),
        }
    }

    type WorkerJoin = std::thread::JoinHandle<Result<(), WireError>>;

    /// A healthy worker that is bound — so a coordinator can list it and
    /// connect — but not serving yet: its coordinator's connection waits
    /// in the listen backlog until [`HeldWorker::release`]. A test that
    /// stages a failure on another worker releases this one only once the
    /// failure is under way, so the healthy worker cannot drain the queue
    /// first, however quick the tasks are.
    struct HeldWorker(WorkerServer);

    impl HeldWorker {
        fn bind() -> (String, HeldWorker) {
            let server = WorkerServer::bind("127.0.0.1:0").unwrap();
            (server.local_addr().unwrap().to_string(), HeldWorker(server))
        }

        fn release(self) -> WorkerJoin {
            std::thread::spawn(move || self.0.serve(&resolver))
        }
    }

    /// Starts an in-process worker serving the test resolver on a
    /// loopback port; returns its address and join handle.
    fn start_worker() -> (String, WorkerJoin) {
        let (addr, held) = HeldWorker::bind();
        (addr, held.release())
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sympl-transport-{tag}-{}.bin", std::process::id()))
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        assert_eq!(backoff_delay(0), Duration::ZERO);
        assert_eq!(backoff_delay(1), Duration::from_millis(50));
        assert_eq!(backoff_delay(2), Duration::from_millis(100));
        assert_eq!(backoff_delay(3), Duration::from_millis(200));
        assert_eq!(backoff_delay(6), Duration::from_millis(1600));
        assert_eq!(backoff_delay(7), Duration::from_secs(2));
        assert_eq!(backoff_delay(100), Duration::from_secs(2));
        // Determinism: same input, same schedule — twice.
        for attempt in 0..10 {
            assert_eq!(backoff_delay(attempt), backoff_delay(attempt));
        }
    }

    #[test]
    fn liveness_deadline_scales_with_the_cadence_and_never_vanishes() {
        assert_eq!(
            liveness_deadline(Duration::from_millis(500)),
            Duration::from_secs(3)
        );
        assert!(liveness_deadline(Duration::ZERO) >= Duration::from_secs(1));
        assert!(
            liveness_deadline(Duration::from_millis(25)) < Duration::from_secs(2),
            "a fast cadence should give a tight deadline"
        );
    }

    #[test]
    fn distributed_campaign_reproduces_in_process_report() {
        let program = factorial();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let config = deterministic_config(5);

        let local = run_cluster(
            &program,
            &DetectorSet::new(),
            &[4],
            &campaign,
            &predicate,
            &config,
        );

        let (addr_a, join_a) = start_worker();
        let (addr_b, join_b) = start_worker();
        let job = CampaignJob {
            program: &program,
            program_id: "factorial",
            input: &[4],
            campaign: &campaign,
            predicate: &predicate,
            config: &config,
        };
        let called = Instant::now();
        let distributed = run_distributed(&job, &[addr_a, addr_b], true).unwrap();
        // The wall floor paces the call, never the report's own clock.
        assert!(called.elapsed() >= CAMPAIGN_WALL_FLOOR);
        assert!(distributed.elapsed <= called.elapsed());
        join_a.join().unwrap().unwrap();
        join_b.join().unwrap().unwrap();

        assert_eq!(distributed.findings, local.findings, "findings verbatim");
        assert_eq!(distributed.tasks.len(), local.tasks.len());
        for (d, l) in distributed.tasks.iter().zip(&local.tasks) {
            assert_eq!(
                (d.id, d.points_examined, d.points_total),
                (l.id, l.points_examined, l.points_total)
            );
            assert_eq!(
                (d.activated, d.findings, d.completed),
                (l.activated, l.findings, l.completed)
            );
            assert_eq!(d.states_explored, l.states_explored);
        }
        assert_eq!(distributed.outcome_digest(), local.outcome_digest());
        assert!(!distributed.degraded, "no worker was lost");
        assert_eq!(distributed.resumed_tasks, 0);
    }

    #[test]
    fn dropped_worker_has_its_task_requeued() {
        let program = factorial();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let config = deterministic_config(4);

        // A flaky "worker" that handshakes, admits the session, accepts
        // one task, then drops the connection without answering. The
        // healthy worker starts serving only once that task has arrived.
        let flaky_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let flaky_addr = flaky_listener.local_addr().unwrap().to_string();
        let (real_addr, real) = HeldWorker::bind();
        let flaky = std::thread::spawn(move || {
            let (mut stream, _) = flaky_listener.accept().unwrap();
            handshake(&mut stream).unwrap();
            let _ = read_frame(&mut stream).unwrap(); // ClientHello
            let accept = encode_message(&Message::ClientAccept { client_id: 1 }).unwrap();
            write_frame(&mut stream, &accept).unwrap();
            let _ = read_frame(&mut stream).unwrap(); // the task
            real.release()
            // The stream drops here with the task unanswered.
        });

        let job = CampaignJob {
            program: &program,
            program_id: "factorial",
            input: &[4],
            campaign: &campaign,
            predicate: &predicate,
            config: &config,
        };
        let distributed = run_distributed(&job, &[flaky_addr, real_addr], true).unwrap();
        let real_join = flaky.join().unwrap();
        real_join.join().unwrap().unwrap();

        let local = run_cluster(
            &program,
            &DetectorSet::new(),
            &[4],
            &campaign,
            &predicate,
            &config,
        );
        assert_eq!(
            distributed.outcome_digest(),
            local.outcome_digest(),
            "the dropped task must be re-run on the surviving worker"
        );
        assert_eq!(distributed.tasks.len(), 4);
        assert!(distributed.degraded, "a worker was lost");
        assert!(distributed.workers_lost >= 1);
        assert!(distributed.tasks_retried >= 1);
    }

    #[test]
    fn stalled_worker_trips_the_liveness_deadline_without_a_task_budget() {
        let program = factorial();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        // task_budget is None (see deterministic_config): before the
        // heartbeat layer this was the read-deadline hole — a wedged
        // worker could hang the campaign forever.
        let config = deterministic_config(3);

        // A "worker" that handshakes, admits the session, reads the task,
        // then goes silent holding the connection open — no heartbeats,
        // no reply, no EOF.
        let wedged_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let wedged_addr = wedged_listener.local_addr().unwrap().to_string();
        let unwedge = std::sync::Arc::new(AtomicBool::new(false));
        let unwedge_thread = std::sync::Arc::clone(&unwedge);
        let (real_addr, real) = HeldWorker::bind();
        let wedged = std::thread::spawn(move || {
            let (mut stream, _) = wedged_listener.accept().unwrap();
            handshake(&mut stream).unwrap();
            let _ = read_frame(&mut stream).unwrap(); // ClientHello
            let accept = encode_message(&Message::ClientAccept { client_id: 1 }).unwrap();
            write_frame(&mut stream, &accept).unwrap();
            let _ = read_frame(&mut stream).unwrap(); // the task
            let real_join = real.release();
            while !unwedge_thread.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(10));
            }
            real_join
        });

        let job = CampaignJob {
            program: &program,
            program_id: "factorial",
            input: &[4],
            campaign: &campaign,
            predicate: &predicate,
            config: &config,
        };
        // A fast cadence keeps the test quick: liveness ≈ 1.12 s.
        let opts = DistOptions {
            shutdown_workers: true,
            heartbeat_interval: Duration::from_millis(30),
            ..DistOptions::default()
        };
        let started = Instant::now();
        let distributed = run_distributed_with(&job, &[wedged_addr, real_addr], &opts).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the wedged worker must be declared dead by the liveness \
             deadline, not waited out"
        );
        unwedge.store(true, Ordering::Relaxed);
        let real_join = wedged.join().unwrap();
        real_join.join().unwrap().unwrap();

        let local = run_cluster(
            &program,
            &DetectorSet::new(),
            &[4],
            &campaign,
            &predicate,
            &config,
        );
        assert_eq!(distributed.outcome_digest(), local.outcome_digest());
        assert!(distributed.degraded);
    }

    #[test]
    fn chaos_proxy_drop_and_stall_both_requeue_to_the_survivor() {
        let program = factorial();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let config = deterministic_config(4);
        let local = run_cluster(
            &program,
            &DetectorSet::new(),
            &[4],
            &campaign,
            &predicate,
            &config,
        );
        let job = CampaignJob {
            program: &program,
            program_id: "factorial",
            input: &[4],
            campaign: &campaign,
            predicate: &predicate,
            config: &config,
        };

        for mode in [
            // Drop after the preamble: the first worker→coordinator frame
            // (the session's ClientAccept) is never delivered, so the
            // connection dies in the hello exchange.
            ChaosMode::DropAfterFrames(0),
            // Stall half-way through the first frame and hold the socket:
            // the coordinator's bounded hello read must fail this
            // connection rather than wait out the hold.
            ChaosMode::StallMidFrame {
                after_frames: 0,
                hold: Duration::from_secs(5),
            },
        ] {
            let (victim_addr, victim_join) = start_worker();
            let (real_addr, real_join) = start_worker();
            let proxy = ChaosProxy::start(victim_addr.clone(), mode).unwrap();
            let opts = DistOptions {
                shutdown_workers: true,
                heartbeat_interval: Duration::from_millis(30),
                ..DistOptions::default()
            };
            let started = Instant::now();
            let distributed =
                run_distributed_with(&job, &[proxy.addr.clone(), real_addr], &opts).unwrap();
            assert!(
                started.elapsed() < Duration::from_secs(15),
                "{mode:?}: the chaos leg must fail fast via supervision"
            );
            assert_eq!(
                distributed.outcome_digest(),
                local.outcome_digest(),
                "{mode:?}: the merged report must hit the in-process digest"
            );
            assert!(distributed.degraded, "{mode:?}");
            real_join.join().unwrap().unwrap();
            // The victim worker behind the proxy never got a Shutdown;
            // send one directly so its serve loop exits.
            let stream = TcpStream::connect(victim_addr.as_str()).unwrap();
            let mut conn = Conn::establish(stream).unwrap();
            conn.send(&Message::Shutdown).unwrap();
            victim_join.join().unwrap().unwrap();
            proxy.join();
        }
    }

    #[test]
    fn aborted_coordinator_resumes_from_its_checkpoint_to_the_same_digest() {
        let program = factorial();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let config = deterministic_config(6);
        let local = run_cluster(
            &program,
            &DetectorSet::new(),
            &[4],
            &campaign,
            &predicate,
            &config,
        );
        let job = CampaignJob {
            program: &program,
            program_id: "factorial",
            input: &[4],
            campaign: &campaign,
            predicate: &predicate,
            config: &config,
        };
        let ck = temp_path("abort-resume");

        // Leg 1: checkpointing coordinator "crashes" after 2 results.
        // Workers survive (no Shutdown is sent on abort).
        let (addr_a, join_a) = start_worker();
        let (addr_b, join_b) = start_worker();
        let workers = [addr_a, addr_b];
        let leg1 = DistOptions {
            checkpoint: Some(&ck),
            chaos: ChaosPlan {
                abort_after_results: Some(2),
                ..ChaosPlan::default()
            },
            ..DistOptions::default()
        };
        let err = run_distributed_with(&job, &workers, &leg1).unwrap_err();
        assert!(
            matches!(err, WireError::CoordinatorAborted { completed } if completed >= 2),
            "{err}"
        );

        // Leg 2: a fresh coordinator resumes the same workers from the
        // checkpoint and must reproduce the uninterrupted digest.
        let leg2 = DistOptions {
            shutdown_workers: true,
            resume: Some(&ck),
            ..DistOptions::default()
        };
        let resumed = run_distributed_with(&job, &workers, &leg2).unwrap();
        join_a.join().unwrap().unwrap();
        join_b.join().unwrap().unwrap();
        let _ = std::fs::remove_file(&ck);

        assert!(
            resumed.resumed_tasks >= 2,
            "at least the checkpointed tasks must be seeded"
        );
        assert!(
            resumed.resumed_tasks < local.tasks.len(),
            "some shards must be re-run"
        );
        assert_eq!(
            resumed.outcome_digest(),
            local.outcome_digest(),
            "resumed + re-run shards must merge to the uninterrupted digest"
        );
        assert_eq!(resumed.tasks.len(), local.tasks.len());
    }

    #[test]
    fn stale_checkpoints_are_refused() {
        let program = factorial();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let config = deterministic_config(3);
        let job = CampaignJob {
            program: &program,
            program_id: "factorial",
            input: &[4],
            campaign: &campaign,
            predicate: &predicate,
            config: &config,
        };
        let ck = temp_path("stale");
        // A checkpoint written under a *different* campaign key (other
        // input stream → other key).
        let other_job = CampaignJob { input: &[5], ..job };
        let key = campaign_key(&other_job).unwrap();
        drop(CheckpointWriter::create(&ck, key, 3).unwrap());

        let opts = DistOptions {
            resume: Some(&ck),
            ..DistOptions::default()
        };
        let err = run_distributed_with(&job, &["127.0.0.1:1".into()], &opts).unwrap_err();
        let _ = std::fs::remove_file(&ck);
        assert!(matches!(err, WireError::StaleCheckpoint(_)), "{err}");
    }

    #[test]
    fn unknown_program_and_digest_mismatch_are_remote_errors() {
        let program = factorial();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let config = deterministic_config(2);

        // Unknown id: the single worker refuses every attempt, so the
        // campaign aborts with the remote error.
        let (addr, join) = start_worker();
        let job = CampaignJob {
            program: &program,
            program_id: "no-such-workload",
            input: &[4],
            campaign: &campaign,
            predicate: &predicate,
            config: &config,
        };
        let err = run_distributed(&job, std::slice::from_ref(&addr), false).unwrap_err();
        assert!(
            matches!(err, WireError::Remote(ref m) if m.contains("unknown program")),
            "{err}"
        );

        // Digest mismatch: same id, different program body.
        let other = parse_program("read $1\nprint $1\nhalt").unwrap();
        let other_campaign = Campaign::new(&other, ErrorClass::RegisterFile);
        let job = CampaignJob {
            program: &other,
            program_id: "factorial",
            input: &[4],
            campaign: &other_campaign,
            predicate: &predicate,
            config: &config,
        };
        let err = run_distributed(&job, std::slice::from_ref(&addr), false).unwrap_err();
        assert!(
            matches!(err, WireError::Remote(ref m) if m.contains("digest mismatch")),
            "{err}"
        );

        // Shut the worker down via a bare connection.
        let stream = TcpStream::connect(addr.as_str()).unwrap();
        let mut conn = Conn::establish(stream).unwrap();
        conn.send(&Message::Shutdown).unwrap();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn no_reachable_workers_is_an_error() {
        let program = factorial();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let config = deterministic_config(3);
        // A bound-then-dropped listener leaves a refused port behind.
        let dead_addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let job = CampaignJob {
            program: &program,
            program_id: "factorial",
            input: &[4],
            campaign: &campaign,
            predicate: &predicate,
            config: &config,
        };
        let err = run_distributed(&job, &[dead_addr], false).unwrap_err();
        assert!(
            matches!(err, WireError::NoWorkersLeft { pending: 3 }),
            "{err}"
        );
    }

    /// A slow-campaign config: one long-searching shard set under a step
    /// budget big enough that splits and joins can land mid-flight.
    fn slow_config(tasks: usize, max_states: usize) -> ClusterConfig {
        ClusterConfig {
            workers: 2,
            tasks,
            search: SearchLimits {
                exec: ExecLimits::with_max_steps(20_000),
                max_states,
                ..SearchLimits::default()
            },
            task_budget: None,
            max_findings_per_task: 10,
            point_workers_hint: Some(1),
        }
    }

    #[test]
    fn garbage_connections_do_not_kill_the_worker_listener() {
        use std::io::Write as _;
        let (addr, join) = start_worker();

        // 1: raw garbage — not even our magic.
        let mut s = TcpStream::connect(addr.as_str()).unwrap();
        s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        drop(s);

        // 2: correct magic, unsupported protocol version.
        let mut s = TcpStream::connect(addr.as_str()).unwrap();
        s.write_all(&crate::frame::MAGIC).unwrap();
        s.write_all(&[99]).unwrap();
        drop(s);

        // 3: a real coordinator still completes a full campaign.
        let program = factorial();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let config = deterministic_config(3);
        let local = run_cluster(
            &program,
            &DetectorSet::new(),
            &[4],
            &campaign,
            &predicate,
            &config,
        );
        let job = CampaignJob {
            program: &program,
            program_id: "factorial",
            input: &[4],
            campaign: &campaign,
            predicate: &predicate,
            config: &config,
        };
        let distributed = run_distributed(&job, std::slice::from_ref(&addr), true).unwrap();
        join.join().unwrap().unwrap();
        assert_eq!(distributed.outcome_digest(), local.outcome_digest());
        assert!(!distributed.degraded, "garbage peers are not lost workers");
    }

    #[test]
    fn late_joiner_is_admitted_and_the_digest_holds() {
        let program = slow_program();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let config = slow_config(6, 2_000);
        let local = run_cluster(
            &program,
            &DetectorSet::new(),
            &[12],
            &campaign,
            &predicate,
            &config,
        );
        let job = CampaignJob {
            program: &program,
            program_id: "slowprog",
            input: &[12],
            campaign: &campaign,
            predicate: &predicate,
            config: &config,
        };

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let join_addr = listener.local_addr().unwrap().to_string();
        let joiner: Mutex<Option<std::thread::JoinHandle<Result<(), WireError>>>> =
            Mutex::new(None);
        // The hook runs on the coordinator thread once the first result is
        // booked, and does not return until the coordinator has
        // welcomed the joiner (a joiner resolves the welcomed program id
        // the moment `Welcome` arrives — that resolve is the signal). So
        // the admission cannot lose a race against the end of the
        // campaign, however fast the remaining shards are.
        let spawn_joiner = || {
            let addr = join_addr.clone();
            let (welcomed_tx, welcomed_rx) = std::sync::mpsc::channel();
            *joiner.lock().unwrap() = Some(std::thread::spawn(move || {
                let resolve = move |id: &str| {
                    let _ = welcomed_tx.send(());
                    resolver(id)
                };
                join_coordinator(&addr, "late-joiner", &resolve)
            }));
            welcomed_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("the coordinator must welcome the joiner");
        };

        let (addr, worker_join) = start_worker();
        let opts = DistOptions {
            shutdown_workers: true,
            heartbeat_interval: Duration::from_millis(30),
            join_listener: Some(&listener),
            chaos: ChaosPlan {
                delayed_join: Some((1, &spawn_joiner)),
                ..ChaosPlan::default()
            },
            ..DistOptions::default()
        };
        let report = run_distributed_with(&job, std::slice::from_ref(&addr), &opts).unwrap();
        worker_join.join().unwrap().unwrap();
        assert_eq!(
            report.workers_joined, 1,
            "the delayed joiner must have been admitted"
        );
        assert!(!report.degraded, "a join is growth, not degradation");
        assert_eq!(
            report.outcome_digest(),
            local.outcome_digest(),
            "an elastic fleet must reproduce the in-process digest"
        );
        let handle = joiner
            .into_inner()
            .unwrap()
            .expect("the delayed-join hook must have fired");
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn idle_worker_forces_a_split_and_the_digest_holds() {
        let program = slow_program();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        assert!(campaign.len() >= 2, "need a splittable campaign");
        let predicate = Predicate::OutputContainsErr;
        // One shard holding every point: without splitting, the second
        // worker would sit idle for the whole campaign. The state cap is
        // sized per build profile so the unsplit shard runs for about a
        // second either way (eight points of 120+ ms each), while the
        // split round-trip — the coordinator sends the victim its Cancel
        // the moment the other worker is idle, the victim acks after its
        // current point — is over in a quarter of that, long before the
        // shard could complete.
        let max_states = if cfg!(debug_assertions) {
            40_000
        } else {
            250_000
        };
        let mut config = slow_config(1, max_states);
        // Lift the finding cap past every point's worst case so splitting
        // is exactness-preserving (the split gate's requirement).
        config.max_findings_per_task = campaign.len() * config.search.max_solutions;
        let local = run_cluster(
            &program,
            &DetectorSet::new(),
            &[60],
            &campaign,
            &predicate,
            &config,
        );
        let job = CampaignJob {
            program: &program,
            program_id: "slowprog",
            input: &[60],
            campaign: &campaign,
            predicate: &predicate,
            config: &config,
        };
        let (addr_a, join_a) = start_worker();
        let (addr_b, join_b) = start_worker();
        let opts = DistOptions {
            shutdown_workers: true,
            heartbeat_interval: Duration::from_millis(30),
            split_idle: true,
            ..DistOptions::default()
        };
        let report = run_distributed_with(&job, &[addr_a, addr_b], &opts).unwrap();
        join_a.join().unwrap().unwrap();
        join_b.join().unwrap().unwrap();
        assert!(
            report.tasks_split >= 1,
            "the idle worker must have claimed half the only shard"
        );
        assert!(!report.degraded, "splitting is not degradation");
        assert_eq!(report.tasks.len(), 1, "halves re-merge into one shard");
        assert_eq!(
            report.outcome_digest(),
            local.outcome_digest(),
            "shard splitting must not move the digest"
        );
    }

    #[test]
    fn split_idle_is_refused_when_the_finding_cap_binds() {
        let program = factorial();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        // The default cap (10) can bind on a whole-campaign shard, so the
        // coordinator must ignore --split-idle and still finish clean.
        let config = deterministic_config(2);
        let local = run_cluster(
            &program,
            &DetectorSet::new(),
            &[4],
            &campaign,
            &predicate,
            &config,
        );
        let job = CampaignJob {
            program: &program,
            program_id: "factorial",
            input: &[4],
            campaign: &campaign,
            predicate: &predicate,
            config: &config,
        };
        let (addr_a, join_a) = start_worker();
        let (addr_b, join_b) = start_worker();
        let opts = DistOptions {
            shutdown_workers: true,
            split_idle: true,
            ..DistOptions::default()
        };
        let report = run_distributed_with(&job, &[addr_a, addr_b], &opts).unwrap();
        join_a.join().unwrap().unwrap();
        join_b.join().unwrap().unwrap();
        assert_eq!(report.tasks_split, 0, "the gate must refuse to split");
        assert_eq!(report.outcome_digest(), local.outcome_digest());
    }

    #[test]
    fn duplicated_result_frame_does_not_corrupt_the_report() {
        let program = factorial();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let config = deterministic_config(4);
        let local = run_cluster(
            &program,
            &DetectorSet::new(),
            &[4],
            &campaign,
            &predicate,
            &config,
        );
        let job = CampaignJob {
            program: &program,
            program_id: "factorial",
            input: &[4],
            campaign: &campaign,
            predicate: &predicate,
            config: &config,
        };

        // Worker→coordinator frame 0 through the proxy is the session's
        // ClientAccept and frame 1 the victim's first TaskDone (the 10 s
        // cadence rules heartbeats out). Its duplicate is what the
        // coordinator reads in answer to the victim's *second* task: a
        // result for the wrong shard, which fails the connection and must
        // never be booked. The healthy worker is listed but not yet
        // serving — its connection waits in the listen backlog until the
        // first result is booked — so the victim is certain to be handed
        // both tasks, whatever the two workers' relative speed.
        let (victim_addr, victim_join) = start_worker();
        let (healthy_addr, healthy) = HeldWorker::bind();
        let healthy = Mutex::new(Some(healthy));
        let healthy_join = Mutex::new(None);
        let release_healthy = || {
            let held = healthy.lock().unwrap().take().unwrap();
            *healthy_join.lock().unwrap() = Some(held.release());
        };
        let proxy =
            ChaosProxy::start(victim_addr.clone(), ChaosMode::DuplicateFrame { frame: 1 }).unwrap();
        let opts = DistOptions {
            shutdown_workers: true,
            heartbeat_interval: Duration::from_secs(10),
            chaos: ChaosPlan {
                delayed_join: Some((1, &release_healthy)),
                ..ChaosPlan::default()
            },
            ..DistOptions::default()
        };
        let report =
            run_distributed_with(&job, &[proxy.addr.clone(), healthy_addr], &opts).unwrap();
        assert_eq!(
            report.outcome_digest(),
            local.outcome_digest(),
            "duplicate delivery must never double-count a task"
        );
        assert_eq!(report.tasks.len(), local.tasks.len());
        assert!(
            report.tasks_retried >= 1,
            "the duplicate must have failed the victim's second dispatch"
        );
        let healthy_join = healthy_join.into_inner().unwrap();
        healthy_join
            .expect("the first result releases the healthy worker")
            .join()
            .unwrap()
            .unwrap();
        // The victim behind the proxy never got a Shutdown; send one
        // directly so its serve loop exits.
        let stream = TcpStream::connect(victim_addr.as_str()).unwrap();
        let mut conn = Conn::establish(stream).unwrap();
        conn.send(&Message::Shutdown).unwrap();
        victim_join.join().unwrap().unwrap();
        proxy.join();
    }
}
