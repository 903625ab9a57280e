//! The multi-tenant campaign service: many coordinators, one worker.
//!
//! [`WorkerServer::serve_with`] turns the worker agent into a shared
//! daemon: every accepted connection becomes a *client session* (one
//! thread each, over the existing framing), admitted by a
//! [`Message::ClientHello`] / [`Message::ClientAccept`] exchange and
//! bounded by [`ServeOptions::max_clients`] — a full service refuses the
//! connection with a typed `Error` frame instead of hanging it. Sessions
//! only move frames; the searches themselves run on a single executor
//! that drains the per-client task queues through a [`FairScheduler`] —
//! weighted round-robin by client-declared priority — so one huge
//! campaign cannot starve a small one. Per-client accounting is surfaced
//! as [`ServiceStats`] (and, with [`ServeOptions::status_interval`], as
//! a periodic stderr status line).
//!
//! A worker that dials a running campaign instead ([`join_coordinator`])
//! is admitted by `Register`/`Welcome` rather than the hello, then runs
//! the very same session on a private, single-tenant service.
//!
//! Nothing on the request path waits on a timer: a reply is written by
//! whichever thread completes the job (through the session's outbox, in
//! submission order), a session thread blocks in its read until a frame
//! arrives or a heartbeat falls due, the executor and the status thread
//! wait on condition variables, and the accept loop blocks in `accept`.
//! A program id is resolved, decoded and digested once per daemon.
//!
//! Tenancy is invisible to results: each task still runs through
//! [`sympl_cluster::run_task_spec_with_cancel`] with the coordinator's
//! shipped budgets, and each session's replies come back in task order,
//! so a campaign's [`sympl_cluster::CampaignReport::outcome_digest`] is
//! identical to its in-process run no matter how tenants interleave.
//! See `docs/PROTOCOL.md` for the session conversation and
//! `docs/OPERATIONS.md` for running the service.

use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use sympl_asm::Program;
use sympl_cluster::{run_task_spec_with_cancel, ClusterConfig};
use sympl_detect::DetectorSet;

use crate::proto::{Message, TaskFrame};
use crate::transport::{
    lock_recovering, send_message, wake_addr, Conn, ProgramResolver, WorkerServer,
    MIN_HEARTBEAT_INTERVAL,
};
use crate::{program_digest, WireError};

/// The default [`ServeOptions::max_clients`] accept gate.
pub const DEFAULT_MAX_CLIENTS: usize = 16;

/// How many closed sessions keep their own [`ServiceStats::clients`] row;
/// older ones fold into [`ServiceStats::retired_clients`].
const CLOSED_ROWS: usize = 16;

/// The send timeout on a session's socket: a reply `write` that cannot
/// queue a single byte for this long (the client stopped reading and
/// every buffer in between is full) fails and ends the session — which
/// is what bounds the time one stuck client can hold up the executor. A
/// stall costs a few of these, once, not one: a blocked `write` that had
/// already queued part of its buffer reports that first, and only the
/// next one times out.
const WRITE_STALL: Duration = Duration::from_secs(1);

/// Options for the multi-tenant service loop
/// ([`WorkerServer::serve_with`]).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// The accept gate: at most this many client sessions at once. The
    /// `max_clients + 1`-th concurrent client is refused with a typed
    /// `Error` frame (never silently dropped, never hung).
    pub max_clients: usize,
    /// Print a per-client accounting line to stderr at this cadence
    /// (`serve --status-interval`); `None` disables the status loop.
    pub status_interval: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_clients: DEFAULT_MAX_CLIENTS,
            status_interval: None,
        }
    }
}

/// One client's accounting row in [`ServiceStats`].
#[derive(Debug, Clone)]
pub struct ClientStats {
    /// The service-assigned session id (echoed in the `ClientAccept`).
    pub client_id: u64,
    /// The client's self-declared label, from its `ClientHello`.
    pub label: String,
    /// The client's scheduling weight (clamped to ≥ 1 at admission).
    pub priority: u64,
    /// The session is still connected.
    pub active: bool,
    /// Tasks accepted but not yet picked by the executor.
    pub queued: usize,
    /// Tasks completed (answered with `TaskDone`) so far.
    pub completed: usize,
}

/// A point-in-time snapshot of the service's per-client accounting.
/// Returned by [`WorkerServer::serve_with`] when the service drains, and
/// rendered by the `--status-interval` log line while it runs.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Sessions currently connected.
    pub active_clients: usize,
    /// Connections refused by the [`ServeOptions::max_clients`] gate.
    pub refused_clients: usize,
    /// One row per connected session, then the most recently closed
    /// sessions (marked inactive, oldest first, a bounded number).
    pub clients: Vec<ClientStats>,
    /// Closed sessions that have aged out of [`Self::clients`].
    pub retired_clients: usize,
    /// Tasks those aged-out sessions completed.
    pub retired_completed: usize,
}

impl ServiceStats {
    /// The fairness ratio: max over min of `completed / priority` across
    /// clients that have completed work — 1.0 is perfectly fair service,
    /// and two equal-priority backlogged clients stay within one
    /// scheduler round of each other (the documented fairness bound).
    /// Returns 1.0 when fewer than two clients have completed tasks.
    #[must_use]
    pub fn fairness_ratio(&self) -> f64 {
        let mut served: Vec<f64> = self
            .clients
            .iter()
            .filter(|c| c.completed > 0)
            .map(|c| {
                #[allow(clippy::cast_precision_loss)]
                let per_unit = c.completed as f64 / c.priority.max(1) as f64;
                per_unit
            })
            .collect();
        if served.len() < 2 {
            return 1.0;
        }
        served.sort_by(f64::total_cmp);
        served[served.len() - 1] / served[0]
    }
}

/// The weighted round-robin scheduler the service's executor drains the
/// per-client queues through.
///
/// Each client holds a credit balance; a scheduler *round* grants every
/// client `priority` credits, and [`FairScheduler::pick`] serves the next
/// backlogged client (cursor order) that still has credit, starting a new
/// round only when every backlogged client's balance hits zero. The
/// fairness bound follows: between refills a backlogged client is served
/// exactly `priority` times, so two clients backlogged over the same
/// window have served-counts per unit priority within one round of each
/// other — a small campaign always makes progress while a huge one is in
/// flight.
///
/// Deterministic and allocation-light by design so it can be unit- and
/// property-tested exhaustively; the service drives it under a lock.
#[derive(Debug, Default)]
pub struct FairScheduler {
    /// Round-robin position: the index after the last client served.
    cursor: usize,
    /// Remaining credits this round, indexed like the caller's client
    /// list (new clients join mid-round with zero and wait for the next
    /// refill, so joining cannot jump the queue).
    credits: Vec<u64>,
}

impl FairScheduler {
    /// A fresh scheduler with no clients and no round in progress.
    #[must_use]
    pub fn new() -> Self {
        FairScheduler::default()
    }

    /// Picks the next client to serve. `clients[i]` is `(priority,
    /// backlogged)` for client `i`; the list may grow at its end between
    /// calls, and may drop an entry provided [`FairScheduler::remove`] is
    /// told which. Returns `None` when no client is backlogged.
    pub fn pick(&mut self, clients: &[(u64, bool)]) -> Option<usize> {
        let n = clients.len();
        if n == 0 {
            return None;
        }
        if self.credits.len() < n {
            self.credits.resize(n, 0);
        }
        // First pass: anyone backlogged with credit left this round?
        for step in 0..n {
            let j = (self.cursor + step) % n;
            if clients[j].1 && self.credits[j] > 0 {
                self.credits[j] -= 1;
                self.cursor = (j + 1) % n;
                return Some(j);
            }
        }
        if !clients.iter().any(|&(_, backlogged)| backlogged) {
            return None;
        }
        // New round: refill every client's credits from its priority.
        for (credit, &(priority, _)) in self.credits.iter_mut().zip(clients) {
            *credit = priority.max(1);
        }
        for step in 0..n {
            let j = (self.cursor + step) % n;
            if clients[j].1 {
                self.credits[j] -= 1;
                self.cursor = (j + 1) % n;
                return Some(j);
            }
        }
        None
    }

    /// Forgets client `index`, whose entry the caller is removing from
    /// the list it passes to [`FairScheduler::pick`]: the credits of the
    /// clients behind it shift down with their indices, and the rotation
    /// resumes at the same client it would have served next.
    pub fn remove(&mut self, index: usize) {
        if index < self.credits.len() {
            self.credits.remove(index);
        }
        if self.cursor > index {
            self.cursor -= 1;
        }
    }
}

/// A program id as the daemon resolved it, once: the program (decoded
/// before it is cached, so every task shares the one lowering), its
/// detectors, and the digest task frames are checked against.
struct ResolvedProgram {
    program: Program,
    detectors: DetectorSet,
    digest: u128,
}

/// Everything the executor needs to run one queued task.
struct QueuedWork {
    resolved: Arc<ResolvedProgram>,
    task: TaskFrame,
}

/// A submitted task's lifecycle. `Queued → Running → Done → Sent` for the
/// happy path; a cancel can jump `Queued → Done` directly (the executor
/// skips jobs it pops in a non-`Queued` state).
enum JobState {
    Queued(Box<QueuedWork>),
    Running,
    Done(Box<Message>),
    Sent,
}

/// One submitted task, shared between its session (which owns the reply
/// ordering) and the executor (which runs it).
struct SessionJob {
    /// The heartbeat cadence the task frame asked for.
    interval: Duration,
    /// Cooperative cancel flag threaded into the search engine.
    cancel: AtomicBool,
    /// The client sent a `Cancel` frame for this job (an incomplete
    /// result is then answered with the cancel acknowledgement `Error`).
    cancelled_by_client: AtomicBool,
    state: Mutex<JobState>,
}

impl SessionJob {
    fn is_incomplete(&self) -> bool {
        matches!(
            *lock_recovering(&self.state),
            JobState::Queued(_) | JobState::Running
        )
    }
}

/// A session's reply path: the socket's write half plus the jobs still
/// owed an answer. One lock covers both, so whichever thread finds a
/// reply ready — the executor that just finished it, or the session
/// thread that pre-completed it — sends it without reordering anything.
struct Outbox {
    writer: TcpStream,
    /// Submitted jobs not yet answered, in submission order.
    pending: VecDeque<Arc<SessionJob>>,
    /// When a frame last left while work was in flight (re-armed when
    /// the first task of a burst arrives).
    last_beat: Instant,
    /// The first write failure. The socket is shut down along with it, so
    /// the session thread's read returns and the session is torn down.
    failed: Option<WireError>,
}

impl Outbox {
    fn send(&mut self, message: &Message) {
        if self.failed.is_some() {
            return;
        }
        if let Err(e) = send_message(&mut self.writer, message) {
            let _ = self.writer.shutdown(Shutdown::Both);
            self.failed = Some(e);
        }
        self.last_beat = Instant::now();
    }

    /// How long until a heartbeat is owed: the tightest cadence any
    /// in-flight task asked for (running or waiting its scheduling turn),
    /// less the time since a frame last left. `None` with nothing in
    /// flight — an idle session owes no heartbeats.
    fn beat_due_in(&self) -> Option<Duration> {
        let interval = self.pending.iter().map(|job| job.interval).min()?;
        Some(interval.saturating_sub(self.last_beat.elapsed()))
    }
}

/// One connected client's scheduling slot, registered for the life of
/// its session.
struct ClientSlot {
    id: u64,
    label: String,
    priority: u64,
    /// Tasks awaiting the executor, oldest first. Holds only jobs still
    /// in `Queued` state — or jobs a racing cancel just completed, which
    /// the executor pops and skips.
    queue: Mutex<VecDeque<Arc<SessionJob>>>,
    outbox: Mutex<Outbox>,
    completed: AtomicUsize,
}

impl ClientSlot {
    /// Sends every reply that is ready, strictly in submission order (a
    /// coordinator driving one task at a time sees exactly the
    /// single-tenant conversation), stopping at the first job still
    /// queued or running.
    fn flush(&self) {
        let mut outbox = lock_recovering(&self.outbox);
        while let Some(front) = outbox.pending.front() {
            let reply = {
                let mut state = lock_recovering(&front.state);
                match std::mem::replace(&mut *state, JobState::Sent) {
                    JobState::Done(reply) => reply,
                    other => {
                        *state = other;
                        return;
                    }
                }
            };
            outbox.pending.pop_front();
            outbox.send(&reply);
        }
    }

    /// Sends a heartbeat if one is owed right now. Checked under the
    /// outbox lock: a reply that just left has re-armed the cadence.
    fn heartbeat(&self) {
        let mut outbox = lock_recovering(&self.outbox);
        if outbox.beat_due_in().is_some_and(|due| due.is_zero()) {
            outbox.send(&Message::Heartbeat);
        }
    }

    fn stats(&self, active: bool) -> ClientStats {
        ClientStats {
            client_id: self.id,
            label: self.label.clone(),
            priority: self.priority,
            active,
            queued: lock_recovering(&self.queue).len(),
            completed: self.completed.load(Ordering::SeqCst),
        }
    }
}

/// Who the service is serving and whom it has served. `live` is the list
/// the [`FairScheduler`] indexes, so it only changes under the scheduler
/// lock.
#[derive(Default)]
struct Registry {
    live: Vec<Arc<ClientSlot>>,
    /// The last [`CLOSED_ROWS`] closed sessions' final rows, oldest first.
    closed: VecDeque<ClientStats>,
    retired_clients: usize,
    retired_completed: usize,
}

/// The shared state behind [`WorkerServer::serve_with`].
struct Service<'a> {
    resolve: &'a ProgramResolver<'a>,
    opts: ServeOptions,
    clients: Mutex<Registry>,
    /// Every program id resolved so far. Only successes are kept, so the
    /// map is bounded by what the resolver knows, not by what clients ask.
    programs: Mutex<HashMap<String, Arc<ResolvedProgram>>>,
    /// Guards the scheduler and pairs with both condvars: sessions notify
    /// `sched_cv` after enqueueing and the executor waits on it when
    /// every queue is empty; `stop_cv` only ever wakes the status thread.
    /// Lock order: `sched`, then `clients`, then a slot's `queue`.
    sched: Mutex<FairScheduler>,
    sched_cv: Condvar,
    stop_cv: Condvar,
    sessions: AtomicUsize,
    /// A client sent `Shutdown`: stop accepting, exit once the last
    /// session closes.
    draining: AtomicBool,
    /// The accept loop is done; executor and status threads must exit.
    stopped: AtomicBool,
    refused: AtomicUsize,
    next_client_id: AtomicU64,
}

impl<'a> Service<'a> {
    fn new(resolve: &'a ProgramResolver<'a>, opts: ServeOptions) -> Self {
        Service {
            resolve,
            opts,
            clients: Mutex::default(),
            programs: Mutex::default(),
            sched: Mutex::new(FairScheduler::new()),
            sched_cv: Condvar::new(),
            stop_cv: Condvar::new(),
            sessions: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            refused: AtomicUsize::new(0),
            next_client_id: AtomicU64::new(1),
        }
    }

    fn stats(&self) -> ServiceStats {
        let registry = lock_recovering(&self.clients);
        ServiceStats {
            active_clients: self.sessions.load(Ordering::SeqCst),
            refused_clients: self.refused.load(Ordering::SeqCst),
            clients: registry
                .live
                .iter()
                .map(|slot| slot.stats(true))
                .chain(registry.closed.iter().cloned())
                .collect(),
            retired_clients: registry.retired_clients,
            retired_completed: registry.retired_completed,
        }
    }

    fn status_line(&self) -> String {
        let stats = self.stats();
        let mut line = format!(
            "sympl-wire service: {} client(s) active, {} refused",
            stats.active_clients, stats.refused_clients
        );
        for c in &stats.clients {
            let state = if c.active { "" } else { " gone" };
            line.push_str(&format!(
                " | {}[prio {}]{state}: {} queued, {} done",
                c.label, c.priority, c.queued, c.completed
            ));
        }
        if stats.retired_clients > 0 {
            line.push_str(&format!(
                " | {} earlier session(s): {} done",
                stats.retired_clients, stats.retired_completed
            ));
        }
        line.push_str(&format!(" | fairness {:.2}", stats.fairness_ratio()));
        line
    }

    /// Reserves a session slot, refusing at the `max_clients` gate (or
    /// while draining). The reservation is what `sessions` counts, so the
    /// gate can never over-admit in a connect race.
    fn try_admit(&self) -> bool {
        if self.draining.load(Ordering::SeqCst) {
            return false;
        }
        let max = self.opts.max_clients.max(1);
        self.sessions
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < max).then_some(n + 1)
            })
            .is_ok()
    }

    /// A drain was requested and the last session has closed.
    fn drained(&self) -> bool {
        self.draining.load(Ordering::SeqCst) && self.sessions.load(Ordering::SeqCst) == 0
    }

    /// Tells the executor and status threads to exit. The flag is set
    /// before the scheduler lock is cycled, and both threads check it
    /// under that lock before they wait, so neither can miss the wake-up.
    fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        drop(lock_recovering(&self.sched));
        self.sched_cv.notify_all();
        self.stop_cv.notify_all();
    }

    /// The executor thread: drains the per-client queues through the
    /// [`FairScheduler`], one task at a time, pushing each reply out the
    /// moment its job completes, until stopped. The scheduler lock is
    /// held from the empty-handed pick into the wait, so an enqueue
    /// (which cycles the lock before notifying) is never missed.
    fn executor(&self) {
        let mut sched = lock_recovering(&self.sched);
        loop {
            if let Some((slot, job, work)) = self.claim_next(&mut sched) {
                drop(sched);
                self.run_job(&slot, &job, *work);
                slot.flush();
                sched = lock_recovering(&self.sched);
            } else if self.stopped.load(Ordering::SeqCst) {
                return;
            } else {
                sched = self
                    .sched_cv
                    .wait(sched)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Picks and claims the next runnable job, skipping jobs a cancel
    /// completed while they sat in queue.
    fn claim_next(
        &self,
        sched: &mut FairScheduler,
    ) -> Option<(Arc<ClientSlot>, Arc<SessionJob>, Box<QueuedWork>)> {
        loop {
            let slot = {
                let registry = lock_recovering(&self.clients);
                let views: Vec<(u64, bool)> = registry
                    .live
                    .iter()
                    .map(|s| (s.priority, !lock_recovering(&s.queue).is_empty()))
                    .collect();
                Arc::clone(&registry.live[sched.pick(&views)?])
            };
            // The pick and the pop race a session teardown emptying the
            // queue; that just sends us around again.
            let Some(job) = lock_recovering(&slot.queue).pop_front() else {
                continue;
            };
            let mut state = lock_recovering(&job.state);
            match std::mem::replace(&mut *state, JobState::Running) {
                JobState::Queued(work) => {
                    drop(state);
                    return Some((slot, job, work));
                }
                other => *state = other,
            }
        }
    }

    /// Runs one claimed task through the same engine path a
    /// single-tenant worker uses and marks the job done with its reply.
    fn run_job(&self, slot: &ClientSlot, job: &SessionJob, work: QueuedWork) {
        let QueuedWork { resolved, task } = work;
        let config = ClusterConfig {
            workers: 1,
            tasks: 1,
            search: task.search.clone(),
            task_budget: task.task_budget,
            max_findings_per_task: task.max_findings,
            point_workers_hint: Some(task.point_workers.max(1)),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_task_spec_with_cancel(
                &resolved.program,
                &resolved.detectors,
                &task.input,
                &task.spec,
                &task.predicate,
                &config,
                &job.cancel,
                None,
            )
        }));
        let reply = match outcome {
            Err(_) => Message::Error(
                "task panicked on the worker; the campaign can re-queue it elsewhere".into(),
            ),
            Ok((result, findings)) => {
                if job.cancelled_by_client.load(Ordering::SeqCst) && !result.completed {
                    Message::Error("task cancelled by the coordinator".into())
                } else {
                    Message::TaskDone { result, findings }
                }
            }
        };
        if matches!(reply, Message::TaskDone { .. }) {
            slot.completed.fetch_add(1, Ordering::SeqCst);
        }
        *lock_recovering(&job.state) = JobState::Done(Box::new(reply));
    }

    /// The status thread: prints [`Self::status_line`] every `interval`
    /// until the service stops, asleep on `stop_cv` in between.
    fn status_loop(&self, interval: Duration) {
        let interval = interval.max(Duration::from_millis(50));
        let mut last = Instant::now();
        let mut sched = lock_recovering(&self.sched);
        while !self.stopped.load(Ordering::SeqCst) {
            let remaining = interval.saturating_sub(last.elapsed());
            if remaining.is_zero() {
                drop(sched);
                eprintln!("{}", self.status_line());
                last = Instant::now();
                sched = lock_recovering(&self.sched);
            } else {
                sched = self
                    .stop_cv
                    .wait_timeout(sched, remaining)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }
    }

    /// One accepted connection, end to end. The session reservation is
    /// already held (see [`Self::try_admit`]) and is released here; the
    /// last session out of a draining service wakes the accept loop at
    /// `wake_addr` with a throwaway connection so `serve_with` can return.
    fn session(
        &self,
        stream: TcpStream,
        peer: SocketAddr,
        wake_addr: SocketAddr,
    ) -> Result<(), WireError> {
        let result = self.hello_session(stream, peer);
        if self.sessions.fetch_sub(1, Ordering::SeqCst) == 1 && self.draining.load(Ordering::SeqCst)
        {
            if let Err(e) = TcpStream::connect(wake_addr) {
                eprintln!("sympl-wire service: cannot wake the accept loop to drain: {e}");
            }
        }
        result
    }

    /// A listened connection's admission: the first frame must be a
    /// `ClientHello`. A bare `Shutdown` is honoured as a drain request —
    /// the one-frame conversation fleet teardown scripts use.
    fn hello_session(&self, stream: TcpStream, peer: SocketAddr) -> Result<(), WireError> {
        let mut conn = Conn::establish(stream)?;
        conn.set_read_timeout(Some(Duration::from_secs(10)))?;
        match conn.recv()? {
            Message::ClientHello { client, priority } => {
                self.run_session(&mut conn, client, priority, &format!("from {peer}"), true)
            }
            Message::Shutdown => {
                self.draining.store(true, Ordering::SeqCst);
                Ok(())
            }
            _ => {
                let _ = conn.send(&Message::Error(
                    "expected a ClientHello as the first frame".into(),
                ));
                Err(WireError::UnexpectedMessage("client hello"))
            }
        }
    }

    /// An admitted session, whichever way it was admitted: registers the
    /// client with the scheduler, answers a listened client's hello with
    /// its `ClientAccept` (`accept`), serves frames until `Shutdown` or
    /// hang-up, then retires the client.
    fn run_session(
        &self,
        conn: &mut Conn,
        label: String,
        priority: u64,
        origin: &str,
        accept: bool,
    ) -> Result<(), WireError> {
        let writer = conn.clone_writer()?;
        writer
            .set_write_timeout(Some(WRITE_STALL))
            .map_err(WireError::Io)?;
        let slot = Arc::new(ClientSlot {
            id: self.next_client_id.fetch_add(1, Ordering::SeqCst),
            label,
            priority: priority.max(1),
            queue: Mutex::default(),
            outbox: Mutex::new(Outbox {
                writer,
                pending: VecDeque::new(),
                last_beat: Instant::now(),
                failed: None,
            }),
            completed: AtomicUsize::new(0),
        });
        {
            let _sched = lock_recovering(&self.sched);
            lock_recovering(&self.clients).live.push(Arc::clone(&slot));
        }
        eprintln!(
            "sympl-wire service: client #{} `{}` (priority {}) connected {origin}",
            slot.id, slot.label, slot.priority
        );
        let served = if accept {
            conn.send(&Message::ClientAccept { client_id: slot.id })
        } else {
            Ok(())
        }
        .and_then(|()| self.serve_session(conn, &slot));
        let failed = self.retire(&slot);
        eprintln!(
            "sympl-wire service: client #{} `{}` disconnected ({} task(s) completed)",
            slot.id,
            slot.label,
            slot.completed.load(Ordering::SeqCst)
        );
        failed.map_or(served, Err)
    }

    /// Session teardown. Whatever the client left behind is cancelled and
    /// unqueued so the executor never burns time for a gone session, and
    /// the slot leaves the scheduler's rotation: its final row joins the
    /// closed tail of the stats, the oldest row there folding into the
    /// retired totals. Returns the outbox's write failure, if that is
    /// what ended the session.
    fn retire(&self, slot: &Arc<ClientSlot>) -> Option<WireError> {
        let failed = {
            let mut outbox = lock_recovering(&slot.outbox);
            for job in outbox.pending.drain(..) {
                job.cancel.store(true, Ordering::SeqCst);
                let mut state = lock_recovering(&job.state);
                if matches!(*state, JobState::Queued(_)) {
                    *state = JobState::Sent;
                }
            }
            outbox.failed.take()
        };
        lock_recovering(&slot.queue).clear();

        let mut sched = lock_recovering(&self.sched);
        let mut registry = lock_recovering(&self.clients);
        if let Some(index) = registry.live.iter().position(|s| Arc::ptr_eq(s, slot)) {
            registry.live.remove(index);
            sched.remove(index);
        }
        registry.closed.push_back(slot.stats(false));
        if registry.closed.len() > CLOSED_ROWS {
            if let Some(oldest) = registry.closed.pop_front() {
                registry.retired_clients += 1;
                registry.retired_completed += oldest.completed;
            }
        }
        failed
    }

    /// The admitted session's frame loop: accept tasks (pipelining is
    /// allowed), honour `Cancel`, heartbeat while work is in flight, end
    /// on `Shutdown` or hang-up. The read blocks until a frame arrives or
    /// the next heartbeat falls due — replies are not its business, they
    /// leave through the outbox when their jobs complete.
    fn serve_session(&self, conn: &mut Conn, slot: &ClientSlot) -> Result<(), WireError> {
        loop {
            let beat_due_in = lock_recovering(&slot.outbox).beat_due_in();
            let message = match conn.poll_recv(beat_due_in, Duration::from_secs(5)) {
                Ok(Some(message)) => message,
                Ok(None) => {
                    slot.heartbeat();
                    continue;
                }
                Err(WireError::Disconnected) => return Ok(()),
                Err(e) => return Err(e),
            };
            match message {
                Message::Task(task) => self.enqueue(slot, task),
                Message::Cancel => {
                    // Cancel the oldest incomplete job: queued jobs are
                    // answered (and unscheduled) immediately, a running
                    // one is asked to stop at the next point boundary.
                    let target = lock_recovering(&slot.outbox)
                        .pending
                        .iter()
                        .find(|j| j.is_incomplete())
                        .cloned();
                    if let Some(job) = target {
                        job.cancelled_by_client.store(true, Ordering::SeqCst);
                        job.cancel.store(true, Ordering::SeqCst);
                        let mut state = lock_recovering(&job.state);
                        if matches!(*state, JobState::Queued(_)) {
                            *state = JobState::Done(Box::new(Message::Error(
                                "task cancelled by the coordinator".into(),
                            )));
                        }
                    }
                    slot.flush();
                }
                Message::Shutdown => {
                    self.draining.store(true, Ordering::SeqCst);
                    return Ok(());
                }
                Message::Heartbeat
                | Message::TaskDone { .. }
                | Message::Error(_)
                | Message::Register { .. }
                | Message::Welcome { .. }
                | Message::ClientHello { .. }
                | Message::ClientAccept { .. } => {
                    return Err(WireError::UnexpectedMessage("task or control frame"))
                }
            }
        }
    }

    /// Resolves `id` through the daemon's cache: the resolver, the decode
    /// and the digest run once per id, not once per task frame. A cached
    /// entry can at worst be refused — every task's own digest is still
    /// compared against it.
    fn resolve_once(&self, id: &str) -> Option<Arc<ResolvedProgram>> {
        let mut programs = lock_recovering(&self.programs);
        if let Some(hit) = programs.get(id) {
            return Some(Arc::clone(hit));
        }
        let (program, detectors) = (self.resolve)(id)?;
        let _ = program.decoded();
        let resolved = Arc::new(ResolvedProgram {
            digest: program_digest(&program),
            program,
            detectors,
        });
        programs.insert(id.to_owned(), Arc::clone(&resolved));
        Some(resolved)
    }

    /// Books one task: it joins the outbox (so its reply has a place in
    /// the order) and then the executor's queue. Resolution and digest
    /// failures produce a pre-completed job (the typed `Error` reply)
    /// that never reaches the scheduler.
    fn enqueue(&self, slot: &ClientSlot, task: TaskFrame) {
        let interval = task.heartbeat_interval.max(MIN_HEARTBEAT_INTERVAL);
        let state = match self.resolve_once(&task.program_id) {
            None => JobState::Done(Box::new(Message::Error(format!(
                "unknown program id `{}`",
                task.program_id
            )))),
            Some(resolved) if resolved.digest == task.program_digest => {
                JobState::Queued(Box::new(QueuedWork { resolved, task }))
            }
            Some(_) => JobState::Done(Box::new(Message::Error(format!(
                "program digest mismatch for `{}`: this worker has a different revision",
                task.program_id
            )))),
        };
        let runnable = matches!(state, JobState::Queued(_));
        let job = Arc::new(SessionJob {
            interval,
            cancel: AtomicBool::new(false),
            cancelled_by_client: AtomicBool::new(false),
            state: Mutex::new(state),
        });
        {
            let mut outbox = lock_recovering(&slot.outbox);
            if outbox.pending.is_empty() {
                // The heartbeat cadence counts from the submission, not
                // from whenever this session last had something to say.
                outbox.last_beat = Instant::now();
            }
            outbox.pending.push_back(Arc::clone(&job));
        }
        if runnable {
            lock_recovering(&slot.queue).push_back(job);
            drop(lock_recovering(&self.sched));
            self.sched_cv.notify_all();
        } else {
            slot.flush();
        }
    }
}

impl WorkerServer {
    /// Serves many concurrent coordinators — the multi-tenant campaign
    /// service. Each accepted connection runs as its own session thread;
    /// tasks from all sessions drain through one [`FairScheduler`]-driven
    /// executor. Returns the final [`ServiceStats`] once a client sends
    /// `Shutdown` and the last session closes.
    ///
    /// # Errors
    ///
    /// Only listener-level failures; per-connection errors are reported
    /// to stderr and the service keeps accepting.
    pub fn serve_with(
        &self,
        resolve: &ProgramResolver<'_>,
        opts: &ServeOptions,
    ) -> Result<ServiceStats, WireError> {
        let wake_addr = wake_addr(&self.listener).map_err(WireError::Io)?;
        let service = Service::new(resolve, opts.clone());
        let result = std::thread::scope(|scope| {
            let service = &service;
            scope.spawn(move || service.executor());
            if let Some(interval) = service.opts.status_interval {
                scope.spawn(move || service.status_loop(interval));
            }
            let accepted = loop {
                let (stream, peer) = match self.listener.accept() {
                    Ok(accepted) => accepted,
                    Err(e) => break Err(WireError::Io(e)),
                };
                if service.drained() {
                    // The last session's wake-up call (or a client too
                    // late to be served): nothing left to wait for.
                    break Ok(());
                }
                if service.try_admit() {
                    scope.spawn(move || {
                        if let Err(e) = service.session(stream, peer, wake_addr) {
                            eprintln!("sympl-wire service: connection from {peer} failed: {e}");
                        }
                    });
                } else {
                    // The accept gate: refuse loudly with a typed Error
                    // frame instead of hanging the client.
                    let max = service.opts.max_clients.max(1);
                    service.refused.fetch_add(1, Ordering::SeqCst);
                    eprintln!(
                        "sympl-wire service: refusing client from {peer}: \
                         at capacity ({max}/{max} clients)"
                    );
                    scope.spawn(move || {
                        if let Ok(mut conn) = Conn::establish(stream) {
                            let _ = conn.send(&Message::Error(format!(
                                "service at capacity ({max}/{max} clients); \
                                 try again later"
                            )));
                        }
                    });
                }
            };
            if accepted.is_err() {
                // The listener died under live sessions: hang up on them,
                // or the scope would wait for every client to leave on
                // its own before the error could be returned.
                for slot in &lock_recovering(&service.clients).live {
                    let _ = lock_recovering(&slot.outbox)
                        .writer
                        .shutdown(Shutdown::Both);
                }
            }
            service.stop();
            accepted
        });
        result.map(|()| service.stats())
    }
}

/// Joins a *running* campaign as a worker: connects to the coordinator's
/// join listener, sends `Register`, waits for the `Welcome` (pre-warming
/// the announced program), then serves the connection as one session of
/// a private service — the same session, executor and program cache a
/// listening worker runs, so replies leave on completion, tasks may be
/// pipelined and `Cancel` hits the oldest incomplete task. Exposed on the
/// CLI as `symplfied serve --join <addr>`.
///
/// Returns once the campaign releases the worker — a `Shutdown` frame
/// and a coordinator hang-up are both clean ends (the campaign is simply
/// over).
///
/// # Errors
///
/// Connection/handshake failures, a coordinator that answers the
/// `Register` with anything but `Welcome`, or a mid-conversation
/// protocol or write error.
pub fn join_coordinator(
    addr: &str,
    worker_label: &str,
    resolve: &ProgramResolver<'_>,
) -> Result<(), WireError> {
    let stream = TcpStream::connect(addr).map_err(WireError::from)?;
    let mut conn = Conn::establish(stream)?;
    conn.send(&Message::Register {
        worker: worker_label.to_owned(),
    })?;
    conn.set_read_timeout(Some(Duration::from_secs(30)))?;
    let Message::Welcome { program_id, .. } = conn.recv()? else {
        return Err(WireError::UnexpectedMessage("welcome"));
    };
    let service = Service::new(resolve, ServeOptions::default());
    // Pre-warm: resolve, decode and digest the campaign's program before
    // the first task frame arrives. Every task frame still carries the
    // digest it is checked against.
    let _ = service.resolve_once(&program_id);
    std::thread::scope(|scope| {
        let service = &service;
        scope.spawn(move || service.executor());
        let served = service.run_session(
            &mut conn,
            worker_label.to_owned(),
            1,
            &format!("to coordinator {addr}"),
            false,
        );
        service.stop();
        served
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{
        run_distributed, run_distributed_with, CampaignJob, DistOptions, LISTENING_PREFIX,
    };
    use sympl_asm::parse_program;
    use sympl_check::{Predicate, SearchLimits};
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

    /// A program whose per-point searches take tens of milliseconds under
    /// a generous step budget, so scheduling order — not thread-wakeup
    /// noise — decides which client's replies land first.
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
            workers: 1,
            tasks,
            search: SearchLimits {
                exec: ExecLimits::with_max_steps(300),
                max_solutions: 4,
                ..SearchLimits::default()
            },
            task_budget: None,
            max_findings_per_task: 4,
            point_workers_hint: Some(1),
        }
    }

    fn start_service(
        opts: ServeOptions,
    ) -> (
        String,
        std::thread::JoinHandle<Result<ServiceStats, WireError>>,
    ) {
        let server = WorkerServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.serve_with(&resolver, &opts));
        (addr, handle)
    }

    /// Opens a session by hand: preamble, `ClientHello`, `ClientAccept`.
    fn open_session(addr: &str, label: &str) -> Conn {
        let stream = TcpStream::connect(addr).unwrap();
        let mut conn = Conn::establish(stream).unwrap();
        conn.send(&Message::ClientHello {
            client: label.into(),
            priority: 1,
        })
        .unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert!(matches!(conn.recv().unwrap(), Message::ClientAccept { .. }));
        conn
    }

    /// A hand-built task frame for one shard of `program`.
    fn task_frame(
        program_id: &str,
        program: &Program,
        input: i64,
        spec: &sympl_cluster::TaskSpec,
        search: SearchLimits,
        heartbeat_interval: Duration,
    ) -> Message {
        Message::Task(TaskFrame {
            program_id: program_id.into(),
            program_digest: program_digest(program),
            input: vec![input],
            spec: spec.clone(),
            predicate: Predicate::OutputContainsErr,
            max_findings: spec.points.len() * search.max_solutions,
            search,
            task_budget: None,
            point_workers: 1,
            heartbeat_interval,
        })
    }

    fn step_limited(max_steps: u64) -> SearchLimits {
        SearchLimits {
            exec: ExecLimits::with_max_steps(max_steps),
            max_solutions: 4,
            ..SearchLimits::default()
        }
    }

    /// Limits for the slow program: a state cap sets how long each point's
    /// search runs (uncapped, a point takes seconds in a debug build).
    fn state_capped(max_states: usize) -> SearchLimits {
        SearchLimits {
            exec: ExecLimits::with_max_steps(20_000),
            max_states,
            ..SearchLimits::default()
        }
    }

    fn campaign_job<'a>(
        program: &'a Program,
        input: &'a [i64],
        campaign: &'a Campaign,
        predicate: &'a Predicate,
        config: &'a ClusterConfig,
    ) -> CampaignJob<'a> {
        CampaignJob {
            program,
            program_id: "factorial",
            input,
            campaign,
            predicate,
            config,
        }
    }

    #[test]
    fn scheduler_alternates_equal_priority_backlogged_clients() {
        let mut sched = FairScheduler::new();
        let clients = [(1, true), (1, true)];
        let picks: Vec<usize> = (0..10).map(|_| sched.pick(&clients).unwrap()).collect();
        // Strict alternation: neither client is ever served twice in a row.
        for pair in picks.windows(2) {
            assert_ne!(pair[0], pair[1], "picks {picks:?}");
        }
        assert_eq!(picks.iter().filter(|&&j| j == 0).count(), 5);
    }

    #[test]
    fn scheduler_weights_by_priority() {
        let mut sched = FairScheduler::new();
        // Client 0 at priority 3, client 1 at priority 1, both backlogged.
        let clients = [(3, true), (1, true)];
        let picks: Vec<usize> = (0..40).map(|_| sched.pick(&clients).unwrap()).collect();
        let zeros = picks.iter().filter(|&&j| j == 0).count();
        assert_eq!(
            zeros, 30,
            "3:1 weighting over whole rounds; picks {picks:?}"
        );
    }

    #[test]
    fn scheduler_skips_idle_clients_and_serves_late_backlog_next_round() {
        let mut sched = FairScheduler::new();
        // Only client 0 is backlogged: it is served without rationing.
        for _ in 0..5 {
            assert_eq!(sched.pick(&[(1, true), (1, false)]), Some(0));
        }
        // Nobody backlogged: no pick.
        assert_eq!(sched.pick(&[(1, false), (1, false)]), None);
        // Client 1 arrives (a list that also just grew by one): it is
        // served promptly even though client 0 kept its backlog.
        let picks: Vec<usize> = (0..4)
            .map(|_| sched.pick(&[(1, true), (1, true), (1, false)]).unwrap())
            .collect();
        assert!(picks.contains(&1), "late client starves: {picks:?}");
        for pair in picks.windows(2) {
            assert_ne!(pair[0], pair[1], "picks {picks:?}");
        }
    }

    #[test]
    fn fairness_ratio_is_per_unit_priority() {
        let stats = ServiceStats {
            active_clients: 2,
            refused_clients: 0,
            clients: vec![
                ClientStats {
                    client_id: 1,
                    label: "a".into(),
                    priority: 2,
                    active: true,
                    queued: 0,
                    completed: 20,
                },
                ClientStats {
                    client_id: 2,
                    label: "b".into(),
                    priority: 1,
                    active: true,
                    queued: 0,
                    completed: 11,
                },
            ],
            ..ServiceStats::default()
        };
        let ratio = stats.fairness_ratio();
        assert!((ratio - 1.1).abs() < 1e-9, "ratio {ratio}");
        assert!(
            (ServiceStats::default().fairness_ratio() - 1.0).abs() < f64::EPSILON,
            "no clients means nothing to be unfair about"
        );
    }

    #[test]
    fn full_service_refuses_clients_with_a_typed_error() {
        let (addr, handle) = start_service(ServeOptions {
            max_clients: 1,
            status_interval: None,
        });
        // First client occupies the only slot.
        let mut first = open_session(&addr, "occupant");
        // Second client is refused with a typed Error frame — not
        // silently dropped, not hung.
        let stream = TcpStream::connect(&addr).unwrap();
        let mut second = Conn::establish(stream).unwrap();
        second
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        match second.recv().unwrap() {
            Message::Error(msg) => assert!(msg.contains("capacity"), "got `{msg}`"),
            other => panic!("expected a typed Error refusal, got {other:?}"),
        }
        drop(second);
        // The occupant shuts the service down cleanly.
        first.send(&Message::Shutdown).unwrap();
        drop(first);
        let stats = handle.join().unwrap().unwrap();
        assert_eq!(stats.refused_clients, 1);
    }

    #[test]
    fn two_concurrent_campaigns_reproduce_their_in_process_digests() {
        let program = factorial();
        let input = vec![5];
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::WrongOutput {
            expected: vec![120],
        };
        let config_a = deterministic_config(4);
        let config_b = deterministic_config(2);
        let expected_a = run_cluster(
            &program,
            &DetectorSet::new(),
            &input,
            &campaign,
            &predicate,
            &config_a,
        )
        .outcome_digest();
        let expected_b = run_cluster(
            &program,
            &DetectorSet::new(),
            &input,
            &campaign,
            &predicate,
            &config_b,
        )
        .outcome_digest();

        let (addr, handle) = start_service(ServeOptions::default());
        let digests = std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                let job = campaign_job(&program, &input, &campaign, &predicate, &config_a);
                run_distributed_with(
                    &job,
                    std::slice::from_ref(&addr),
                    &DistOptions {
                        client_label: Some("campaign-a".into()),
                        ..DistOptions::default()
                    },
                )
                .unwrap()
                .outcome_digest()
            });
            let b = scope.spawn(|| {
                let job = campaign_job(&program, &input, &campaign, &predicate, &config_b);
                run_distributed_with(
                    &job,
                    std::slice::from_ref(&addr),
                    &DistOptions {
                        client_label: Some("campaign-b".into()),
                        client_priority: 2,
                        ..DistOptions::default()
                    },
                )
                .unwrap()
                .outcome_digest()
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(digests.0, expected_a, "tenant A's digest moved");
        assert_eq!(digests.1, expected_b, "tenant B's digest moved");

        // Tear the service down and check its books.
        let stream = TcpStream::connect(&addr).unwrap();
        let mut conn = Conn::establish(stream).unwrap();
        conn.send(&Message::Shutdown).unwrap();
        drop(conn);
        let stats = handle.join().unwrap().unwrap();
        assert_eq!(stats.refused_clients, 0);
        let by_label = |label: &str| {
            stats
                .clients
                .iter()
                .find(|c| c.label == label)
                .unwrap_or_else(|| panic!("no stats row for {label}"))
                .clone()
        };
        assert_eq!(by_label("campaign-a").completed, 4);
        assert_eq!(by_label("campaign-a").priority, 1);
        assert_eq!(by_label("campaign-b").completed, 2);
        assert_eq!(by_label("campaign-b").priority, 2);
    }

    #[test]
    fn small_campaign_completes_while_a_large_one_is_in_flight() {
        // Starvation regression: an 8-task campaign of slow tasks (each
        // several milliseconds even in a release build, so the big
        // campaign outlasts any thread-start jitter many times over) and
        // a 2-task campaign of quick ones share one single-executor
        // service; round-robin means the small one must finish long
        // before the big one's tail.
        let big_program = slow_program();
        let big_input = vec![60];
        let big_campaign = Campaign::new(&big_program, ErrorClass::RegisterFile);
        let big_predicate = Predicate::OutputContainsErr;
        let big_config = ClusterConfig {
            search: state_capped(20_000),
            ..deterministic_config(big_campaign.len())
        };
        let program = factorial();
        let input = vec![6];
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::WrongOutput {
            expected: vec![720],
        };
        let small_config = deterministic_config(2);

        let (addr, handle) = start_service(ServeOptions::default());
        let (big_done, small_done) = std::thread::scope(|scope| {
            let big = scope.spawn(|| {
                let job = CampaignJob {
                    program: &big_program,
                    program_id: "slowprog",
                    input: &big_input,
                    campaign: &big_campaign,
                    predicate: &big_predicate,
                    config: &big_config,
                };
                let started = Instant::now();
                let report = run_distributed_with(
                    &job,
                    std::slice::from_ref(&addr),
                    &DistOptions {
                        client_label: Some("big".into()),
                        ..DistOptions::default()
                    },
                )
                .unwrap();
                (started + report.elapsed, report.outcome_digest())
            });
            let small = scope.spawn(|| {
                let job = campaign_job(&program, &input, &campaign, &predicate, &small_config);
                let started = Instant::now();
                let report = run_distributed_with(
                    &job,
                    std::slice::from_ref(&addr),
                    &DistOptions {
                        client_label: Some("small".into()),
                        ..DistOptions::default()
                    },
                )
                .unwrap();
                (started + report.elapsed, report.outcome_digest())
            });
            (big.join().unwrap(), small.join().unwrap())
        });
        assert_eq!(
            big_done.1,
            run_cluster(
                &big_program,
                &DetectorSet::new(),
                &big_input,
                &big_campaign,
                &big_predicate,
                &big_config,
            )
            .outcome_digest()
        );
        assert_eq!(
            small_done.1,
            run_cluster(
                &program,
                &DetectorSet::new(),
                &input,
                &campaign,
                &predicate,
                &small_config,
            )
            .outcome_digest()
        );
        // The starvation assertion proper: the small campaign must not
        // have waited for the big one's completion. Each side's finish is
        // its start plus the report's own `elapsed` — when the last shard
        // was pooled — because the call itself returns no sooner than the
        // coordinator's wall floor, which both of these beat.
        assert!(
            small_done.0 <= big_done.0,
            "the small campaign finished after the big one — it starved"
        );

        let stream = TcpStream::connect(&addr).unwrap();
        let mut conn = Conn::establish(stream).unwrap();
        conn.send(&Message::Shutdown).unwrap();
        drop(conn);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn pipelined_clients_interleave_within_the_fairness_bound() {
        // Drive two sessions by hand, pipelining unequal task counts at
        // equal priority. While both are backlogged the scheduler
        // alternates (the sharp per-round bound is pinned by the
        // FairScheduler unit and property tests), so the short client's
        // last reply must land no later than the long client's — and
        // every pipelined task must be answered. The slow program keeps
        // each task in flight for tens of milliseconds, so the finish
        // order reflects the schedule rather than thread-wakeup noise.
        let program = slow_program();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let shards = sympl_cluster::shard_specs(&campaign, 8);
        let task_for = |spec: &sympl_cluster::TaskSpec| {
            task_frame(
                "slowprog",
                &program,
                12,
                spec,
                step_limited(2_000),
                Duration::from_millis(100),
            )
        };

        let (addr, handle) = start_service(ServeOptions::default());
        let mut long = open_session(&addr, "long");
        let mut short = open_session(&addr, "short");
        // Pipeline 6 tasks on the long client, then 2 on the short one.
        for spec in &shards[..6] {
            long.send(&task_for(spec)).unwrap();
        }
        for spec in &shards[6..8] {
            short.send(&task_for(spec)).unwrap();
        }
        let drain = |conn: &mut Conn, n: usize| {
            let mut done = 0usize;
            while done < n {
                match conn.recv().unwrap() {
                    Message::TaskDone { .. } => done += 1,
                    Message::Heartbeat => {}
                    other => panic!("unexpected frame {other:?}"),
                }
            }
            Instant::now()
        };
        // Drain both sessions concurrently and compare finish instants:
        // under round-robin the short client's 2 tasks complete inside
        // the long client's first rounds, so it must finish first. (A
        // client-FIFO scheduler would hold the short client's replies
        // behind all 6 long tasks — exactly the starvation this pins.)
        let (short_done, long_done) = std::thread::scope(|scope| {
            let l = scope.spawn(|| drain(&mut long, 6));
            let s = scope.spawn(|| drain(&mut short, 2));
            (s.join().unwrap(), l.join().unwrap())
        });
        assert!(
            short_done <= long_done,
            "the short client observed no interleaving — it starved behind the long one"
        );
        long.send(&Message::Shutdown).unwrap();
        drop(long);
        drop(short);
        let stats = handle.join().unwrap().unwrap();
        let completed: usize = stats.clients.iter().map(|c| c.completed).sum();
        assert_eq!(completed, 8, "every pipelined task was answered");
        assert!(
            stats.fairness_ratio() <= 3.0 + f64::EPSILON,
            "fairness ratio {:.2} way out of bounds: {stats:?}",
            stats.fairness_ratio()
        );
    }

    #[test]
    fn scheduler_rotation_and_credits_survive_a_client_leaving() {
        // Priorities 3/1/2, all backlogged. One pick starts the round and
        // serves client 0; then client 0 leaves.
        let mut sched = FairScheduler::new();
        assert_eq!(sched.pick(&[(3, true), (1, true), (2, true)]), Some(0));
        sched.remove(0);
        // The rotation resumes at the old client 1 (now index 0), and the
        // two that stayed spend exactly their own credits — 1 and 2 —
        // before the next refill, not the leaver's leftovers.
        let stayers = [(1, true), (2, true)];
        let picks: Vec<usize> = (0..3).map(|_| sched.pick(&stayers).unwrap()).collect();
        assert_eq!(picks, [0, 1, 1]);
        // Removing the last entry leaves the cursor valid for the rest.
        let mut sched = FairScheduler::new();
        assert_eq!(sched.pick(&[(1, true), (1, true)]), Some(0));
        sched.remove(1);
        assert_eq!(sched.pick(&[(1, true)]), Some(0));
    }

    #[test]
    fn replies_leave_on_completion_and_heartbeats_keep_their_own_cadence() {
        let (addr, handle) = start_service(ServeOptions::default());
        let mut conn = open_session(&addr, "latency");

        // A trivial task at a 10 s cadence: the reply must not wait for
        // anything cadence-shaped.
        let quick = factorial();
        let shards =
            sympl_cluster::shard_specs(&Campaign::new(&quick, ErrorClass::RegisterFile), 8);
        let started = Instant::now();
        conn.send(&task_frame(
            "factorial",
            &quick,
            4,
            &shards[0],
            step_limited(300),
            Duration::from_secs(10),
        ))
        .unwrap();
        assert!(matches!(conn.recv().unwrap(), Message::TaskDone { .. }));
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "a millisecond task took {:?} to come back",
            started.elapsed()
        );

        // A task that runs for several hundred milliseconds at a 50 ms
        // cadence: heartbeats flow, never further apart than the liveness
        // deadline a coordinator would enforce.
        let slow = slow_program();
        let whole = sympl_cluster::shard_specs(&Campaign::new(&slow, ErrorClass::RegisterFile), 1);
        let cadence = Duration::from_millis(50);
        let search = state_capped(if cfg!(debug_assertions) {
            20_000
        } else {
            100_000
        });
        conn.send(&task_frame(
            "slowprog", &slow, 60, &whole[0], search, cadence,
        ))
        .unwrap();
        let (mut heartbeats, mut widest_gap, mut last_frame) =
            (0usize, Duration::ZERO, Instant::now());
        loop {
            let message = conn.recv().unwrap();
            widest_gap = widest_gap.max(last_frame.elapsed());
            last_frame = Instant::now();
            match message {
                Message::Heartbeat => heartbeats += 1,
                Message::TaskDone { .. } => break,
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert!(heartbeats >= 1, "a long task must heartbeat");
        assert!(
            widest_gap <= crate::transport::liveness_deadline(cadence),
            "frames {widest_gap:?} apart would have tripped the coordinator's liveness deadline"
        );

        conn.send(&Message::Shutdown).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn cancel_hits_the_oldest_incomplete_task() {
        let (addr, handle) = start_service(ServeOptions::default());
        let mut conn = open_session(&addr, "cancel");
        // Two slow tasks pipelined on one session, then one Cancel. The
        // first runs for about a second (state cap sized per build
        // profile), so it is still incomplete when the Cancel lands.
        let slow = slow_program();
        let shards = sympl_cluster::shard_specs(&Campaign::new(&slow, ErrorClass::RegisterFile), 2);
        let cadence = Duration::from_secs(10);
        let long = state_capped(if cfg!(debug_assertions) {
            40_000
        } else {
            250_000
        });
        for (spec, search) in [(&shards[0], long), (&shards[1], state_capped(2_000))] {
            conn.send(&task_frame("slowprog", &slow, 60, spec, search, cadence))
                .unwrap();
        }
        conn.send(&Message::Cancel).unwrap();
        let mut next_reply = || loop {
            match conn.recv().unwrap() {
                Message::Heartbeat => continue,
                other => break other,
            }
        };
        match next_reply() {
            Message::Error(why) => assert_eq!(why, "task cancelled by the coordinator"),
            other => panic!("the Cancel must hit the first task, got {other:?}"),
        }
        match next_reply() {
            Message::TaskDone { result, .. } => assert_eq!(result.id, shards[1].id),
            other => panic!("the second task must still run, got {other:?}"),
        }
        conn.send(&Message::Shutdown).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn pipelined_replies_keep_submission_order_around_a_refusal() {
        // A slow task, a task for a program nobody bundled (refused at
        // enqueue, so its reply is ready long before the first task's),
        // and a quick task: the replies still come back in that order.
        let slow = slow_program();
        let slow_shards =
            sympl_cluster::shard_specs(&Campaign::new(&slow, ErrorClass::RegisterFile), 2);
        let quick = factorial();
        let quick_shards =
            sympl_cluster::shard_specs(&Campaign::new(&quick, ErrorClass::RegisterFile), 2);
        let cadence = Duration::from_secs(10);

        let (addr, handle) = start_service(ServeOptions::default());
        let mut conn = open_session(&addr, "pipeliner");
        conn.send(&task_frame(
            "slowprog",
            &slow,
            12,
            &slow_shards[0],
            state_capped(2_000),
            cadence,
        ))
        .unwrap();
        conn.send(&task_frame(
            "no-such-workload",
            &quick,
            4,
            &quick_shards[0],
            step_limited(300),
            cadence,
        ))
        .unwrap();
        conn.send(&task_frame(
            "factorial",
            &quick,
            4,
            &quick_shards[1],
            step_limited(300),
            cadence,
        ))
        .unwrap();
        match conn.recv().unwrap() {
            Message::TaskDone { result, .. } => {
                assert_eq!(result.points_total, slow_shards[0].points.len());
            }
            other => panic!("expected the slow task's result first, got {other:?}"),
        }
        match conn.recv().unwrap() {
            Message::Error(why) => assert!(why.contains("unknown program"), "got `{why}`"),
            other => panic!("expected the refusal second, got {other:?}"),
        }
        match conn.recv().unwrap() {
            Message::TaskDone { result, .. } => assert_eq!(result.id, quick_shards[1].id),
            other => panic!("expected the quick task's result third, got {other:?}"),
        }
        conn.send(&Message::Shutdown).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn a_client_that_stops_reading_is_dropped_at_the_write_timeout() {
        let (addr, handle) = start_service(ServeOptions::default());

        // The mute client: one real task (so the executor is the thread
        // that ends up flushing), then refusals that each echo a 1 MiB
        // program id — far more reply bytes than loopback's socket buffers
        // hold — and not a single read.
        let slow = slow_program();
        let whole = sympl_cluster::shard_specs(&Campaign::new(&slow, ErrorClass::RegisterFile), 1);
        let cadence = Duration::from_secs(10);
        let mut mute = open_session(&addr, "mute");
        mute.send(&task_frame(
            "slowprog",
            &slow,
            60,
            &whole[0],
            state_capped(20_000),
            cadence,
        ))
        .unwrap();
        let bulky = task_frame(
            &"x".repeat(1 << 20),
            &slow,
            60,
            &whole[0],
            state_capped(20_000),
            cadence,
        );
        for _ in 0..24 {
            // Once the service stops reading this session the sends may
            // themselves fail; that is the drop this test is about.
            if mute.send(&bulky).is_err() {
                break;
            }
        }

        // A second tenant keeps submitting. Its first task may sit behind
        // the blocked flush for a few send timeouts — once; the rest run
        // on an executor that has let go of the mute session.
        let quick = factorial();
        let shards =
            sympl_cluster::shard_specs(&Campaign::new(&quick, ErrorClass::RegisterFile), 4);
        let mut tenant = open_session(&addr, "tenant");
        let started = Instant::now();
        for spec in &shards {
            tenant
                .send(&task_frame(
                    "factorial",
                    &quick,
                    4,
                    spec,
                    step_limited(300),
                    cadence,
                ))
                .unwrap();
            assert!(matches!(tenant.recv().unwrap(), Message::TaskDone { .. }));
        }
        assert!(
            started.elapsed() < WRITE_STALL * 8,
            "the second tenant waited {:?} behind a client that never reads",
            started.elapsed()
        );

        // The drain waits for every session to close. The mute client's
        // socket is still open on its side, so the service returning at
        // all means it dropped that session itself.
        tenant.send(&Message::Shutdown).unwrap();
        let (drained_tx, drained_rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || drained_tx.send(handle.join()));
        let stats = drained_rx
            .recv_timeout(WRITE_STALL * 8)
            .expect("the mute session was never dropped")
            .unwrap()
            .unwrap();
        waiter.join().unwrap().unwrap();
        let tenant_row = stats.clients.iter().find(|c| c.label == "tenant").unwrap();
        assert_eq!(tenant_row.completed, shards.len());
        drop(mute);
    }

    #[test]
    fn a_bare_shutdown_returns_an_idle_daemon_promptly() {
        // Nothing in an idle daemon polls: the accept loop is blocked in
        // `accept` and the status thread asleep for an hour. The drain
        // request's own session must wake both.
        let (addr, handle) = start_service(ServeOptions {
            status_interval: Some(Duration::from_secs(3600)),
            ..ServeOptions::default()
        });
        let started = Instant::now();
        crate::transport::shutdown_worker(&addr).unwrap();
        let stats = handle.join().unwrap().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "draining an idle daemon took {:?}",
            started.elapsed()
        );
        assert_eq!((stats.active_clients, stats.refused_clients), (0, 0));
        assert!(stats.clients.is_empty(), "a drain request is not a client");
    }

    #[test]
    fn closed_sessions_age_out_of_the_stats() {
        let (addr, handle) = start_service(ServeOptions {
            max_clients: 64,
            ..ServeOptions::default()
        });
        let quick = factorial();
        let shards =
            sympl_cluster::shard_specs(&Campaign::new(&quick, ErrorClass::RegisterFile), 2);
        let sessions = CLOSED_ROWS + 4;
        for i in 0..sessions {
            let mut conn = open_session(&addr, &format!("visitor-{i}"));
            conn.send(&task_frame(
                "factorial",
                &quick,
                4,
                &shards[0],
                step_limited(300),
                Duration::from_secs(10),
            ))
            .unwrap();
            assert!(matches!(conn.recv().unwrap(), Message::TaskDone { .. }));
        }
        crate::transport::shutdown_worker(&addr).unwrap();
        let stats = handle.join().unwrap().unwrap();
        assert_eq!(
            stats.clients.len(),
            CLOSED_ROWS,
            "the closed tail is bounded"
        );
        assert!(stats.clients.iter().all(|c| !c.active && c.completed == 1));
        assert_eq!(stats.retired_clients, 4);
        assert_eq!(stats.retired_completed, 4);
        // The most recent sessions are the ones still itemised.
        assert!(stats
            .clients
            .iter()
            .any(|c| c.label == format!("visitor-{}", sessions - 1)));
        assert!(!stats.clients.iter().any(|c| c.label == "visitor-0"));
    }

    #[test]
    fn a_joined_worker_runs_the_service_session() {
        // A hand-rolled coordinator: its own join listener, a joiner
        // dialling it, and the Register/Welcome admission by hand.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let joiner = std::thread::spawn(move || join_coordinator(&addr, "joiner", &resolver));
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Conn::establish(stream).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert!(matches!(conn.recv().unwrap(), Message::Register { .. }));
        let quick = factorial();
        conn.send(&Message::Welcome {
            program_id: "factorial".into(),
            program_digest: program_digest(&quick),
        })
        .unwrap();

        // 1. A trivial task comes back on completion, not at a fraction
        // of its 2 s heartbeat cadence.
        let quick_shards =
            sympl_cluster::shard_specs(&Campaign::new(&quick, ErrorClass::RegisterFile), 4);
        let started = Instant::now();
        conn.send(&task_frame(
            "factorial",
            &quick,
            4,
            &quick_shards[0],
            step_limited(300),
            Duration::from_secs(2),
        ))
        .unwrap();
        assert!(matches!(conn.recv().unwrap(), Message::TaskDone { .. }));
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "a joined worker took {:?} to answer a millisecond task",
            started.elapsed()
        );

        // 2. Pipelined tasks, one of them refused at enqueue, are answered
        // in submission order.
        let slow = slow_program();
        let slow_shards =
            sympl_cluster::shard_specs(&Campaign::new(&slow, ErrorClass::RegisterFile), 2);
        let cadence = Duration::from_secs(10);
        for frame in [
            task_frame(
                "slowprog",
                &slow,
                12,
                &slow_shards[0],
                state_capped(2_000),
                cadence,
            ),
            task_frame(
                "no-such-workload",
                &quick,
                4,
                &quick_shards[1],
                step_limited(300),
                cadence,
            ),
            task_frame(
                "factorial",
                &quick,
                4,
                &quick_shards[2],
                step_limited(300),
                cadence,
            ),
        ] {
            conn.send(&frame).unwrap();
        }
        match conn.recv().unwrap() {
            Message::TaskDone { result, .. } => assert_eq!(result.id, slow_shards[0].id),
            other => panic!("expected the slow task's result first, got {other:?}"),
        }
        match conn.recv().unwrap() {
            Message::Error(why) => assert!(why.contains("unknown program"), "got `{why}`"),
            other => panic!("expected the refusal second, got {other:?}"),
        }
        match conn.recv().unwrap() {
            Message::TaskDone { result, .. } => assert_eq!(result.id, quick_shards[2].id),
            other => panic!("expected the quick task's result third, got {other:?}"),
        }

        // 3. A long task heartbeats at its cadence, and a Cancel on it is
        // acknowledged. The state cap is sized per build profile so the
        // task runs for about a second, its points 100+ ms each: the
        // Cancel goes out after three beats, long before it could finish.
        let whole = sympl_cluster::shard_specs(&Campaign::new(&slow, ErrorClass::RegisterFile), 1);
        let cadence = Duration::from_millis(50);
        let search = state_capped(if cfg!(debug_assertions) {
            40_000
        } else {
            250_000
        });
        conn.send(&task_frame(
            "slowprog", &slow, 60, &whole[0], search, cadence,
        ))
        .unwrap();
        let (mut heartbeats, mut widest_gap, mut last_frame) =
            (0usize, Duration::ZERO, Instant::now());
        let acknowledgement = loop {
            let message = conn.recv().unwrap();
            widest_gap = widest_gap.max(last_frame.elapsed());
            last_frame = Instant::now();
            match message {
                Message::Heartbeat => {
                    heartbeats += 1;
                    if heartbeats == 3 {
                        conn.send(&Message::Cancel).unwrap();
                    }
                }
                other => break other,
            }
        };
        assert!(heartbeats >= 3, "the long task must heartbeat");
        assert!(
            widest_gap <= crate::transport::liveness_deadline(cadence),
            "frames {widest_gap:?} apart would have tripped the coordinator's liveness deadline"
        );
        match acknowledgement {
            Message::Error(why) => assert_eq!(why, "task cancelled by the coordinator"),
            other => panic!("expected the cancel acknowledgement, got {other:?}"),
        }

        // 4. Shutdown releases the joiner promptly and cleanly.
        conn.send(&Message::Shutdown).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || done_tx.send(joiner.join()));
        done_rx
            .recv_timeout(Duration::from_secs(2))
            .expect("the joiner must return promptly after Shutdown")
            .unwrap()
            .unwrap();
        waiter.join().unwrap().unwrap();
    }

    #[test]
    fn serve_loopback_workers_are_multiplexed() {
        // The classic single-campaign path through the new serve loop:
        // run_distributed with shutdown still completes and tears the
        // daemon down — the compatibility contract for every existing
        // demo and test that spawns `symplfied serve`.
        let program = factorial();
        let input = vec![4];
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::WrongOutput { expected: vec![24] };
        let config = deterministic_config(3);
        let expected = run_cluster(
            &program,
            &DetectorSet::new(),
            &input,
            &campaign,
            &predicate,
            &config,
        )
        .outcome_digest();
        let server = WorkerServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.serve(&resolver));
        let job = campaign_job(&program, &input, &campaign, &predicate, &config);
        let report = run_distributed(&job, &[addr], true).unwrap();
        assert_eq!(report.outcome_digest(), expected);
        handle.join().unwrap().unwrap();
        // LISTENING_PREFIX is untouched by the service rework — the
        // spawn helpers' readiness contract.
        assert!(LISTENING_PREFIX.contains("listening"));
    }
}
