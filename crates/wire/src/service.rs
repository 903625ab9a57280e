//! The multi-tenant campaign service: many coordinators, one worker.
//!
//! [`WorkerServer::serve_with`] turns the worker agent into a shared
//! daemon: every accepted connection becomes a *client session*, admitted
//! by a [`Message::ClientHello`] / [`Message::ClientAccept`] exchange and
//! bounded by [`ServeOptions::max_clients`] — a full service refuses the
//! connection with a typed `Error` frame instead of hanging it. The
//! searches run on a single executor that drains the per-client task
//! queues through a [`FairScheduler`] — weighted round-robin by
//! client-declared priority — so one huge campaign cannot starve a small
//! one. Per-client accounting is surfaced as [`ServiceStats`] (and, with
//! [`ServeOptions::status_interval`], as a periodic stderr status line).
//!
//! Every decision is made by `ServiceCore`, a single-owner state machine
//! fed events stamped with the time since the service started, which
//! answers each with the actions to perform and says when each session
//! next owes a heartbeat. It holds no lock, thread, socket or clock; the
//! explorer test in this module drives it through every small schedule
//! on a virtual clock. Around it, behind one mutex never held across a
//! socket write or a search, the driver only does I/O: the accept loop,
//! a thread per session that reads frames (its read times out when the
//! session owes a heartbeat), and the executor thread with the running
//! job's cancel flag. A write goes out on the thread whose event
//! released it — a result on the executor, a heartbeat or refusal on the
//! session's own thread — never two at once on one session, so replies
//! leave in submission order the moment they are ready, and a client
//! that stops reading holds up only the thread writing to it.
//!
//! A worker that dials a running campaign instead ([`join_coordinator`])
//! is admitted by `Register`/`Welcome` rather than the hello, then runs
//! the very same session on a private, single-tenant service. A program
//! id is resolved, decoded and digested once per daemon.
//!
//! Tenancy is invisible to results: each task still runs through
//! [`sympl_cluster::run_task_spec_with_cancel`] with the coordinator's
//! shipped budgets, and each session's replies come back in task order,
//! so a campaign's [`sympl_cluster::CampaignReport::outcome_digest`] is
//! identical to its in-process run no matter how tenants interleave.
//! See `docs/PROTOCOL.md` for the session conversation and
//! `docs/OPERATIONS.md` for running the service.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sympl_asm::Program;
use sympl_cluster::{run_task_spec_with_cancel, ClusterConfig};
use sympl_detect::DetectorSet;

use crate::coordinator::Entry;
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

/// The send timeout on a session's socket: a `write` that cannot queue a
/// single byte for this long (the client stopped reading and every
/// buffer in between is full) fails and ends the session — which is what
/// bounds the time one stuck client can hold the thread writing to it. A
/// stall costs a few of these, once, not one: a blocked `write` that had
/// already queued part of its buffer reports that first, and only the
/// next one times out.
const WRITE_STALL: Duration = Duration::from_secs(1);

/// The acknowledgement a cancelled task is answered with.
const CANCELLED: &str = "task cancelled by the coordinator";

/// The answer to a task whose search panicked.
const PANICKED: &str = "task panicked on the worker; the campaign can re-queue it elsewhere";

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

    /// The `--status-interval` log line.
    fn status_line(&self) -> String {
        let (active, refused) = (self.active_clients, self.refused_clients);
        let mut line = format!("sympl-wire service: {active} client(s) active, {refused} refused");
        for c in &self.clients {
            let (label, priority, queued, done) = (&c.label, c.priority, c.queued, c.completed);
            let state = if c.active { "" } else { " gone" };
            line += &format!(" | {label}[prio {priority}]{state}: {queued} queued, {done} done");
        }
        let (retired, done) = (self.retired_clients, self.retired_completed);
        if retired > 0 {
            line += &format!(" | {retired} earlier session(s): {done} done");
        }
        line + &format!(" | fairness {:.2}", self.fairness_ratio())
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
/// property-tested exhaustively; the service's core owns one.
#[derive(Debug, Default)]
#[cfg_attr(test, derive(Clone))]
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

/// A session's identity, assigned at admission and never reused.
pub(crate) type SessionId = u64;

/// A program id as the daemon resolved it, once: the program (decoded
/// before it is cached, so every task shares the one lowering), its
/// detectors, and the digest task frames are checked against.
pub(crate) struct ResolvedProgram {
    program: Program,
    detectors: DetectorSet,
    digest: u128,
}

/// Everything the executor needs to run one queued task.
#[cfg_attr(test, derive(Clone))]
pub(crate) struct Work {
    resolved: Arc<ResolvedProgram>,
    task: TaskFrame,
}

/// What happened, as the driver saw it.
pub(crate) enum Event {
    /// The listener accepted a connection, or a joining worker was
    /// welcomed by its coordinator.
    Accepted,
    /// A session's hello registers its client: label, priority, and
    /// whether to answer with a `ClientAccept` (a joined session has no
    /// hello to answer).
    Hello(SessionId, String, u64, bool),
    /// A task frame, with the program its id resolved to (`None`: the
    /// resolver does not know the id).
    Task(SessionId, Box<TaskFrame>, Option<Arc<ResolvedProgram>>),
    Cancel(SessionId),
    /// A `Shutdown` frame, bare or mid-session: drain the service and end
    /// this session.
    Shutdown(SessionId),
    /// The session's connection ended or broke.
    Closed(SessionId),
    /// An [`Action::Write`] finished: `true` if every frame went out.
    Wrote(SessionId, bool),
    /// The executor's job ended: its result, or `None` if it panicked.
    Done(Option<Box<Entry>>),
    /// The session's read timed out: a heartbeat may be due.
    Tick(SessionId),
}

/// What the driver must do.
#[cfg_attr(test, derive(Clone))]
pub(crate) enum Action {
    /// Admit the accepted connection as this session.
    Serve(SessionId),
    /// Refuse the accepted connection: the service is full or draining.
    Refuse,
    /// The drain is over: the accept loop returns.
    Stop,
    /// Write these frames to the session, then post [`Event::Wrote`]. A
    /// session never has two writes outstanding.
    Write(SessionId, Vec<Message>),
    /// Shut the session's socket down; later events for it are ignored.
    /// Carries the final stats row of a registered client.
    Hangup(SessionId, Option<ClientStats>),
    /// Hand this job to the executor, which is idle.
    Run(Box<Work>),
    /// Raise the running job's cancel flag.
    Cancel,
    /// The drain just ended: wake the accept loop.
    Wake,
}

/// A submitted task's state. `Queued → Running → Done` on the happy path;
/// a `Cancel` turns a queued job `Done` directly.
#[cfg_attr(test, derive(Clone))]
enum JobState {
    Queued(Box<Work>),
    /// Running; `true` once the client sent a `Cancel` for it, so that
    /// an incomplete result is answered with the cancel acknowledgement.
    Running(bool),
    Done(Box<Message>),
}

#[cfg_attr(test, derive(Clone))]
struct Job {
    /// The heartbeat cadence the task frame asked for.
    interval: Duration,
    state: JobState,
}

/// One admitted connection.
#[derive(Default)]
#[cfg_attr(test, derive(Clone))]
struct Session {
    /// The client's accounting row, once its hello registered it.
    client: Option<ClientStats>,
    /// Submitted jobs not yet answered, in submission order.
    pending: VecDeque<Job>,
    /// Frames decided while a write was outstanding; they go next.
    outgoing: Vec<Message>,
    writing: bool,
    /// When a frame last left while work was in flight (re-armed when
    /// the first task of a burst arrives).
    last_beat: Duration,
}

impl Session {
    fn queued(&self) -> usize {
        let queued = |j: &&Job| matches!(j.state, JobState::Queued(_));
        self.pending.iter().filter(queued).count()
    }
}

/// The service's state; see the module docs.
#[derive(Default)]
#[cfg_attr(test, derive(Clone))]
pub(crate) struct ServiceCore {
    max_clients: usize,
    /// The instant of the event being handled, and the actions decided.
    now: Duration,
    out: Vec<Action>,
    next_id: SessionId,
    /// Every admitted session, in admission order: the list the
    /// scheduler indexes (one not yet registered is never backlogged).
    sessions: BTreeMap<SessionId, Session>,
    sched: FairScheduler,
    /// The session whose job the executor holds (ids are never reused, so
    /// one that has closed since matches nothing).
    running: Option<SessionId>,
    /// A `Shutdown` arrived: refuse new clients, stop once the last
    /// session closes.
    draining: bool,
    /// The refusals, the last [`CLOSED_ROWS`] closed sessions' final rows
    /// (oldest first) and the retired totals: the stats minus the open
    /// sessions.
    history: ServiceStats,
}

impl ServiceCore {
    pub(crate) fn new(max_clients: usize) -> Self {
        ServiceCore {
            max_clients: max_clients.max(1),
            ..ServiceCore::default()
        }
    }

    /// Feeds one event to the core at `now` (time since the service
    /// started) and returns the actions it decided on.
    pub(crate) fn on_event(&mut self, now: Duration, event: Event) -> Vec<Action> {
        self.now = now;
        match event {
            Event::Accepted => self.accept(),
            Event::Hello(id, label, priority, accept) => self.hello(id, label, priority, accept),
            Event::Task(id, task, program) => self.enqueue(id, *task, program),
            Event::Cancel(id) => self.cancel(id),
            Event::Shutdown(id) => self.close(id, true),
            Event::Closed(id) | Event::Wrote(id, false) => self.close(id, false),
            Event::Wrote(id, true) => {
                self.sessions.entry(id).and_modify(|s| s.writing = false);
                self.flush(id);
            }
            Event::Done(outcome) => self.done(outcome),
            Event::Tick(id) => self.beat(id),
        }
        self.dispatch();
        std::mem::take(&mut self.out)
    }

    /// When the session next owes a heartbeat: the tightest cadence any
    /// in-flight task asked for (running or waiting its turn) after the
    /// last frame left. `None` with nothing in flight — an idle session
    /// owes no heartbeats — or once the session has closed.
    pub(crate) fn next_deadline(&self, id: SessionId) -> Option<Duration> {
        let s = self.sessions.get(&id)?;
        Some(s.last_beat + s.pending.iter().map(|j| j.interval).min()?)
    }

    pub(crate) fn stats(&self) -> ServiceStats {
        let live = self.sessions.values().filter_map(|s| {
            Some(ClientStats {
                queued: s.queued(),
                ..s.client.clone()?
            })
        });
        let mut stats = self.history.clone();
        stats.active_clients = self.sessions.len();
        stats.clients = live.chain(stats.clients).collect();
        stats
    }

    /// The `max_clients` gate. A draining service refuses everyone, and
    /// once drained tells the accept loop to stop.
    fn accept(&mut self) {
        let verdict = if self.draining && self.sessions.is_empty() {
            Action::Stop
        } else if self.draining || self.sessions.len() >= self.max_clients {
            self.history.refused_clients += 1;
            Action::Refuse
        } else {
            self.next_id += 1; // ids start at 1
            let id = self.next_id;
            self.sessions.insert(id, Session::default());
            Action::Serve(id)
        };
        self.out.push(verdict);
    }

    fn hello(&mut self, id: SessionId, label: String, priority: u64, accept: bool) {
        if let Some(s) = self.sessions.get_mut(&id) {
            s.client = Some(ClientStats {
                client_id: id,
                label,
                priority: priority.max(1),
                active: true,
                queued: 0,
                completed: 0,
            });
            s.outgoing
                .extend(accept.then_some(Message::ClientAccept { client_id: id }));
        }
        self.flush(id);
    }

    /// Books one task: it joins the session's jobs (so its reply has a
    /// place in the order) as a queued job, or — refused for an unknown
    /// program or a digest mismatch — already answered.
    fn enqueue(&mut self, id: SessionId, task: TaskFrame, program: Option<Arc<ResolvedProgram>>) {
        let interval = task.heartbeat_interval.max(MIN_HEARTBEAT_INTERVAL);
        let state = match program {
            Some(resolved) if resolved.digest == task.program_digest => {
                JobState::Queued(Box::new(Work { resolved, task }))
            }
            None => refused(format!("unknown program id `{}`", task.program_id)),
            Some(_) => refused(format!(
                "program digest mismatch for `{}`: this worker has a different revision",
                task.program_id
            )),
        };
        if let Some(s) = self.sessions.get_mut(&id) {
            if s.pending.is_empty() {
                // The heartbeat cadence counts from the submission, not
                // from whenever this session last had something to say.
                s.last_beat = self.now;
            }
            s.pending.push_back(Job { interval, state });
        }
        self.flush(id);
    }

    /// A `Cancel` hits the oldest incomplete job: a queued one is
    /// answered (and unscheduled) at once, a running one is asked to stop
    /// at the next point boundary.
    fn cancel(&mut self, id: SessionId) {
        let Some(s) = self.sessions.get_mut(&id) else {
            return;
        };
        let mut jobs = s.pending.iter_mut();
        let job = jobs.find(|j| !matches!(j.state, JobState::Done(_)));
        match job.map(|j| &mut j.state) {
            Some(state @ JobState::Queued(_)) => *state = refused(CANCELLED.into()),
            Some(JobState::Running(cancelled)) => {
                *cancelled = true;
                self.out.push(Action::Cancel);
            }
            _ => {}
        }
        self.flush(id);
    }

    /// Ends a session (`drain`: on its `Shutdown` frame, which also drains
    /// the service): its queued jobs are dropped unanswered, its running
    /// job is flagged, and it leaves the scheduler's rotation; a client's
    /// final row joins the closed tail of the stats, the oldest row there
    /// folding into the retired totals.
    fn close(&mut self, id: SessionId, drain: bool) {
        self.draining |= drain;
        let Some(index) = self.sessions.keys().position(|&open| open == id) else {
            return;
        };
        let s = self.sessions.remove(&id).expect("an open session");
        self.sched.remove(index);
        if self.running == Some(id) {
            self.out.push(Action::Cancel);
        }
        let row = s.client.map(|row| {
            let row = ClientStats {
                active: false,
                ..row
            };
            let history = &mut self.history;
            history.clients.push(row.clone());
            if history.clients.len() > CLOSED_ROWS {
                history.retired_clients += 1;
                history.retired_completed += history.clients.remove(0).completed;
            }
            row
        });
        self.out.push(Action::Hangup(id, row));
        if self.draining && self.sessions.is_empty() {
            self.out.push(Action::Wake);
        }
    }

    /// Books the executor's result on its job: a `TaskDone`, the cancel
    /// acknowledgement for an incomplete result the client cancelled, or
    /// an `Error` for a panicked search.
    fn done(&mut self, outcome: Option<Box<Entry>>) {
        let id = self.running.take();
        let Some(s) = id.and_then(|id| self.sessions.get_mut(&id)) else {
            return;
        };
        let mut jobs = s.pending.iter_mut();
        let Some(job) = jobs.find(|j| matches!(j.state, JobState::Running(_))) else {
            return;
        };
        let cancelled = matches!(job.state, JobState::Running(true));
        job.state = match outcome {
            None => refused(PANICKED.into()),
            Some(entry) if cancelled && !entry.0.completed => refused(CANCELLED.into()),
            Some(entry) => {
                let (result, findings) = *entry;
                s.client.iter_mut().for_each(|row| row.completed += 1);
                JobState::Done(Box::new(Message::TaskDone { result, findings }))
            }
        };
        self.flush(id.expect("a running session"));
    }

    /// Sends a heartbeat if one is owed now — unless a write is already
    /// going out, which keeps the session audible by itself.
    fn beat(&mut self, id: SessionId) {
        if self.next_deadline(id).is_some_and(|at| at <= self.now) {
            let s = self.sessions.get_mut(&id).expect("a deadline means open");
            s.last_beat = self.now;
            if !s.writing {
                s.outgoing.push(Message::Heartbeat);
                self.flush(id);
            }
        }
    }

    /// Queues every reply that is ready, strictly in submission order (a
    /// coordinator driving one task at a time sees exactly the
    /// single-tenant conversation), stopping at the first job still queued
    /// or running; then starts a write unless one is outstanding.
    fn flush(&mut self, id: SessionId) {
        let Some(s) = self.sessions.get_mut(&id) else {
            return;
        };
        let pending = s.pending.iter();
        let ready = pending.take_while(|j| matches!(j.state, JobState::Done(_)));
        for job in s.pending.drain(..ready.count()) {
            if let JobState::Done(reply) = job.state {
                s.outgoing.push(*reply);
            }
        }
        if !s.writing && !s.outgoing.is_empty() {
            (s.writing, s.last_beat) = (true, self.now);
            let frames = std::mem::take(&mut s.outgoing);
            self.out.push(Action::Write(id, frames));
        }
    }

    /// Hands an idle executor the next job: the [`FairScheduler`]'s pick
    /// among the backlogged clients, oldest queued task first.
    fn dispatch(&mut self) {
        if self.running.is_some() {
            return;
        }
        let views: Vec<(u64, bool)> = (self.sessions.values())
            .map(|s| (s.client.as_ref().map_or(1, |c| c.priority), s.queued() > 0))
            .collect();
        let Some(index) = self.sched.pick(&views) else {
            return;
        };
        let (&id, s) = self.sessions.iter_mut().nth(index).expect("picked");
        let mut jobs = s.pending.iter_mut();
        let job = jobs.find(|j| matches!(j.state, JobState::Queued(_)));
        let job = job.expect("a backlogged client has a queued job");
        if let JobState::Queued(work) = std::mem::replace(&mut job.state, JobState::Running(false))
        {
            self.out.push(Action::Run(work));
            self.running = Some(id);
        }
    }
}

/// A job already answered with this `Error` frame.
fn refused(why: String) -> JobState {
    JobState::Done(Box::new(Message::Error(why)))
}

/// The driver's state behind its one lock.
#[derive(Default)]
struct Shared {
    core: ServiceCore,
    /// Each registered session's write half.
    writers: HashMap<SessionId, Arc<TcpStream>>,
    /// Every program id resolved so far. Only successes are kept, so the
    /// map is bounded by what the resolver knows, not by what clients ask.
    programs: HashMap<String, Arc<ResolvedProgram>>,
    /// The first write failure that ended a session (what a joined
    /// worker returns).
    write_error: Option<WireError>,
}

/// The I/O half of the service; see the module docs.
struct Service<'a> {
    resolve: &'a ProgramResolver<'a>,
    started: Instant,
    shared: Mutex<Shared>,
    /// The running job's cancel flag. Raised and cleared only under the
    /// lock, so a raise the core decided for one job never lands on the
    /// next.
    cancel: AtomicBool,
    /// Hands the executor its next job; `None` stops it.
    jobs: Sender<Option<Box<Work>>>,
    /// Where the end of a drain wakes the accept loop (`None`: there is
    /// no listener).
    wake: Option<SocketAddr>,
}

impl<'a> Service<'a> {
    fn new(
        resolve: &'a ProgramResolver<'a>,
        max_clients: usize,
        wake: Option<SocketAddr>,
    ) -> (Self, Receiver<Option<Box<Work>>>) {
        let (jobs, queue) = mpsc::channel();
        let shared = Shared {
            core: ServiceCore::new(max_clients),
            ..Shared::default()
        };
        let service = Service {
            resolve,
            started: Instant::now(),
            shared: Mutex::new(shared),
            cancel: AtomicBool::default(),
            jobs,
            wake,
        };
        (service, queue)
    }

    fn post(&self, event: Event) -> Vec<Action> {
        self.perform(lock_recovering(&self.shared), event)
    }

    /// Feeds `event` to the core and carries out its decisions: flags,
    /// hang-ups and job hand-offs under the lock, the drain's wake-up, log
    /// lines and writes after it is released, each write's outcome posted
    /// back in turn. Returns the admission verdicts, which only the
    /// accept loop can act on.
    fn perform<'s>(&'s self, mut shared: MutexGuard<'s, Shared>, event: Event) -> Vec<Action> {
        let mut actions = shared.core.on_event(self.started.elapsed(), event);
        let (mut verdicts, mut gone) = (Vec::new(), Vec::new());
        loop {
            let (mut writes, mut wake) = (Vec::new(), None);
            for action in actions {
                match action {
                    Action::Write(id, frames) => {
                        writes.push((id, shared.writers.get(&id).cloned(), frames));
                    }
                    Action::Hangup(id, row) => {
                        let writer = shared.writers.remove(&id);
                        drop(writer.map(|w| w.shutdown(Shutdown::Both)));
                        gone.extend(row);
                    }
                    Action::Cancel => self.cancel.store(true, Ordering::SeqCst),
                    Action::Run(work) => drop(self.jobs.send(Some(work))),
                    Action::Wake => wake = self.wake,
                    verdict => verdicts.push(verdict),
                }
            }
            drop(shared);
            // The accept loop takes the lock once it is woken: connect
            // only after letting go of it.
            if let Some(Err(e)) = wake.map(TcpStream::connect) {
                eprintln!("sympl-wire service: cannot wake the accept loop: {e}");
            }
            for row in gone.drain(..) {
                let (id, label, done) = (row.client_id, row.label, row.completed);
                eprintln!("sympl-wire service: client #{id} `{label}` disconnected ({done} task(s) completed)");
            }
            if writes.is_empty() {
                return verdicts;
            }
            let mut wrote = Vec::new();
            for (id, writer, frames) in writes {
                let writer = writer.ok_or(WireError::Disconnected);
                let sent =
                    writer.and_then(|w| frames.iter().try_for_each(|f| send_message(&mut &*w, f)));
                if let Err(e) = &sent {
                    eprintln!("sympl-wire service: client #{id} dropped: write failed: {e}");
                }
                wrote.push((id, sent));
            }
            shared = lock_recovering(&self.shared);
            let now = self.started.elapsed();
            actions = Vec::new();
            for (id, sent) in wrote {
                // A write to a session already hung up fails because of it.
                let open = shared.writers.contains_key(&id);
                actions.extend(shared.core.on_event(now, Event::Wrote(id, sent.is_ok())));
                shared.write_error = shared.write_error.take().or(sent.err().filter(|_| open));
            }
        }
    }

    /// The executor thread: runs each job the core hands it through the
    /// same engine path a single-tenant worker uses, then reports its end
    /// (and writes the replies that releases), until told to stop.
    fn executor(&self, jobs: &Receiver<Option<Box<Work>>>) {
        while let Ok(Some(work)) = jobs.recv() {
            let Work { resolved, task } = &*work;
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
                    &self.cancel,
                    None,
                )
            }));
            let shared = lock_recovering(&self.shared);
            self.cancel.store(false, Ordering::SeqCst);
            self.perform(shared, Event::Done(outcome.ok().map(Box::new)));
        }
    }

    /// The status thread: prints the status line every `interval` until
    /// the service stops and drops the other end of `stopped`.
    fn status_loop(&self, interval: Duration, stopped: &Receiver<()>) {
        let interval = interval.max(Duration::from_millis(50));
        while stopped.recv_timeout(interval) == Err(RecvTimeoutError::Timeout) {
            let stats = lock_recovering(&self.shared).core.stats();
            eprintln!("{}", stats.status_line());
        }
    }

    /// One accepted connection, end to end. The first frame must be a
    /// `ClientHello`; a bare `Shutdown` is honoured as a drain request —
    /// the one-frame conversation fleet teardown scripts use.
    fn session(&self, id: SessionId, stream: TcpStream, peer: SocketAddr) {
        let served = Conn::establish(stream).and_then(|mut conn| {
            conn.set_read_timeout(Some(Duration::from_secs(10)))?;
            match conn.recv()? {
                Message::ClientHello { client, priority } => {
                    let origin = format!("from {peer}");
                    self.run_session(&mut conn, id, client, priority, &origin, true)
                }
                Message::Shutdown => {
                    self.post(Event::Shutdown(id));
                    Ok(())
                }
                _ => {
                    let refusal =
                        Message::Error("expected a ClientHello as the first frame".into());
                    conn.send(&refusal)
                        .and(Err(WireError::UnexpectedMessage("client hello")))
                }
            }
        });
        if let Err(e) = served {
            eprintln!("sympl-wire service: connection from {peer} failed: {e}");
        }
        self.post(Event::Closed(id));
    }

    /// An admitted session, whichever way it was admitted: registers the
    /// client (answering a listened client's hello with its
    /// `ClientAccept`), then posts every frame until `Shutdown` or
    /// hang-up. The read blocks until a frame arrives or the session's
    /// heartbeat deadline passes; replies are not its business.
    fn run_session(
        &self,
        conn: &mut Conn,
        id: SessionId,
        client: String,
        priority: u64,
        origin: &str,
        accept: bool,
    ) -> Result<(), WireError> {
        let writer = conn.clone_writer()?;
        writer.set_write_timeout(Some(WRITE_STALL))?;
        eprintln!(
            "sympl-wire service: client #{id} `{client}` (priority {}) connected {origin}",
            priority.max(1)
        );
        let mut shared = lock_recovering(&self.shared);
        shared.writers.insert(id, Arc::new(writer));
        self.perform(shared, Event::Hello(id, client, priority, accept));
        loop {
            let deadline = lock_recovering(&self.shared).core.next_deadline(id);
            let wait = deadline.map(|at| at.saturating_sub(self.started.elapsed()));
            let event = match conn.poll_recv(wait, Duration::from_secs(5)) {
                Ok(None) => Event::Tick(id),
                Ok(Some(Message::Task(task))) => {
                    let program = self.resolve_once(&task.program_id);
                    Event::Task(id, Box::new(task), program)
                }
                Ok(Some(Message::Cancel)) => Event::Cancel(id),
                Ok(Some(Message::Shutdown)) => {
                    self.post(Event::Shutdown(id));
                    return Ok(());
                }
                Ok(Some(_)) => return Err(WireError::UnexpectedMessage("task or control frame")),
                Err(WireError::Disconnected) => return Ok(()),
                Err(e) => return Err(e),
            };
            self.post(event);
        }
    }

    /// Resolves `id` through the daemon's cache: the resolver, the decode
    /// and the digest run once per id, not once per task frame (two
    /// sessions racing on a new id may both resolve it). A cached entry
    /// can at worst be refused — every task's own digest is still
    /// compared against it.
    fn resolve_once(&self, id: &str) -> Option<Arc<ResolvedProgram>> {
        if let Some(hit) = lock_recovering(&self.shared).programs.get(id) {
            return Some(Arc::clone(hit));
        }
        let (program, detectors) = (self.resolve)(id)?;
        let _ = program.decoded();
        let resolved = Arc::new(ResolvedProgram {
            digest: program_digest(&program),
            program,
            detectors,
        });
        let mut shared = lock_recovering(&self.shared);
        shared.programs.insert(id.to_owned(), Arc::clone(&resolved));
        Some(resolved)
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
        let wake = wake_addr(&self.listener).map_err(WireError::Io)?;
        let (service, jobs) = Service::new(resolve, opts.max_clients, Some(wake));
        let (stop, stopped) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let service = &service;
            scope.spawn(move || service.executor(&jobs));
            if let Some(interval) = opts.status_interval {
                scope.spawn(move || service.status_loop(interval, &stopped));
            }
            let accepted = loop {
                let (stream, peer) = match self.listener.accept() {
                    Ok(accepted) => accepted,
                    Err(e) => break Err(WireError::Io(e)),
                };
                match service.post(Event::Accepted).pop() {
                    Some(Action::Serve(id)) => {
                        drop(scope.spawn(move || service.session(id, stream, peer)))
                    }
                    Some(Action::Refuse) => {
                        // The accept gate: refuse loudly with a typed Error
                        // frame instead of hanging the client.
                        let max = opts.max_clients.max(1);
                        let full = format!("at capacity ({max}/{max} clients)");
                        eprintln!("sympl-wire service: refusing client from {peer}: {full}");
                        let refusal = Message::Error(format!("service {full}; try again later"));
                        scope.spawn(move || Conn::establish(stream)?.send(&refusal));
                    }
                    // The last session's wake-up call (or a client too
                    // late to be served): nothing left to wait for.
                    _ => break Ok(()),
                }
            };
            if accepted.is_err() {
                // The listener died under live sessions: hang up on them,
                // or the scope would wait for every client to leave on
                // its own before the error could be returned.
                for writer in lock_recovering(&service.shared).writers.values() {
                    let _ = writer.shutdown(Shutdown::Both);
                }
            }
            drop(stop);
            let _ = service.jobs.send(None);
            accepted
        })?;
        let shared = lock_recovering(&service.shared);
        Ok(shared.core.stats())
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
    let (service, jobs) = Service::new(resolve, 1, None);
    // Pre-warm: resolve, decode and digest the campaign's program before
    // the first task frame arrives. Every task frame still carries the
    // digest it is checked against.
    let _ = service.resolve_once(&program_id);
    std::thread::scope(|scope| {
        let service = &service;
        scope.spawn(move || service.executor(&jobs));
        let Some(Action::Serve(id)) = service.post(Event::Accepted).pop() else {
            unreachable!("a fresh service admits its first session");
        };
        let (label, origin) = (worker_label.to_owned(), format!("to coordinator {addr}"));
        let served = service.run_session(&mut conn, id, label, 1, &origin, false);
        service.post(Event::Closed(id));
        let _ = service.jobs.send(None);
        let failed = lock_recovering(&service.shared).write_error.take();
        failed.map_or(served, Err)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::{
        deterministic_config, factorial, factorial_job, in_process, resolver, slow_program,
    };
    use crate::transport::{
        run_distributed, run_distributed_with, CampaignJob, DistOptions, LISTENING_PREFIX,
    };
    use sympl_check::{Predicate, SearchLimits};
    use sympl_inject::{Campaign, ErrorClass};
    use sympl_machine::ExecLimits;

    type Daemon = std::thread::JoinHandle<Result<ServiceStats, WireError>>;

    fn start_service(opts: ServeOptions) -> (String, Daemon) {
        let server = WorkerServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.serve_with(&resolver, &opts));
        (addr, handle)
    }

    /// Joins a thread that returns a result, failing unless it returns
    /// `Ok` within `limit`.
    fn join_within<T: Send + 'static>(
        handle: std::thread::JoinHandle<Result<T, WireError>>,
        limit: Duration,
        what: &str,
    ) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || tx.send(handle.join()));
        let joined = rx.recv_timeout(limit).expect(what);
        waiter.join().unwrap().unwrap();
        joined.unwrap().unwrap()
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

    /// The slow program's whole campaign as one task at a 50 ms cadence.
    /// Its first point has millions of states and each point is cut at
    /// 100 ms, so on any host it runs for hundreds of milliseconds —
    /// unless a `max_findings` of 0 ends it before its first point.
    fn slow_task(program_id: &str, max_findings: usize) -> Message {
        let slow = slow_program();
        let whole = sympl_cluster::shard_specs(&Campaign::new(&slow, ErrorClass::RegisterFile), 1);
        Message::Task(TaskFrame {
            program_digest: program_digest(&slow),
            input: vec![60],
            spec: whole[0].clone(),
            search: SearchLimits {
                exec: ExecLimits::with_max_steps(1_000_000),
                max_states: usize::MAX,
                max_time: Some(Duration::from_millis(100)),
                ..SearchLimits::default()
            },
            max_findings,
            ..*frame(0, program_id, 50)
        })
    }

    /// A task frame with no points; `id` names it.
    pub(super) fn frame(id: usize, program_id: &str, heartbeat_ms: u64) -> Box<TaskFrame> {
        Box::new(TaskFrame {
            program_id: program_id.into(),
            program_digest: program_digest(&factorial()),
            input: vec![4],
            spec: sympl_cluster::TaskSpec {
                id,
                points: Vec::new(),
            },
            predicate: Predicate::OutputContainsErr,
            search: SearchLimits::default(),
            task_budget: None,
            max_findings: 0,
            point_workers: 1,
            heartbeat_interval: Duration::from_millis(heartbeat_ms),
        })
    }

    /// The executor's end of task `id`, whose search completed or
    /// (`false`) stopped early, as a cancelled one does.
    pub(super) fn outcome(id: usize, completed: bool) -> Event {
        Event::Done(Some(Box::new(entry(id, completed))))
    }

    /// The result and findings of task `id`, which has no points.
    pub(super) fn entry(id: usize, completed: bool) -> Entry {
        let (mut result, findings) = sympl_cluster::run_task_spec(
            &factorial(),
            &DetectorSet::new(),
            &[4],
            &sympl_cluster::TaskSpec {
                id,
                points: Vec::new(),
            },
            &Predicate::OutputContainsErr,
            &deterministic_config(1),
        );
        result.completed = completed;
        (result, findings)
    }

    /// Each action as a short string: `write 1: done 0, beat`, `run 3`.
    pub(super) fn show(actions: &[Action]) -> Vec<String> {
        let frame = |m: &Message| match m {
            Message::TaskDone { result, .. } => format!("done {}", result.id),
            Message::Error(why) => why.split(' ').take(2).collect::<Vec<_>>().join(" "),
            Message::Heartbeat => "beat".into(),
            Message::ClientAccept { .. } => "accept".into(),
            other => format!("{other:?}"),
        };
        let show = |a: &Action| match a {
            Action::Serve(id) => format!("serve {id}"),
            Action::Refuse | Action::Stop | Action::Wake => "verdict or wake".into(),
            Action::Write(id, frames) => {
                let frames: Vec<String> = frames.iter().map(frame).collect();
                format!("write {id}: {}", frames.join(", "))
            }
            Action::Hangup(id, _) => format!("hangup {id}"),
            Action::Run(work) => format!("run {}", work.task.spec.id),
            Action::Cancel => "cancel".into(),
        };
        actions.iter().map(show).collect()
    }

    /// The factorial program as the daemon resolves it.
    pub(super) fn resolved_factorial() -> Arc<ResolvedProgram> {
        let program = factorial();
        let digest = program_digest(&program);
        let detectors = DetectorSet::new();
        Arc::new(ResolvedProgram {
            program,
            detectors,
            digest,
        })
    }

    /// A `ServiceCore` on a virtual clock whose writes complete when the
    /// test says so.
    struct Clocked(ServiceCore, Arc<ResolvedProgram>);

    impl Clocked {
        fn new() -> Self {
            Clocked(ServiceCore::new(16), resolved_factorial())
        }

        fn at(&mut self, ms: u64, event: Event) -> Vec<String> {
            show(&self.0.on_event(Duration::from_millis(ms), event))
        }

        /// Admits and registers a client at `ms`; its accept is written.
        fn open(&mut self, ms: u64, label: &str) -> SessionId {
            let id = self.0.next_id + 1;
            assert_eq!(self.at(ms, Event::Accepted), [format!("serve {id}")]);
            let hello = Event::Hello(id, label.into(), 1, true);
            assert_eq!(self.at(ms, hello), [format!("write {id}: accept")]);
            assert!(self.at(ms, Event::Wrote(id, true)).is_empty());
            id
        }

        /// Ends each job the moment it starts, from task `first` on, until
        /// the executor idles; returns the task ids in the order they ran.
        fn run_all(&mut self, first: usize) -> Vec<usize> {
            let mut ran = vec![first];
            while let Some(next) = (self.at(100, outcome(ran[ran.len() - 1], true)).iter())
                .find_map(|action| action.strip_prefix("run ")?.parse().ok())
            {
                ran.push(next);
            }
            ran
        }

        /// Task `id` on `session`.
        fn task(&self, session: SessionId, id: usize, heartbeat_ms: u64) -> Event {
            let task = frame(id, "factorial", heartbeat_ms);
            Event::Task(session, task, Some(Arc::clone(&self.1)))
        }
    }

    #[test]
    fn replies_leave_on_completion_and_heartbeats_keep_their_own_cadence() {
        let mut c = Clocked::new();
        let s = c.open(0, "latency");
        // A quick task at a 10 s cadence: its reply is written by the
        // event that completes it, not at anything cadence-shaped.
        assert_eq!(c.at(1, c.task(s, 0, 10_000)), ["run 0"]);
        assert_eq!(c.at(2, outcome(0, true)), ["write 1: done 0"]);
        assert!(c.at(2, Event::Wrote(s, true)).is_empty());
        assert_eq!(c.0.next_deadline(s), None, "an idle session owes none");
        // A long task at 50 ms: the first beat is due 50 ms after the
        // submission, the next 50 ms after the last frame left.
        assert_eq!(c.at(10, c.task(s, 1, 50)), ["run 1"]);
        assert!(c.at(59, Event::Tick(s)).is_empty(), "not due yet");
        assert_eq!(c.at(60, Event::Tick(s)), ["write 1: beat"]);
        // A beat still going out keeps the session audible: a tick then
        // sends nothing and re-arms the cadence.
        assert!(c.at(110, Event::Tick(s)).is_empty());
        assert!(c.at(112, Event::Wrote(s, true)).is_empty());
        assert_eq!(c.0.next_deadline(s), Some(Duration::from_millis(160)));
        // A pipelined task with a tighter cadence tightens the deadline;
        // another session keeps its own.
        assert!(c.at(120, c.task(s, 2, 20)).is_empty());
        assert_eq!(c.0.next_deadline(s), Some(Duration::from_millis(130)));
        let other = c.open(120, "other");
        assert!(c.at(121, c.task(other, 3, 1_000)).is_empty());
        assert_eq!(c.0.next_deadline(other), Some(Duration::from_millis(1_121)));
        assert_eq!(c.at(130, Event::Tick(s)), ["write 1: beat"]);
        assert!(c.at(131, Event::Wrote(s, true)).is_empty());
        assert_eq!(c.at(140, outcome(1, true)), ["write 1: done 1", "run 2"]);
    }

    #[test]
    fn cancel_hits_the_oldest_incomplete_task() {
        let mut c = Clocked::new();
        let s = c.open(0, "cancel");
        assert_eq!(c.at(1, c.task(s, 0, 10_000)), ["run 0"]);
        assert!(c.at(1, c.task(s, 1, 10_000)).is_empty());
        // The running task is the oldest incomplete one: its flag goes up,
        // and its early end is answered with the acknowledgement.
        assert_eq!(c.at(2, Event::Cancel(s)), ["cancel"]);
        let acknowledged = ["write 1: task cancelled", "run 1"];
        assert_eq!(c.at(3, outcome(0, false)), acknowledged);
        assert!(c.at(3, Event::Wrote(s, true)).is_empty());
        // A second Cancel hits task 1, which completes anyway: a complete
        // result is still a result.
        assert_eq!(c.at(4, Event::Cancel(s)), ["cancel"]);
        assert_eq!(c.at(5, outcome(1, true)), ["write 1: done 1"]);
        assert!(c.at(5, Event::Wrote(s, true)).is_empty());
        // A queued task is answered at once and never runs.
        let busy = c.open(6, "busy");
        assert_eq!(c.at(6, c.task(busy, 2, 10_000)), ["run 2"]);
        assert!(c.at(7, c.task(s, 3, 10_000)).is_empty());
        assert_eq!(c.at(8, Event::Cancel(s)), ["write 1: task cancelled"]);
        assert_eq!(c.at(9, outcome(2, true)), ["write 2: done 2"]);
        assert_eq!(c.0.stats().clients[0].completed, 1);
    }

    #[test]
    fn pipelined_replies_keep_submission_order_around_a_refusal() {
        // A long task, two refused at enqueue (an unknown program id and
        // a digest mismatch, both answered long before the first task's
        // reply) and a quick one: the replies leave in that order.
        let mut c = Clocked::new();
        let s = c.open(0, "pipeliner");
        assert_eq!(c.at(1, c.task(s, 0, 10_000)), ["run 0"]);
        let unknown = Event::Task(s, frame(1, "nope", 10_000), None);
        assert!(c.at(1, unknown).is_empty());
        let mut skewed = c.task(s, 2, 10_000);
        if let Event::Task(_, task, _) = &mut skewed {
            task.program_digest ^= 1;
        }
        assert!(c.at(1, skewed).is_empty());
        assert!(c.at(1, c.task(s, 3, 10_000)).is_empty());
        let in_order = ["write 1: done 0, unknown program, program digest", "run 3"];
        assert_eq!(c.at(50, outcome(0, true)), in_order);
        // The quick task's reply waits for that write to finish.
        assert!(c.at(51, outcome(3, true)).is_empty());
        assert_eq!(c.at(52, Event::Wrote(s, true)), ["write 1: done 3"]);
    }

    #[test]
    fn closed_sessions_age_out_of_the_stats() {
        let mut c = Clocked::new();
        let sessions = CLOSED_ROWS + 4;
        for i in 0..sessions {
            let s = c.open(0, &format!("visitor-{i}"));
            assert_eq!(c.at(0, c.task(s, i, 10_000)), [format!("run {i}")]);
            c.at(0, outcome(i, true));
            c.at(0, Event::Wrote(s, true));
            assert_eq!(c.at(0, Event::Closed(s)), [format!("hangup {s}")]);
        }
        let stats = c.0.stats();
        assert_eq!(stats.clients.len(), CLOSED_ROWS, "a bounded tail");
        assert!(stats.clients.iter().all(|c| !c.active && c.completed == 1));
        assert_eq!((stats.retired_clients, stats.retired_completed), (4, 4));
        // The most recent sessions are the ones still itemised.
        let last = format!("visitor-{}", sessions - 1);
        assert!(stats.clients.iter().any(|c| c.label == last));
        assert!(!stats.clients.iter().any(|c| c.label == "visitor-0"));
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
        let row = |client_id, priority, completed| ClientStats {
            client_id,
            label: format!("client-{client_id}"),
            priority,
            active: true,
            queued: 0,
            completed,
        };
        let stats = ServiceStats {
            active_clients: 2,
            clients: vec![row(1, 2, 20), row(2, 1, 11)],
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
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::WrongOutput {
            expected: vec![120],
        };
        // (label, tasks, priority) of each tenant.
        let tenants = [("campaign-a", 4, 1), ("campaign-b", 2, 2)];
        let (addr, handle) = start_service(ServeOptions::default());
        std::thread::scope(|scope| {
            for (label, tasks, client_priority) in tenants {
                let (program, campaign, predicate) = (&program, &campaign, &predicate);
                let addr = std::slice::from_ref(&addr);
                scope.spawn(move || {
                    let config = deterministic_config(tasks);
                    let job = CampaignJob {
                        input: &[5],
                        ..factorial_job(program, campaign, predicate, &config)
                    };
                    let opts = DistOptions {
                        client_label: Some(label.into()),
                        client_priority,
                        ..DistOptions::default()
                    };
                    let report = run_distributed_with(&job, addr, &opts).unwrap();
                    let local = in_process(program, &[5], campaign, predicate, &config);
                    assert_eq!(report.outcome_digest(), local.outcome_digest(), "{label}");
                });
            }
        });

        // Tear the service down and check its books.
        crate::transport::shutdown_worker(&addr).unwrap();
        let stats = handle.join().unwrap().unwrap();
        assert_eq!(stats.refused_clients, 0);
        for (label, tasks, priority) in tenants {
            let row = stats.clients.iter().find(|c| c.label == label).unwrap();
            assert_eq!((row.completed, row.priority), (tasks, priority), "{label}");
        }
    }

    #[test]
    fn small_campaign_completes_while_a_large_one_is_in_flight() {
        // Starvation regression: a big client's eight tasks are queued,
        // one already running, when a small client submits two. Round-
        // robin runs both within the next four picks, not after the big
        // client's tail.
        let mut c = Clocked::new();
        let big = c.open(0, "big");
        for i in 0..8 {
            c.at(1, c.task(big, i, 10_000));
        }
        let small = c.open(2, "small");
        for i in 8..10 {
            c.at(3, c.task(small, i, 10_000));
        }
        let ran = c.run_all(0);
        assert_eq!(ran.len(), 10);
        let last_small = ran.iter().rposition(|&t| t >= 8);
        assert!(last_small <= Some(4), "the small client starved: {ran:?}");
    }

    #[test]
    fn pipelined_clients_interleave_within_the_fairness_bound() {
        // Two equal-priority clients pipeline 6 and 2 tasks: while both
        // are backlogged the picks alternate (the sharp per-round bound is
        // pinned by the FairScheduler unit and property tests and the
        // explorer), so the short client is served second and fourth.
        let mut c = Clocked::new();
        let (long, short) = (c.open(0, "long"), c.open(0, "short"));
        for i in 0..6 {
            c.at(1, c.task(long, i, 10_000));
        }
        for i in 6..8 {
            c.at(1, c.task(short, i, 10_000));
        }
        assert_eq!(c.run_all(0), [0, 6, 1, 7, 2, 3, 4, 5]);
        let stats = c.0.stats();
        let completed: usize = stats.clients.iter().map(|c| c.completed).sum();
        assert_eq!(completed, 8, "every pipelined task was answered");
        assert!((stats.fairness_ratio() - 3.0).abs() < f64::EPSILON);
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
    fn a_client_that_stops_reading_is_dropped_at_the_write_timeout() {
        let (addr, handle) = start_service(ServeOptions::default());

        // The mute client: one real task (its reply is the executor's to
        // write), then refusals that each echo a 1 MiB program id — far
        // more reply bytes than loopback's socket buffers hold — and not a
        // single read.
        let mut mute = open_session(&addr, "mute");
        mute.send(&slow_task("slowprog", 0)).unwrap();
        let bulky = slow_task(&"x".repeat(1 << 20), 0);
        for _ in 0..24 {
            // Once the service stops reading this session the sends may
            // themselves fail; that is the drop this test is about.
            if mute.send(&bulky).is_err() {
                break;
            }
        }

        // A second tenant keeps submitting. A stalled write holds only the
        // thread writing to the mute session, for a few send timeouts at
        // most: the executor, if a reply it released was that write.
        let mut tenant = open_session(&addr, "tenant");
        let started = Instant::now();
        for id in 0..4 {
            tenant
                .send(&Message::Task(*frame(id, "factorial", 10_000)))
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
        let stats = join_within(
            handle,
            WRITE_STALL * 8,
            "the mute session was never dropped",
        );
        let tenant_row = stats.clients.iter().find(|c| c.label == "tenant").unwrap();
        assert_eq!(tenant_row.completed, 4);
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
    fn a_joined_worker_runs_the_service_session() {
        // A hand-rolled coordinator: its own join listener, a joiner
        // dialling it, and the Register/Welcome admission by hand. What
        // the session decides (order, cadence, cancel) is checked on the
        // virtual clock by the tests above and the explorer; this checks
        // that the driver puts it on the wire.
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
        let started = Instant::now();
        conn.send(&Message::Task(*frame(0, "factorial", 2_000)))
            .unwrap();
        assert!(matches!(conn.recv().unwrap(), Message::TaskDone { .. }));
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "a joined worker took {:?} to answer a millisecond task",
            started.elapsed()
        );

        // 2. A long task heartbeats at its 50 ms cadence, never silent
        // long enough to trip a coordinator's liveness deadline, and a
        // Cancel after the first beat is acknowledged.
        conn.send(&slow_task("slowprog", usize::MAX)).unwrap();
        let (mut beats, mut widest_gap, mut last_frame) = (0, Duration::ZERO, Instant::now());
        let acknowledgement = loop {
            let message = conn.recv().unwrap();
            widest_gap = widest_gap.max(last_frame.elapsed());
            last_frame = Instant::now();
            match message {
                Message::Heartbeat if beats == 0 => conn.send(&Message::Cancel).unwrap(),
                Message::Heartbeat => {}
                other => break other,
            }
            beats += 1;
        };
        assert!(beats >= 1, "the long task must heartbeat");
        assert!(
            widest_gap <= crate::transport::liveness_deadline(Duration::from_millis(50)),
            "frames {widest_gap:?} apart would trip the coordinator's liveness deadline"
        );
        assert!(
            matches!(&acknowledgement, Message::Error(why) if why == CANCELLED),
            "expected the cancel acknowledgement, got {acknowledgement:?}"
        );

        // 3. Shutdown releases the joiner promptly and cleanly.
        conn.send(&Message::Shutdown).unwrap();
        join_within(
            joiner,
            Duration::from_secs(2),
            "the joiner must return after Shutdown",
        );
    }

    #[test]
    fn serve_loopback_workers_are_multiplexed() {
        // The classic single-campaign path through the new serve loop:
        // run_distributed with shutdown still completes and tears the
        // daemon down — the compatibility contract for every existing
        // demo and test that spawns `symplfied serve`.
        let program = factorial();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::WrongOutput { expected: vec![24] };
        let config = deterministic_config(3);
        let local = in_process(&program, &[4], &campaign, &predicate, &config);
        let server = WorkerServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.serve(&resolver));
        let job = factorial_job(&program, &campaign, &predicate, &config);
        let report = run_distributed(&job, &[addr], true).unwrap();
        assert_eq!(report.outcome_digest(), local.outcome_digest());
        handle.join().unwrap().unwrap();
        // LISTENING_PREFIX is untouched by the service rework — the
        // spawn helpers' readiness contract.
        assert!(LISTENING_PREFIX.contains("listening"));
    }
}

#[cfg(test)]
mod explorer;
