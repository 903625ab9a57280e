//! Exhaustive schedule exploration of [`ServiceCore`]: a depth-first
//! search with a visited set over every interleaving of a bounded
//! alphabet, on a virtual clock, with no threads and no sockets.
//!
//! The model: two clients of priorities 2 and 1 under `max_clients = 2`,
//! each pipelining up to two tasks (one refused at enqueue); every write
//! completion, job end (a flagged job ends incomplete) and tick to the
//! next deadline; at most one each of `Cancel`, hang-up, failed write and
//! bare `Shutdown`; and, at every state, a third connection probed on a
//! copy of the core. Checked throughout: replies leave in submission
//! order, once, each the one its task is owed (so a `Cancel` answers the
//! oldest incomplete task); a closed session leaves nothing behind and
//! its running job flagged; backlogged picks keep the [`FairScheduler`]'s
//! one-round bound; work in flight owes a heartbeat within its tightest
//! cadence of the last frame; a drain ends with its last session; and no
//! state is stuck while anything is owed.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use super::tests::{entry, frame, resolved_factorial};
use super::*;
use crate::coordinator::explorer::{KeyHasher, Trail};

const PRIORITY: [u64; 2] = [2, 1];

/// Each client's tasks: heartbeat cadence in milliseconds, and whether
/// the task names a program the service cannot resolve. Task `k` of
/// client `c` has id `2c + k`.
const TASKS: [[(u64, bool); 2]; 2] = [[(40, false), (30, false)], [(50, false), (20, true)]];

/// Asserts a condition of `world`, naming the schedule that broke it.
macro_rules! ensure {
    ($world:expr, $cond:expr, $what:literal) => {
        assert!($cond, concat!($what, " after {:?}"), $world.trail)
    };
}

/// A frame as the model client tells it apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Frame {
    Accept,
    Beat,
    Done(usize),
    Cancelled,
    Refused,
}

impl Frame {
    fn of(message: &Message) -> Frame {
        match message {
            Message::ClientAccept { .. } => Frame::Accept,
            Message::Heartbeat => Frame::Beat,
            Message::TaskDone { result, .. } => Frame::Done(result.id),
            Message::Error(why) if why == CANCELLED => Frame::Cancelled,
            Message::Error(why) if why.starts_with("unknown program") => Frame::Refused,
            other => panic!("the model never provokes {other:?}"),
        }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
enum Phase {
    #[default]
    Out,
    Open(SessionId),
    Gone,
}

#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct Client {
    phase: Phase,
    /// The reply each submitted task is owed, and whether it is still
    /// incomplete (queued or running), oldest first.
    owed: Vec<(Frame, bool)>,
    answered: usize,
    accepted: bool,
    /// The frames of the outstanding write.
    writing: Option<Vec<Frame>>,
    /// When a frame last left, or the current burst of work began.
    last_frame: Duration,
}

impl Client {
    fn id(&self) -> Option<SessionId> {
        match self.phase {
            Phase::Open(id) => Some(id),
            Phase::Out | Phase::Gone => None,
        }
    }
}

/// The one-shot events already spent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
struct Spent {
    cancel: bool,
    hang_up: bool,
    fail: bool,
    shutdown: bool,
}

#[derive(Debug, Clone, Copy)]
enum Move {
    Connect(usize),
    Submit(usize),
    Cancel(usize),
    HangUp(usize),
    Deliver(usize),
    FailWrite(usize),
    Finish,
    BareShutdown,
    Tick,
}

#[derive(Clone, Default)]
struct World {
    core: ServiceCore,
    now: Duration,
    clients: [Client; 2],
    /// The task the executor holds, and its cancel flag.
    running: Option<usize>,
    flag: bool,
    spent: Spent,
    /// A drain was requested, and it has ended.
    draining: bool,
    woke: bool,
    /// Picks per client since both were last backlogged at once.
    window: [u64; 2],
    trail: Trail<Move>,
}

/// What the model needs besides the world: the resolved program and
/// every task's two possible results, built once.
struct Model {
    program: Arc<ResolvedProgram>,
    entries: Vec<[Entry; 2]>,
}

impl World {
    /// Every enabled move, from a table of (enabled, move).
    fn moves(&self) -> Vec<Move> {
        let mut table = vec![
            (self.running.is_some(), Move::Finish),
            (!self.spent.shutdown, Move::BareShutdown),
            (self.next_deadline().is_some(), Move::Tick),
        ];
        for (c, client) in self.clients.iter().enumerate() {
            let (open, writing) = (client.id().is_some(), client.writing.is_some());
            // A coordinator sends nothing before its accept.
            let talking = open && client.accepted;
            table.extend([
                (client.phase == Phase::Out, Move::Connect(c)),
                (talking && client.owed.len() < 2, Move::Submit(c)),
                (talking && !self.spent.cancel, Move::Cancel(c)),
                (open && !self.spent.hang_up, Move::HangUp(c)),
                (open && writing, Move::Deliver(c)),
                (open && writing && !self.spent.fail, Move::FailWrite(c)),
            ]);
        }
        table
            .into_iter()
            .filter_map(|(on, m)| on.then_some(m))
            .collect()
    }

    /// The earliest heartbeat deadline of any session.
    fn next_deadline(&self) -> Option<Duration> {
        let ids = self.core.sessions.keys();
        ids.filter_map(|&id| self.core.next_deadline(id)).min()
    }

    fn post(&mut self, event: Event) {
        let backlogged = |core: &ServiceCore| core.sessions.values().all(|s| s.queued() > 0);
        let both = self.core.sessions.len() == 2 && backlogged(&self.core);
        for action in self.core.on_event(self.now, event) {
            match action {
                Action::Write(id, frames) => {
                    let c = self.client_of(id);
                    let free = self.clients[c].writing.is_none();
                    ensure!(self, free, "two writes at once");
                    self.clients[c].writing = Some(frames.iter().map(Frame::of).collect());
                    self.clients[c].last_frame = self.now;
                }
                Action::Run(work) => {
                    ensure!(self, self.running.is_none(), "two jobs at once");
                    let id = work.task.spec.id;
                    self.running = Some(id);
                    if both {
                        self.window[id / 2] += 1;
                        let ([w0, w1], [p0, p1]) = (self.window, PRIORITY);
                        let fair = (w0 * p1).abs_diff(w1 * p0) <= p0 * p1;
                        ensure!(self, fair, "picks more than a round apart");
                    }
                }
                Action::Cancel => self.flag = true,
                Action::Wake => {
                    ensure!(self, self.draining && !self.woke, "a stray wake");
                    self.woke = true;
                }
                Action::Hangup(..) => {}
                Action::Serve(_) | Action::Refuse | Action::Stop => unreachable!("verdicts"),
            }
        }
        if self.core.sessions.len() < 2 || !backlogged(&self.core) {
            self.window = [0, 0];
        }
    }

    fn client_of(&self, id: SessionId) -> usize {
        let c = self.clients.iter().position(|c| c.phase == Phase::Open(id));
        c.unwrap_or_else(|| panic!("session {id} is no client's: {:?}", self.trail))
    }

    /// A new connection, which the core must admit while fewer than two
    /// clients are connected and no drain was asked for, refuse while both
    /// are or a drain is under way, and answer with a stop once the drain
    /// has ended.
    fn admit(&mut self) -> Option<SessionId> {
        let open = self.clients.iter().filter(|c| c.id().is_some()).count();
        match self.core.on_event(self.now, Event::Accepted).as_slice() {
            [Action::Serve(id)] if open < 2 && !self.draining => Some(*id),
            [Action::Refuse] if (open == 2 || self.draining) && !self.woke => None,
            [Action::Stop] if self.woke => None,
            _ => panic!("a wrong admission verdict after {:?}", self.trail),
        }
    }

    /// The third connection, on a copy: returns whether it was refused.
    fn probe(&self) -> bool {
        let mut probe = self.clone();
        let Some(id) = probe.admit() else {
            return !self.woke;
        };
        probe.core.on_event(self.now, Event::Closed(id));
        let traceless = probe.core.sessions.len() == self.core.sessions.len();
        ensure!(self, traceless, "a probe left a trace");
        false
    }

    fn apply(&mut self, model: &Model, m: Move) {
        self.trail = self.trail.then(m);
        match m {
            Move::Connect(c) => {
                self.clients[c].phase = Phase::Gone;
                if let Some(id) = self.admit() {
                    self.clients[c].phase = Phase::Open(id);
                    self.post(Event::Hello(id, format!("client-{c}"), PRIORITY[c], true));
                }
            }
            Move::Submit(c) => {
                let client = &mut self.clients[c];
                let k = client.owed.len();
                let (cadence, refused) = TASKS[c][k];
                if client.answered == k && client.writing.is_none() {
                    client.last_frame = self.now;
                }
                let owed = [Frame::Done(2 * c + k), Frame::Refused][usize::from(refused)];
                client.owed.push((owed, !refused));
                let session = client.id().expect("open");
                let task = frame(
                    2 * c + k,
                    ["factorial", "nope"][usize::from(refused)],
                    cadence,
                );
                let program = (!refused).then(|| Arc::clone(&model.program));
                self.post(Event::Task(session, task, program));
            }
            Move::Cancel(c) => {
                self.spent.cancel = true;
                let client = &mut self.clients[c];
                if let Some(task) = client.owed.iter_mut().find(|(_, incomplete)| *incomplete) {
                    *task = (Frame::Cancelled, false);
                }
                let id = client.id().expect("open");
                self.post(Event::Cancel(id));
            }
            Move::HangUp(c) => {
                self.spent.hang_up = true;
                self.close(c, Event::Closed);
            }
            Move::Deliver(c) => {
                let frames = self.clients[c]
                    .writing
                    .take()
                    .expect("a write is outstanding");
                for frame in frames {
                    let client = &self.clients[c];
                    let owed = client.owed.get(client.answered).map(|t| t.0);
                    let fine = match frame {
                        Frame::Accept => !client.accepted,
                        Frame::Beat => true,
                        reply => owed == Some(reply),
                    };
                    ensure!(self, fine, "a frame out of order or twice");
                    let client = &mut self.clients[c];
                    match frame {
                        Frame::Accept => client.accepted = true,
                        Frame::Beat => {}
                        _ => client.answered += 1,
                    }
                }
                self.clients[c].last_frame = self.now;
                let id = self.clients[c].id().expect("open");
                self.post(Event::Wrote(id, true));
            }
            Move::FailWrite(c) => {
                self.spent.fail = true;
                self.close(c, |id| Event::Wrote(id, false));
            }
            Move::Finish => {
                let id = self.running.take().expect("a running job");
                self.clients[id / 2].owed[id % 2].1 = false;
                let entry = model.entries[id][usize::from(!self.flag)].clone();
                self.flag = false;
                self.post(Event::Done(Some(Box::new(entry))));
            }
            Move::BareShutdown => {
                self.spent.shutdown = true;
                if let Some(id) = self.admit() {
                    self.draining = true;
                    self.post(Event::Shutdown(id));
                }
            }
            Move::Tick => {
                self.now = self.now.max(self.next_deadline().expect("a deadline"));
                let ids: Vec<SessionId> = self.clients.iter().filter_map(Client::id).collect();
                for id in ids {
                    if self.core.next_deadline(id).is_some_and(|at| at <= self.now) {
                        self.post(Event::Tick(id));
                    }
                }
            }
        }
        self.check();
    }

    /// Client `c`'s session ends by `event`: the core keeps nothing of it,
    /// and a job of its still running is flagged.
    fn close(&mut self, c: usize, event: impl Fn(SessionId) -> Event) {
        let id = self.clients[c].id().expect("open");
        self.clients[c].phase = Phase::Gone;
        self.post(event(id));
        let core = &self.core;
        let forgotten = core.sched.credits.len() <= core.sessions.len();
        let kept = core.sessions.contains_key(&id) || !forgotten;
        ensure!(self, !kept, "a closed session kept");
        let running_here = self.running.is_some_and(|t| t / 2 == c);
        ensure!(self, !running_here || self.flag, "a job left running");
    }

    fn check(&self) {
        for (c, client) in self.clients.iter().enumerate() {
            // While a frame is going out the core re-arms on it; when none
            // is, nothing is decided but unsent, so the core owes exactly
            // the tasks the client awaits.
            let Some(id) = client.id().filter(|_| client.writing.is_none()) else {
                continue;
            };
            let awaited = TASKS[c][client.answered..client.owed.len()].iter();
            let tightest = awaited
                .map(|&(cadence, _)| Duration::from_millis(cadence))
                .min();
            let due = tightest.map(|tightest| client.last_frame + tightest);
            let deadline = self.core.next_deadline(id);
            let on_time = deadline.is_some() == due.is_some() && deadline <= due;
            ensure!(self, on_time, "a heartbeat late");
        }
        let open = self.clients.iter().any(|c| c.id().is_some());
        let ended = !self.draining || open || self.woke;
        ensure!(self, ended, "a drain outlived its sessions");
    }

    /// Whether anything is still owed: a task unanswered on an open
    /// session, a write outstanding, or a job running.
    fn owes(&self) -> bool {
        let owed = |c: &Client| c.answered < c.owed.len() || c.writing.is_some();
        let open = self.clients.iter().filter(|c| c.id().is_some());
        self.running.is_some() || open.into_iter().any(owed)
    }

    /// The visited-set key: everything that steers what comes next or
    /// what the checks expect, with session ids mapped to clients and
    /// every instant taken relative to now (the core is invariant under
    /// a shift of the clock).
    fn key(&self) -> u64 {
        let mut h = KeyHasher(0);
        let rel = |t: Duration| self.now.saturating_sub(t);
        let core = &self.core;
        for id in core.sessions.keys() {
            self.clients
                .iter()
                .position(|c| c.id() == Some(*id))
                .hash(&mut h);
        }
        for s in self
            .clients
            .iter()
            .filter_map(|c| core.sessions.get(&c.id()?))
        {
            for job in &s.pending {
                job.interval.hash(&mut h);
                match &job.state {
                    JobState::Queued(work) => (0, work.task.spec.id).hash(&mut h),
                    JobState::Running(cancelled) => (1, usize::from(*cancelled)).hash(&mut h),
                    JobState::Done(reply) => (2, Frame::of(reply)).hash(&mut h),
                }
            }
            s.outgoing.iter().for_each(|f| Frame::of(f).hash(&mut h));
            // The cadence's origin only matters while work is in flight.
            let beat = (!s.pending.is_empty()).then(|| rel(s.last_beat));
            (s.writing, beat, s.queued()).hash(&mut h);
        }
        (core.sched.cursor, &core.sched.credits, core.draining).hash(&mut h);
        (core.running.map(|id| core.sessions.contains_key(&id))).hash(&mut h);
        for client in &self.clients {
            // A gone client awaits nothing, and no clock runs before one
            // connects.
            client.id().is_some().hash(&mut h);
            if client.id().is_some() {
                (&client.owed, client.answered, client.accepted).hash(&mut h);
                let awaited = client.answered < client.owed.len() && client.writing.is_none();
                (&client.writing, awaited.then(|| rel(client.last_frame))).hash(&mut h);
            }
        }
        (self.running, self.flag, self.spent).hash(&mut h);
        (self.draining, self.woke, self.window).hash(&mut h);
        h.finish()
    }
}

#[test]
fn every_small_schedule_keeps_the_service_contract() {
    let entries = (0..4).map(|id| [entry(id, false), entry(id, true)]);
    let model = Model {
        program: resolved_factorial(),
        entries: entries.collect(),
    };
    let start = World {
        core: ServiceCore::new(2),
        ..World::default()
    };

    let started = std::time::Instant::now();
    let mut seen: HashSet<u64> = HashSet::from([start.key()]);
    let mut stack = vec![start];
    let (mut states, mut idle_ends, mut refused) = (0usize, 0usize, 0usize);
    while let Some(world) = stack.pop() {
        states += 1;
        refused += usize::from(world.probe());
        let moves = world.moves();
        if moves.is_empty() {
            ensure!(world, !world.owes(), "stuck with work owed");
            idle_ends += 1;
        }
        for m in moves {
            let mut next = world.clone();
            next.apply(&model, m);
            if seen.insert(next.key()) {
                stack.push(next);
            }
        }
    }
    eprintln!(
        "explored {states} states: {idle_ends} idle ends, {refused} refusals, in {:?}",
        started.elapsed()
    );
    assert!(idle_ends > 0 && refused > 0);
}
