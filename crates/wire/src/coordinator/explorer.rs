//! Exhaustive schedule exploration of [`CoordinatorCore`]: a depth-first
//! search with a visited set over every interleaving of a bounded
//! alphabet, on a virtual clock, with no threads and no sockets.
//!
//! The model: two listed workers plus one possible late joiner, and the
//! three shards of a small factorial campaign. A worker answers each task
//! with the in-process [`run_task_spec`] result for exactly its points.
//! The alphabet is every enabled reply or heartbeat and a tick to the
//! core's next deadline, plus at most one each of: kill a worker (before
//! or after it connects), deliver a frame twice back to back (as the chaos
//! proxy's `DuplicateFrame` does), stall a worker past its liveness
//! deadline, a late join, a split acknowledgement, and a coordinator abort
//! followed by a resume from the appended checkpoint records. Frames a
//! reader thread posts after its connection was dropped are not modelled:
//! the core ignores events for connections it no longer holds. At every terminal the
//! pooled report must reproduce the in-process `outcome_digest`, no shard
//! is booked twice, and no task is retried past its cap; no reachable
//! state may be left without an enabled event or a deadline.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::io;
use std::rc::Rc;

use sympl_asm::Program;
use sympl_check::{Predicate, SearchLimits};
use sympl_cluster::{run_task_spec, shard_specs, split_preserves_outcome, ClusterConfig};
use sympl_detect::DetectorSet;
use sympl_inject::{Campaign, ErrorClass};
use sympl_machine::ExecLimits;

use super::*;
use crate::transport::liveness_deadline;

/// Test-only: the explorer clones whole cores, fatal error included.
impl Clone for WireError {
    fn clone(&self) -> Self {
        match self {
            WireError::Io(e) => WireError::Io(io::Error::new(e.kind(), e.to_string())),
            WireError::Codec(e) => WireError::Codec(*e),
            WireError::BadMagic(m) => WireError::BadMagic(*m),
            WireError::VersionMismatch { ours, theirs } => WireError::VersionMismatch {
                ours: *ours,
                theirs: *theirs,
            },
            WireError::FrameTooLarge(n) => WireError::FrameTooLarge(*n),
            WireError::Disconnected => WireError::Disconnected,
            WireError::Remote(m) => WireError::Remote(m.clone()),
            WireError::UnexpectedMessage(m) => WireError::UnexpectedMessage(m),
            WireError::NoWorkersLeft { pending } => WireError::NoWorkersLeft { pending: *pending },
            WireError::LivenessExpired { silent_for } => WireError::LivenessExpired {
                silent_for: *silent_for,
            },
            WireError::TaskCancelled => WireError::TaskCancelled,
            WireError::CoordinatorAborted { completed } => WireError::CoordinatorAborted {
                completed: *completed,
            },
            WireError::StaleCheckpoint(m) => WireError::StaleCheckpoint(m.clone()),
            WireError::CheckpointCorrupt { offset } => {
                WireError::CheckpointCorrupt { offset: *offset }
            }
        }
    }
}

const JOINER: ConnId = 2;

/// A shard or part by `(task id, start, end)` in its shard's point list.
type Range = (usize, usize, usize);

/// A frame a model worker can send: the reply to a task, or the
/// acknowledgement of a `Cancel`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Frame {
    Done(Range),
    Cancelled,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    /// Listed and still connecting, or a joiner that has not joined.
    Waiting,
    Live,
    Gone,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Worker {
    phase: Phase,
    /// The tasks it holds, oldest first, and whether a `Cancel` reached
    /// each (a `Cancel` hits the oldest incomplete one, as in the
    /// service).
    jobs: Vec<(Range, bool)>,
    stalled: bool,
}

/// The one-shot faults already spent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
struct Spent {
    kill: bool,
    dup: bool,
    stall: bool,
    join: bool,
    split: bool,
    abort: bool,
}

#[derive(Debug, Clone, Copy)]
enum Move {
    Connect(ConnId),
    Unreachable(ConnId),
    Join,
    Deliver(ConnId, Frame, bool),
    Beat(ConnId),
    Kill(ConnId),
    Stall(ConnId),
    Tick,
}

#[derive(Clone)]
struct World {
    core: CoordinatorCore,
    now: Duration,
    workers: [Worker; 3],
    spent: Spent,
    /// Checkpoint records appended so far (carried across a resume).
    records: Vec<Entry>,
    trail: Trail<Move>,
}

/// The moves that led to a world, newest first, shared between siblings.
#[derive(Clone)]
pub(crate) struct Trail<M>(Option<Rc<(M, Trail<M>)>>);

impl<M> Default for Trail<M> {
    fn default() -> Self {
        Trail(None)
    }
}

impl<M: Clone> Trail<M> {
    pub(crate) fn then(&self, m: M) -> Self {
        Trail(Some(Rc::new((m, self.clone()))))
    }
}

impl<M: fmt::Debug + Copy> fmt::Debug for Trail<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut moves = Vec::new();
        let mut at = self;
        while let Some(node) = &at.0 {
            moves.push(node.0);
            at = &node.1;
        }
        moves.reverse();
        f.debug_list().entries(moves).finish()
    }
}

/// How a move ended.
enum Step {
    Running,
    Terminal(Result<CampaignReport, WireError>),
}

struct Model {
    specs: Vec<TaskSpec>,
    cfg: CoreConfig,
    program: Program,
    input: Vec<i64>,
    predicate: Predicate,
    config: ClusterConfig,
    replies: RefCell<HashMap<Range, Entry>>,
}

impl Model {
    /// The in-process reply for exactly the points of `range`, with a
    /// distinct deterministic `elapsed` so equal counters on different
    /// parts still make different frames (as wall time does for real).
    fn reply(&self, (id, start, end): Range) -> Entry {
        let mut replies = self.replies.borrow_mut();
        let entry = replies.entry((id, start, end)).or_insert_with(|| {
            let spec = TaskSpec {
                id,
                points: self.specs[id].points[start..end].to_vec(),
            };
            let (mut result, findings) = run_task_spec(
                &self.program,
                &DetectorSet::new(),
                &self.input,
                &spec,
                &self.predicate,
                &self.config,
            );
            result.elapsed = Duration::from_micros((id * 100 + start) as u64 * 100 + end as u64);
            (result, findings)
        });
        entry.clone()
    }

    fn range_of(&self, spec: &TaskSpec) -> Range {
        let parent = &self.specs[spec.id].points;
        let start = (0..parent.len())
            .find(|&s| parent[s..].starts_with(&spec.points))
            .expect("a dispatched spec is a slice of its shard");
        (spec.id, start, start + spec.points.len())
    }

    fn fresh(&self, abort_after: Option<usize>, seeded: Vec<Entry>) -> CoordinatorCore {
        let cfg = CoreConfig {
            abort_after,
            ..self.cfg.clone()
        };
        CoordinatorCore::new(cfg, self.specs.clone(), seeded)
    }
}

fn waiting() -> Worker {
    Worker {
        phase: Phase::Waiting,
        jobs: Vec::new(),
        stalled: false,
    }
}

impl World {
    fn moves(&self) -> Vec<Move> {
        let mut moves = Vec::new();
        for (c, w) in self.workers.iter().enumerate() {
            match w.phase {
                Phase::Waiting if c == JOINER => {
                    if !self.spent.join {
                        moves.push(Move::Join);
                    }
                }
                Phase::Waiting => {
                    moves.push(Move::Connect(c));
                    if !self.spent.kill {
                        moves.push(Move::Unreachable(c));
                    }
                }
                Phase::Live if !w.stalled => {
                    if let Some(&(range, cancelled)) = w.jobs.first() {
                        let mut frames = vec![Frame::Done(range)];
                        if cancelled && (self.cancel_is_abort(c) || !self.spent.split) {
                            frames.push(Frame::Cancelled);
                        }
                        for frame in frames {
                            moves.push(Move::Deliver(c, frame, false));
                            if !self.spent.dup {
                                moves.push(Move::Deliver(c, frame, true));
                            }
                        }
                        // A beat only moves a deadline once time passed.
                        let flight = self.core.links.get(&c).and_then(|l| l.task.as_ref());
                        if flight.is_some_and(|f| f.last_signal < self.now) {
                            moves.push(Move::Beat(c));
                        }
                        if !self.spent.stall {
                            moves.push(Move::Stall(c));
                        }
                    }
                    if !self.spent.kill {
                        moves.push(Move::Kill(c));
                    }
                }
                Phase::Live | Phase::Gone => {}
            }
        }
        if let Some(at) = self.core.next_deadline() {
            // A healthy worker always beats or answers in time: only a
            // stalled one may be carried past its own deadline.
            let overrun = self.core.links.iter().any(|(&c, link)| {
                let healthy = !self.workers[c].stalled && self.workers[c].phase == Phase::Live;
                healthy
                    && link
                        .task
                        .as_ref()
                        .is_some_and(|f| f.deadline(self.core.cfg.liveness) <= at)
            });
            if !overrun {
                moves.push(Move::Tick);
            }
        }
        moves
    }

    fn cancel_is_abort(&self, c: ConnId) -> bool {
        let flight = self.core.links.get(&c).and_then(|l| l.task.as_ref());
        flight.is_some_and(|f| f.cancel.is_some_and(|(_, r)| r == CancelReason::Abort))
    }

    fn message(model: &Model, frame: Frame) -> Message {
        match frame {
            Frame::Done(range) => {
                let (result, findings) = model.reply(range);
                Message::TaskDone { result, findings }
            }
            Frame::Cancelled => Message::Error("task cancelled by the coordinator".into()),
        }
    }

    fn apply(&mut self, model: &Model, m: Move) -> Step {
        self.trail = self.trail.then(m);
        let mut again = None;
        let event = match m {
            Move::Connect(c) => {
                self.workers[c].phase = Phase::Live;
                Event::Connected {
                    conn: c,
                    joined: false,
                }
            }
            Move::Unreachable(c) => {
                self.spent.kill = true;
                self.workers[c].phase = Phase::Gone;
                Event::Unreachable
            }
            Move::Join => {
                self.spent.join = true;
                self.workers[JOINER].phase = Phase::Live;
                Event::Connected {
                    conn: JOINER,
                    joined: true,
                }
            }
            Move::Deliver(c, frame, dup) => {
                if frame == Frame::Cancelled && !self.cancel_is_abort(c) {
                    self.spent.split = true;
                }
                self.workers[c].jobs.remove(0);
                if dup {
                    // Delivered twice, back to back on the connection.
                    self.spent.dup = true;
                    again = Some(Event::Frame(c, Box::new(Self::message(model, frame))));
                }
                Event::Frame(c, Box::new(Self::message(model, frame)))
            }
            Move::Beat(c) => Event::Frame(c, Box::new(Message::Heartbeat)),
            Move::Kill(c) => {
                self.spent.kill = true;
                self.workers[c] = Worker {
                    phase: Phase::Gone,
                    ..waiting()
                };
                Event::Closed(c, WireError::Disconnected)
            }
            Move::Stall(c) => {
                self.spent.stall = true;
                self.workers[c].stalled = true;
                return Step::Running;
            }
            Move::Tick => {
                self.now = self.now.max(self.core.next_deadline().expect("a deadline"));
                Event::Tick
            }
        };
        let mut finished = false;
        let actions: Vec<Action> = (std::iter::once(event).chain(again))
            .flat_map(|event| self.core.on_event(self.now, event))
            .collect();
        for action in actions {
            match action {
                Action::Send(c, Outgoing::Task(spec)) => {
                    self.workers[c].jobs.push((model.range_of(&spec), false));
                }
                Action::Send(c, Outgoing::Cancel) => {
                    if let Some(job) = self.workers[c].jobs.first_mut() {
                        job.1 = true;
                    }
                }
                Action::Send(c, Outgoing::Shutdown) | Action::Drop(c) => {
                    self.workers[c] = Worker {
                        phase: Phase::Gone,
                        ..waiting()
                    };
                }
                Action::Checkpoint(i) => self.records.push(self.core.results()[i].clone()),
                Action::Booked(_) => {
                    let results = self.core.results();
                    let ids: HashSet<usize> = results.iter().map(|(r, _)| r.id).collect();
                    assert_eq!(
                        ids.len(),
                        results.len(),
                        "a shard was booked twice: {:?}",
                        self.trail
                    );
                }
                Action::Finish => finished = true,
            }
        }
        self.check_invariants();
        if !finished {
            return Step::Running;
        }
        // Connections that arrive after the end are released, never kept.
        for c in 0..2 {
            if self.workers[c].phase == Phase::Waiting {
                let mut late = self.core.clone();
                let actions = late.on_event(
                    self.now,
                    Event::Connected {
                        conn: c,
                        joined: false,
                    },
                );
                assert_eq!(actions.last(), Some(&Action::Drop(c)));
            }
        }
        let outcome = self.core.clone().into_outcome(self.now);
        if let Err(WireError::CoordinatorAborted { .. }) = outcome {
            // Resume: a fresh coordinator seeded from the appended
            // records, in front of fresh sessions.
            let spent = self.spent;
            self.core = model.fresh(None, self.records.clone());
            self.workers = [waiting(), waiting(), waiting()];
            self.spent = spent;
            self.now = Duration::ZERO;
            return Step::Running;
        }
        Step::Terminal(outcome)
    }

    fn check_invariants(&self) {
        let cap = (self.core.cfg.listed + self.core.joined).max(1);
        let queued = self.core.queue.iter();
        let flying = self
            .core
            .links
            .values()
            .filter_map(|l| l.task.as_ref().map(|f| &f.task));
        for task in queued.chain(flying) {
            assert!(
                task.attempts < cap,
                "retried past the cap: {:?}",
                self.trail
            );
        }
    }

    /// The visited-set key: everything that steers future decisions, with
    /// every instant taken relative to now (the core is invariant under a
    /// shift of the clock).
    fn key(&self) -> u64 {
        let mut h = KeyHasher(0);
        let rel = |t: Duration| t.saturating_sub(self.now);
        // A reply's (or a merge's) `elapsed` names the range it answers.
        let entry = |e: &Entry, h: &mut KeyHasher| {
            e.0.elapsed.hash(h);
        };
        let core = &self.core;
        for t in &core.queue {
            (t.spec.id, t.range, t.depth, t.attempts, rel(t.ready_at)).hash(&mut h);
        }
        for (id, parts) in &core.parts {
            for (start, (end, e)) in parts {
                (id, start, end).hash(&mut h);
                entry(e, &mut h);
            }
        }
        core.results.iter().for_each(|e| entry(e, &mut h));
        for (c, link) in &core.links {
            c.hash(&mut h);
            if let Some(f) = &link.task {
                (f.task.spec.id, f.task.range, f.task.depth, f.task.attempts).hash(&mut h);
                rel(f.last_signal + core.cfg.liveness).hash(&mut h);
                f.cancel
                    .map(|(sent, r)| (rel(sent + core.cfg.liveness), r == CancelReason::Abort))
                    .hash(&mut h);
            }
            if let Some(e) = &link.last_booked {
                entry(e, &mut h);
            }
        }
        (core.connecting, core.no_workers_since.map(rel)).hash(&mut h);
        core.fatal.as_ref().map(std::mem::discriminant).hash(&mut h);
        // Telemetry counters (lost, retried, split) steer nothing.
        (core.aborting, core.finished, core.joined).hash(&mut h);
        (core.cfg.abort_after, &self.workers, self.spent).hash(&mut h);
        // The records only matter to a resume still to come.
        if core.cfg.abort_after.is_some() {
            self.records.iter().for_each(|e| entry(e, &mut h));
        }
        h.finish()
    }
}

/// A multiply-xor hasher: the visited set needs speed, not resistance.
pub(crate) struct KeyHasher(pub(crate) u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

#[test]
fn every_small_schedule_reproduces_the_in_process_digest() {
    let program = crate::transport::tests::factorial();
    let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
    let search = SearchLimits {
        exec: ExecLimits::with_max_steps(300),
        max_solutions: 1,
        ..SearchLimits::default()
    };
    let config = ClusterConfig {
        max_findings_per_task: campaign.len() * search.max_solutions,
        search,
        ..crate::transport::tests::deterministic_config(3)
    };
    let predicate = Predicate::OutputContainsErr;
    let local = crate::transport::tests::in_process(&program, &[4], &campaign, &predicate, &config);
    let specs = shard_specs(&campaign, config.tasks);
    // The two-point shard splits into halves of equal length: the case
    // where only the duplicate check tells a repeated reply from the
    // other half's.
    assert_eq!(
        specs.iter().map(|s| s.points.len()).collect::<Vec<_>>(),
        [3, 3, 2]
    );
    assert!(specs.iter().all(|s| split_preserves_outcome(s, &config)));
    let model = Model {
        specs,
        cfg: CoreConfig {
            listed: 2,
            liveness: liveness_deadline(Duration::from_millis(30)),
            split: true,
            shutdown_workers: true,
            join_window: true,
            abort_after: None,
        },
        program,
        input: vec![4],
        predicate,
        config,
        replies: RefCell::new(HashMap::new()),
    };

    let started = std::time::Instant::now();
    let mut stack: Vec<World> = [None, Some(1)]
        .into_iter()
        .map(|abort_after| World {
            core: model.fresh(abort_after, Vec::new()),
            now: Duration::ZERO,
            workers: [waiting(), waiting(), waiting()],
            spent: Spent {
                abort: abort_after.is_some(),
                ..Spent::default()
            },
            records: Vec::new(),
            trail: Trail::default(),
        })
        .collect();
    let mut seen: HashSet<u64> = stack.iter().map(World::key).collect();
    let (mut states, mut complete, mut failed) = (0usize, 0usize, 0usize);
    while let Some(world) = stack.pop() {
        states += 1;
        let moves = world.moves();
        assert!(
            !moves.is_empty(),
            "deadlock: no event and no deadline after {:?}",
            world.trail
        );
        for m in moves {
            let mut next = world.clone();
            match next.apply(&model, m) {
                Step::Running => {
                    if seen.insert(next.key()) {
                        stack.push(next);
                    }
                }
                Step::Terminal(Ok(report)) => {
                    complete += 1;
                    assert_eq!(
                        report.outcome_digest(),
                        local.outcome_digest(),
                        "digest moved after {:?}",
                        next.trail
                    );
                    assert_eq!(report.tasks.len(), 3);
                }
                Step::Terminal(Err(e)) => {
                    failed += 1;
                    assert!(
                        matches!(
                            e,
                            WireError::NoWorkersLeft { .. }
                                | WireError::Disconnected
                                | WireError::LivenessExpired { .. }
                                | WireError::TaskCancelled
                                | WireError::Remote(_)
                                | WireError::UnexpectedMessage(_)
                        ),
                        "{e} after {:?}",
                        next.trail
                    );
                }
            }
        }
    }
    eprintln!(
        "explored {states} states: {complete} complete terminals, {failed} failed ones, in {:?}",
        started.elapsed()
    );
    assert!(complete > 0 && failed > 0);
}
