//! The campaign coordinator's decisions as a single-owner state machine.
//!
//! [`CoordinatorCore`] owns the task queue, the split-part assembly map,
//! the pooled results and every connection's supervision state. It is
//! driven by [`Event`]s stamped with the time since the campaign began,
//! answers each with the [`Action`]s the driver must perform, and says
//! via [`CoordinatorCore::next_deadline`] when it next needs a
//! [`Event::Tick`]. It never blocks and reads no clock, and its only I/O
//! is a log line on stderr per retried task: the driver in
//! [`crate::transport`] does the rest, and the explorer test in this
//! module drives every decision on a virtual clock.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use sympl_cluster::{merge_part_results, pool_results, split_spec, CampaignReport, Finding};
use sympl_cluster::{TaskResult, TaskSpec};

use crate::proto::Message;
use crate::transport::{backoff_delay, MAX_SPLIT_DEPTH};
use crate::WireError;

/// A connection's identity: listed workers are `0..listed`, joiners
/// follow in admission order.
pub(crate) type ConnId = usize;

/// One completed shard (or split part): its result and findings.
pub(crate) type Entry = (TaskResult, Vec<Finding>);

/// What happened, as the driver saw it.
#[derive(Debug)]
pub(crate) enum Event {
    /// A listed worker finished its session hello, or a joiner was
    /// admitted through the join listener.
    Connected { conn: ConnId, joined: bool },
    /// A listed worker could not be reached or refused the session.
    Unreachable,
    /// A complete frame arrived on a connection (boxed: a task frame is
    /// large, and most events are not frames).
    Frame(ConnId, Box<Message>),
    /// A connection's read side failed or reached end of stream.
    Closed(ConnId, WireError),
    /// Time passed; deadlines at or before the event's instant fire.
    Tick,
}

/// What the core asks the driver to send.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Outgoing {
    /// A `Task` frame for this spec.
    Task(TaskSpec),
    Cancel,
    Shutdown,
}

/// What the driver must do, in order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Action {
    Send(ConnId, Outgoing),
    /// Hang up on a connection; later events for it are ignored.
    Drop(ConnId),
    /// Append booked result number `index` ([`CoordinatorCore::results`])
    /// to the checkpoint file.
    Checkpoint(usize),
    /// The campaign now holds this many completed shards (resumed ones
    /// included); the driver fires the progress hooks.
    Booked(usize),
    /// The campaign is over; [`CoordinatorCore::into_outcome`] says how.
    /// Connections that arrive later are released by the core.
    Finish,
}

/// The fixed parameters of one campaign run.
#[derive(Debug, Clone, Default)]
pub(crate) struct CoreConfig {
    /// Pre-listed worker count (the retry budget's base).
    pub listed: usize,
    /// Silence allowed on a connection with a task in flight, and the
    /// wait for a `Cancel`'s acknowledgement.
    pub liveness: Duration,
    /// Idle workers may split in-flight shards.
    pub split: bool,
    /// Release every worker with a `Shutdown` frame on success.
    pub shutdown_workers: bool,
    /// A join listener is attached: a fleet that emptied gets one
    /// liveness window to be replaced before `NoWorkersLeft`.
    pub join_window: bool,
    /// Abort (as if crashed) once this many shards are booked.
    pub abort_after: Option<usize>,
}

/// A queued task: its spec, the `[start, end)` range of the parent
/// shard's point list it covers (split halves carry the parent's id), its
/// split depth, how many workers already failed it, and the earliest
/// instant it may be handed out again ([`backoff_delay`]).
#[derive(Debug, Clone)]
struct Queued {
    spec: TaskSpec,
    range: (usize, usize),
    depth: usize,
    attempts: usize,
    ready_at: Duration,
}

/// Why a `Cancel` went out: an abort discards the task, a split wants
/// the shard back to halve it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CancelReason {
    Abort,
    Split,
}

#[derive(Debug, Clone)]
struct InFlight {
    task: Queued,
    last_signal: Duration,
    cancel: Option<(Duration, CancelReason)>,
}

impl InFlight {
    /// Silence past `liveness`, or an unanswered `Cancel` that old, fails
    /// the connection.
    fn deadline(&self, liveness: Duration) -> Duration {
        let silent = self.last_signal + liveness;
        self.cancel
            .map_or(silent, |(sent, _)| silent.min(sent + liveness))
    }
}

#[derive(Debug, Clone, Default)]
struct Link {
    task: Option<InFlight>,
    /// The last `TaskDone` booked from this connection: a frame equal to
    /// it is a duplicate, whatever the connection is running now.
    last_booked: Option<Entry>,
}

/// The coordinator's state; see the module docs.
#[derive(Debug, Default)]
#[cfg_attr(test, derive(Clone))]
pub(crate) struct CoordinatorCore {
    cfg: CoreConfig,
    /// The instant of the event being handled, and the actions decided.
    now: Duration,
    out: Vec<Action>,
    /// Original point count of each shard, by task id.
    task_points: Vec<usize>,
    queue: VecDeque<Queued>,
    /// Completed split parts awaiting their siblings: task id → start
    /// offset → (end, part).
    parts: BTreeMap<usize, BTreeMap<usize, (usize, Entry)>>,
    results: Vec<Entry>,
    resumed: usize,
    links: BTreeMap<ConnId, Link>,
    /// Listed workers neither connected nor unreachable yet.
    connecting: usize,
    no_workers_since: Option<Duration>,
    fatal: Option<WireError>,
    aborting: bool,
    finished: bool,
    retried: usize,
    lost: usize,
    joined: usize,
    split: usize,
}

impl CoordinatorCore {
    /// A core for `specs`, seeded with resumed results (the first entry
    /// per in-range task id counts; the rest are ignored).
    pub(crate) fn new(cfg: CoreConfig, specs: Vec<TaskSpec>, seeded: Vec<Entry>) -> Self {
        let mut have = vec![false; specs.len()];
        let results: Vec<Entry> = (seeded.into_iter())
            .filter(|(r, _)| r.id < have.len() && !std::mem::replace(&mut have[r.id], true))
            .collect();
        CoordinatorCore {
            task_points: specs.iter().map(|s| s.points.len()).collect(),
            queue: (specs.into_iter().filter(|s| !have[s.id]))
                .map(|spec| Queued {
                    range: (0, spec.points.len()),
                    spec,
                    depth: 0,
                    attempts: 0,
                    ready_at: Duration::ZERO,
                })
                .collect(),
            resumed: results.len(),
            results,
            connecting: cfg.listed,
            cfg,
            ..Self::default()
        }
    }

    /// The booked results, resumed ones first.
    pub(crate) fn results(&self) -> &[Entry] {
        &self.results
    }

    /// When the core next needs a [`Event::Tick`]; `None` while only
    /// outside events can move it.
    pub(crate) fn next_deadline(&self) -> Option<Duration> {
        let flights = self.links.values().filter_map(|l| l.task.as_ref());
        let supervision = flights.map(|f| f.deadline(self.cfg.liveness));
        // Queued tasks only wait on their backoff while a worker idles.
        let idle = !self.aborting && self.links.values().any(|l| l.task.is_none());
        let backoff = self.queue.iter().map(|t| t.ready_at).min().filter(|_| idle);
        let window = self.no_workers_since.map(|since| since + self.cfg.liveness);
        let next = supervision.chain(backoff).chain(window).min();
        next.filter(|_| !self.finished)
    }

    /// Feeds one event to the core at `now` (time since the campaign
    /// began) and returns the actions it decided on.
    pub(crate) fn on_event(&mut self, now: Duration, event: Event) -> Vec<Action> {
        self.now = now;
        match event {
            Event::Connected { conn, joined } => {
                self.connecting -= usize::from(!joined);
                if self.finished || self.aborting {
                    if self.finished && self.fatal.is_none() && self.cfg.shutdown_workers {
                        self.out.push(Action::Send(conn, Outgoing::Shutdown));
                    }
                    self.out.push(Action::Drop(conn));
                } else {
                    self.joined += usize::from(joined);
                    self.links.insert(conn, Link::default());
                }
            }
            // A listed worker lost even after the end still degrades the
            // campaign: the run returns only once every listed worker
            // connected or failed to.
            Event::Unreachable => {
                self.connecting -= 1;
                self.lost += 1;
            }
            Event::Frame(conn, message) => self.frame(conn, *message),
            Event::Closed(conn, e) => self.fail(conn, e),
            Event::Tick => {}
        }
        let live = self.cfg.liveness;
        let due: Vec<(ConnId, Option<Duration>)> = (self.links.iter())
            .filter_map(|(&c, l)| Some((c, l.task.as_ref()?)))
            .filter(|(_, f)| f.deadline(live) <= now)
            .map(|(c, f)| (c, f.cancel.is_none().then(|| now - f.last_signal)))
            .collect();
        for (conn, silent_for) in due {
            let e = silent_for.map_or(WireError::TaskCancelled, |silent_for| {
                WireError::LivenessExpired { silent_for }
            });
            self.fail(conn, e);
        }
        self.settle();
        std::mem::take(&mut self.out)
    }

    fn frame(&mut self, conn: ConnId, message: Message) {
        let Some(link) = self.links.get_mut(&conn) else {
            return; // already dropped
        };
        let Some(flight) = &mut link.task else {
            if !matches!(message, Message::Heartbeat) {
                self.fail(conn, WireError::UnexpectedMessage("stale result"));
            }
            return;
        };
        match (message, flight.cancel.map(|(_, reason)| reason)) {
            (Message::Heartbeat, _) => flight.last_signal = self.now,
            // The answer to our abort-Cancel: discarded either way.
            (Message::TaskDone { .. } | Message::Error(_), Some(CancelReason::Abort)) => {
                self.fail(conn, WireError::TaskCancelled);
            }
            (Message::TaskDone { result, findings }, _) => {
                // A result for another shard, or a repeat of the last one
                // booked here (split halves share their parent's id and
                // may share its length), is stale: never book it.
                let entry = (result, findings);
                let spec = &flight.task.spec;
                if entry.0.id != spec.id
                    || entry.0.points_total != spec.points.len()
                    || link.last_booked.as_ref() == Some(&entry)
                {
                    return self.fail(conn, WireError::UnexpectedMessage("stale result"));
                }
                // A completion racing a split-Cancel wins.
                let task = link.task.take().expect("in flight").task;
                link.last_booked = Some(entry.clone());
                self.complete(&task, entry);
            }
            (Message::Error(_), Some(CancelReason::Split)) => {
                let task = link.task.take().expect("in flight").task;
                self.requeue_halves(task);
            }
            (Message::Error(msg), None) => self.fail(conn, WireError::Remote(msg)),
            _ => self.fail(conn, WireError::UnexpectedMessage("task")),
        }
    }

    /// Fails a connection: its in-flight task is re-queued after its
    /// backoff, or — on the task's last permitted attempt — recorded as
    /// the campaign's fatal error, which aborts it.
    fn fail(&mut self, conn: ConnId, e: WireError) {
        let Some(link) = self.links.remove(&conn) else {
            return;
        };
        self.out.push(Action::Drop(conn));
        if self.aborting || self.finished {
            return;
        }
        let Some(InFlight { task, .. }) = link.task else {
            self.lost += 1;
            return;
        };
        let attempts = task.attempts + 1;
        if attempts >= (self.cfg.listed + self.joined).max(1) {
            return self.abort(e);
        }
        let delay = backoff_delay(attempts);
        eprintln!(
            "sympl-wire coordinator: worker {conn} failed task {} (attempt {attempts}): {e}; \
             re-queueing after {delay:?}",
            task.spec.id,
        );
        let ready_at = self.now + delay;
        self.queue.push_front(Queued {
            ready_at,
            attempts,
            ..task
        });
        self.retried += 1;
        self.lost += 1;
    }

    /// Starts an abort: in-flight tasks get a `Cancel` and a bounded wait
    /// for its acknowledgement, idle connections are dropped.
    fn abort(&mut self, e: WireError) {
        self.fatal = Some(e);
        self.aborting = true;
        for (&conn, link) in &mut self.links {
            let Some(flight) = &mut link.task else {
                self.out.push(Action::Drop(conn));
                continue;
            };
            if flight.cancel.is_none() {
                self.out.push(Action::Send(conn, Outgoing::Cancel));
            }
            let sent = flight.cancel.map_or(self.now, |(sent, _)| sent);
            flight.cancel = Some((sent, CancelReason::Abort));
        }
        self.links.retain(|_, l| l.task.is_some());
    }

    /// Hands ready tasks to idle connections, asks for splits, and
    /// decides whether the campaign is over.
    fn settle(&mut self) {
        if self.finished || (self.aborting && !self.links.is_empty()) {
            return;
        }
        let now = self.now;
        for (&conn, link) in self.links.iter_mut().filter(|(_, l)| l.task.is_none()) {
            let Some(i) = self.queue.iter().position(|t| t.ready_at <= now) else {
                break;
            };
            let task = self.queue.remove(i).expect("position() index in bounds");
            self.out
                .push(Action::Send(conn, Outgoing::Task(task.spec.clone())));
            link.task = Some(InFlight {
                task,
                last_signal: now,
                cancel: None,
            });
        }
        if self.cfg.split && self.queue.is_empty() {
            self.request_splits();
        }
        if self.aborting || (self.queue.is_empty() && self.links.values().all(|l| l.task.is_none()))
        {
            self.finish();
        } else if self.links.is_empty() && self.connecting == 0 {
            // Every worker is gone: a join listener gets one liveness
            // window to replace the fleet, then `NoWorkersLeft`.
            let since = *self.no_workers_since.get_or_insert(now);
            if !self.cfg.join_window || since + self.cfg.liveness <= now {
                self.finish();
            }
        } else {
            self.no_workers_since = None;
        }
    }

    /// Each idle connection asks the busiest splittable in-flight shard
    /// (largest, not yet asked, depth below [`MAX_SPLIT_DEPTH`]) to give
    /// half back: the victim gets a `Cancel` at once.
    fn request_splits(&mut self) {
        let idle = self.links.values().filter(|l| l.task.is_none()).count();
        let asked = (self.links.values())
            .filter(|l| l.task.as_ref().is_some_and(|f| f.cancel.is_some()))
            .count();
        for _ in asked..idle {
            let victim = (self.links.iter_mut())
                .filter_map(|(&conn, l)| Some((conn, l.task.as_mut()?)))
                .filter(|(_, f)| {
                    let (points, depth) = (f.task.spec.points.len(), f.task.depth);
                    f.cancel.is_none() && points >= 2 && depth < MAX_SPLIT_DEPTH
                })
                .max_by_key(|(_, f)| f.task.spec.points.len());
            let Some((conn, flight)) = victim else {
                return;
            };
            flight.cancel = Some((self.now, CancelReason::Split));
            self.out.push(Action::Send(conn, Outgoing::Cancel));
        }
    }

    /// Re-queues a split-cancelled task as two halves at the front of the
    /// queue, left first.
    fn requeue_halves(&mut self, task: Queued) {
        let Some((left, right)) = split_spec(&task.spec) else {
            return self.queue.push_front(task);
        };
        let mid = task.range.0 + left.points.len();
        for (spec, range) in [(right, (mid, task.range.1)), (left, (task.range.0, mid))] {
            let depth = task.depth + 1;
            let (attempts, ready_at) = (task.attempts, self.now);
            self.queue.push_front(Queued {
                spec,
                range,
                depth,
                attempts,
                ready_at,
            });
        }
        self.split += 1;
    }

    /// Books a finished dispatch: a whole shard finalizes directly; a
    /// split part waits until its siblings cover the parent's range (first
    /// writer wins per range start), then the parts merge in offset order.
    /// Then checkpoint, progress hooks and the chaos abort, in that order.
    fn complete(&mut self, task: &Queued, entry: Entry) {
        let (id, total) = (task.spec.id, self.task_points[task.spec.id]);
        let entry = if task.range == (0, total) {
            entry
        } else {
            let parts = self.parts.entry(id).or_default();
            parts.entry(task.range.0).or_insert((task.range.1, entry));
            let mut cursor = 0;
            while let Some(&(end, _)) = parts.get(&cursor) {
                cursor = end;
            }
            if cursor < total {
                return;
            }
            let parts = self.parts.remove(&id).expect("assembled parts");
            let merged = merge_part_results(parts.into_values().map(|(_, e)| e).collect());
            merged.expect("at least one part")
        };
        self.results.push(entry);
        let n = self.results.len();
        self.out
            .extend([Action::Checkpoint(n - 1), Action::Booked(n)]);
        if self.cfg.abort_after.is_some_and(|cap| n >= cap) && !self.aborting {
            self.abort(WireError::CoordinatorAborted { completed: n });
        }
    }

    fn finish(&mut self) {
        self.finished = true;
        let release = self.fatal.is_none() && self.cfg.shutdown_workers;
        for conn in std::mem::take(&mut self.links).into_keys() {
            if release {
                self.out.push(Action::Send(conn, Outgoing::Shutdown));
            }
            self.out.push(Action::Drop(conn));
        }
        self.out.push(Action::Finish);
    }

    /// The campaign's outcome once [`Action::Finish`] was emitted: the
    /// fatal error, [`WireError::NoWorkersLeft`] with tasks still
    /// queued, or the pooled report and its telemetry.
    pub(crate) fn into_outcome(self, elapsed: Duration) -> Result<CampaignReport, WireError> {
        match (self.fatal, self.queue.len()) {
            (Some(e), _) => return Err(e),
            (None, pending @ 1..) => return Err(WireError::NoWorkersLeft { pending }),
            (None, 0) => {}
        }
        Ok(CampaignReport {
            degraded: self.lost > 0,
            workers_lost: self.lost,
            tasks_retried: self.retried,
            resumed_tasks: self.resumed,
            workers_joined: self.joined,
            tasks_split: self.split,
            ..pool_results(self.results, elapsed)
        })
    }
}

#[cfg(test)]
pub(crate) mod explorer;
