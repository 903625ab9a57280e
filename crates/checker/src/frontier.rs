//! The pluggable frontier subsystem: which state the engine expands next,
//! and where the not-yet-expanded states live.
//!
//! The engine ([`crate::Explorer`]) drives its frontier exclusively
//! through the [`FrontierQueue`] trait — push, pop, byte accounting, and
//! round control all live behind it, so **adding a frontier policy is a
//! change to this file only**: no engine, campaign, or report code matches
//! on the policy anywhere else.
//!
//! # Policies and their determinism contracts
//!
//! A search that **exhausts** its state space expands every distinct state
//! exactly once under *any* policy, so outcome counts and the canonical
//! solution set are policy-independent — the equivalence property tests pin
//! Bfs/Dfs/Priority/Spilling against each other on the paper workloads.
//! What each policy additionally guarantees:
//!
//! * [`FrontierPolicy::Bfs`] — FIFO; searches find shortest witnesses
//!   first (Maude's `search =>!`). The default.
//! * [`FrontierPolicy::Dfs`] — LIFO; dives to terminals with a much
//!   smaller live frontier; witnesses are not length-minimal.
//! * [`FrontierPolicy::Priority`] — binary heap on a pluggable
//!   [`PriorityHeuristic`], ties broken by the state's 128-bit fingerprint
//!   (smallest first), so the expansion order — and therefore every
//!   truncated-search prefix — is a pure function of the state *contents*,
//!   never of allocation or scheduling accidents.
//! * [`FrontierPolicy::IterativeDeepening`] — depth-bounded DFS restarted
//!   from the root seeds with a rising bound and a **dedup reset per
//!   round**; its live frontier is O(depth), the memory-minimal discipline
//!   for catastrophic hunts. Completed searches report the final (deepest,
//!   complete) round, so terminal counts and solutions match the other
//!   policies; `states_explored` counts every round's work, which is the
//!   honest IDDFS re-expansion cost.
//!
//! # Disk spilling
//!
//! [`SpillingFrontier`] wraps the FIFO/LIFO disciplines with a bounded
//! in-RAM window: overflow is encoded through the compact state codec
//! (`sympl_machine::codec`) into segments; when the window drains, the
//! appropriate segment is replayed back (decoded states re-derive their
//! rolling fingerprint folds, pinned to `fingerprint_from_scratch` by the
//! codec tests). Consecutive segments append to one shared file in a
//! private temp directory until it holds a mebibyte, and each replay reads
//! its segment's byte range; a file is deleted once it takes no more
//! appends and every segment in it has been replayed. So a small window,
//! whose segments hold a few states each, does not pay a file creation and
//! deletion per segment. Only the file taking appends has a writer, and
//! replays keep one read handle, so a spill of any size holds at most two
//! descriptors. A LIFO replay truncates its segment off the end of its
//! file, so a DFS keeps only live records on disk. The
//! strata are arranged so FIFO and LIFO pop order are preserved **exactly**
//! — a spilling search expands states in the same order as its unbounded
//! twin, which is what lets exhaustive searches whose frontier exceeds RAM
//! reproduce the unbounded run's outcome counts and solution sets verbatim.
//! A segment is written as a keyframe plus delta records
//! (`sympl_machine::codec`): its first state is a one-shot record that
//! decodes alone, and each later one holds only what differs from the
//! state written before it — the header, the registers that changed, and
//! each of the memory image, input, output and constraint map that is not
//! the previous state's — with a check that refuses a damaged record. The
//! encoding context belongs to the segment being written and the decoding
//! context to the one being replayed: the frontier resets the encoder at a
//! segment's first stored state and the decoder at the start of its
//! replay, so each segment decodes alone and FIFO order, LIFO's reversed
//! segment order and LIFO truncation need nothing from their neighbours.
//! A fork rule's siblings differ in a register or two, so most records
//! take a few dozen bytes, and replayed states share one memory image,
//! input, output stream and constraint map for as long as their records
//! say so.
//!
//! The spill budget rides in `SearchLimits::max_frontier_bytes`; the
//! priority and iterative-deepening policies ignore it (a heap spill would
//! break the global order, and iterative deepening's frontier is O(depth)
//! by design — pick one of them *or* a spilling Bfs/Dfs window, not both).
//!
//! # State-capped BFS
//!
//! A breadth-first search capped at `max_states` expands states in push
//! order, so a successor enqueued once `popped + queued ≥ max_states`
//! can never be expanded: the cap stops the search first. The engine
//! hands its state cap to the frontier as a *pop budget*
//! ([`FrontierPolicy::build_budgeted`]), and both FIFO queues — the
//! in-RAM [`FifoQueue::with_pop_budget`] and the spilling
//! [`SpillingFrontier::with_pop_budget`] — drop such a state instead of
//! storing it. They still count the state in [`FrontierQueue::len`] and
//! [`FrontierQueue::approx_bytes`], so a report's `peak_frontier_len` and
//! `peak_frontier_bytes` read exactly as for an unbudgeted queue: they
//! describe the open set, stored or not. Once the budget is spent,
//! [`FrontierQueue::pop`] returns `None` while `len()` stays above zero,
//! and the engine reads that as the state cap — at exactly the point where
//! an unbudgeted queue would hand it the (cap+1)-th state. The engine
//! still fingerprints and records every successor, so duplicate counts and
//! witness traces do not move.
//!
//! The spilling FIFO never encodes or writes a dropped state. Dropped
//! states form a suffix of the queue (it is FIFO, and once the budget is
//! spent it stays spent), so each is counted where the unbudgeted queue
//! would have put it: in the RAM window's tail, or in the back segment's
//! tail, where it adds to [`FrontierQueue::spilled_states`] and to the
//! segment's byte figure that decides when the next segment starts. A
//! replayed segment hands its counted tail on to the window, and a segment
//! of dropped states only never opens a file and is never replayed. So
//! `spilled_states` — states pushed past the RAM window, stored or not —
//! reads exactly as for an unbudgeted queue too. LIFO, priority and
//! iterative deepening do not pop in push order and ignore the budget.
//!
//! # Step-layered dedup
//!
//! The same push-order fact lets the engine forget most of its visited
//! set. A state's watchdog step count is part of its identity, and no
//! successor has fewer steps than its parent, so the engine's visited set
//! keeps one fingerprint table per step count. On a queue whose
//! [`FrontierQueue::serves_in_push_order`] holds, the search runs in
//! generations: once every state queued when a generation began has been
//! served and expanded, no later state can have fewer steps than the
//! least pushed meanwhile, and every table below that floor is dropped.
//! Both FIFO queues, in RAM and spilling, answer `true`; LIFO, priority
//! and iterative deepening keep the whole set (iterative deepening still
//! resets it each round). A state is a duplicate when it matches on step
//! count and fingerprint. The fingerprint already hashes the step count,
//! so this differs from fingerprint-only dedup only where two states with
//! different counts share all 128 bits.

use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use sympl_machine::{Fingerprint, MachineState, StateDecoder, StateEncoder};

/// The frontier discipline configuration: which state the engine expands
/// next. See the [module docs](self) for each policy's determinism
/// contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrontierPolicy {
    /// Breadth-first (the paper's exhaustive `search =>!`): shortest
    /// witness traces are found first.
    #[default]
    Bfs,
    /// Depth-first: reaches terminals with a much smaller live frontier;
    /// witness traces are not length-minimal.
    Dfs,
    /// Best-first on a pluggable heuristic, ties broken canonically by
    /// state fingerprint.
    Priority(PriorityHeuristic),
    /// Depth-bounded DFS with a rising bound, re-seeded from the roots
    /// with a dedup reset each round.
    IterativeDeepening {
        /// Depth bound (in executed instructions past the shallowest seed)
        /// of the first round.
        initial_depth: u64,
        /// Bound increase per round.
        depth_step: u64,
    },
}

/// The key a [`FrontierPolicy::Priority`] frontier orders by. Largest key
/// pops first; ties break by smallest fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorityHeuristic {
    /// Most-constrained first: states whose constraint map has the most
    /// entries are deepest into the interesting (symbolic) branching and
    /// closest to resolution or pruning.
    ConstraintMapSize,
    /// Deepest first (by the watchdog instruction counter): a quasi-DFS
    /// with a single globally-ordered frontier.
    Depth,
    /// Longest output first: drives toward states that have already
    /// produced observable behavior — useful when the predicate is about
    /// the output stream.
    OutputLen,
}

impl PriorityHeuristic {
    fn key(self, state: &MachineState) -> u64 {
        match self {
            PriorityHeuristic::ConstraintMapSize => state.constraints().len() as u64,
            PriorityHeuristic::Depth => state.steps(),
            PriorityHeuristic::OutputLen => state.output().len() as u64,
        }
    }
}

impl FrontierPolicy {
    /// Iterative-deepening with the default round geometry (first bound 64
    /// instructions past the shallowest seed, +64 per round).
    #[must_use]
    pub fn iterative_deepening() -> Self {
        FrontierPolicy::IterativeDeepening {
            initial_depth: 64,
            depth_step: 64,
        }
    }

    /// Whether this policy restarts in rounds (the engine must reset its
    /// visited set between rounds; see [`FrontierQueue::next_round`]).
    #[must_use]
    pub fn is_iterative(&self) -> bool {
        matches!(self, FrontierPolicy::IterativeDeepening { .. })
    }

    /// One-line determinism contract per policy, for reports and CLI help.
    /// Exhausted searches are policy-independent (same outcome counts and
    /// canonical solution set); this describes what each policy additionally
    /// guarantees about *order*.
    #[must_use]
    pub fn determinism_contract(&self) -> &'static str {
        match self {
            FrontierPolicy::Bfs => {
                "FIFO: searches find shortest witnesses first; \
                 exhausted searches are policy-independent"
            }
            FrontierPolicy::Dfs => {
                "LIFO: smallest live frontier to a first witness; \
                 witness traces are not length-minimal"
            }
            FrontierPolicy::Priority(_) => {
                "best-first: expansion order is a pure function of state \
                 contents (heuristic key, then fingerprint), so truncated \
                 prefixes are reproducible"
            }
            FrontierPolicy::IterativeDeepening { .. } => {
                "depth-bounded DFS rounds with per-round dedup reset: \
                 completed searches report the final complete round; \
                 states_explored includes the per-round re-expansion cost"
            }
        }
    }

    /// Builds a frontier queue implementing this policy. `max_frontier_bytes`
    /// bounds the in-RAM window for Bfs/Dfs (overflow spills to disk); the
    /// priority and iterative-deepening policies ignore it (see the module
    /// docs). The queue has no pop budget.
    #[must_use]
    pub fn build<M: Clone + 'static>(
        &self,
        max_frontier_bytes: Option<usize>,
    ) -> Box<dyn FrontierQueue<M>> {
        self.build_budgeted(max_frontier_bytes, usize::MAX)
    }

    /// [`build`](Self::build) for a search that expands at most
    /// `pop_budget` states: a Bfs queue, spilling or not, stores only the
    /// states it can still serve (see the module docs' state-capped BFS
    /// section); every other policy ignores the budget.
    #[must_use]
    pub fn build_budgeted<M: Clone + 'static>(
        &self,
        max_frontier_bytes: Option<usize>,
        pop_budget: usize,
    ) -> Box<dyn FrontierQueue<M>> {
        match (*self, max_frontier_bytes) {
            (FrontierPolicy::Bfs, None) => Box::new(FifoQueue::with_pop_budget(pop_budget)),
            (FrontierPolicy::Bfs, Some(window)) => Box::new(SpillingFrontier::with_pop_budget(
                SpillOrder::Fifo,
                window,
                pop_budget,
            )),
            (FrontierPolicy::Dfs, None) => Box::new(LifoQueue::new()),
            (FrontierPolicy::Dfs, Some(budget)) => {
                Box::new(SpillingFrontier::new(SpillOrder::Lifo, budget))
            }
            (FrontierPolicy::Priority(h), _) => Box::new(PriorityFrontier::new(h)),
            (
                FrontierPolicy::IterativeDeepening {
                    initial_depth,
                    depth_step,
                },
                _,
            ) => Box::new(IddQueue::new(initial_depth, depth_step)),
        }
    }
}

/// A frontier of not-yet-expanded states, each carrying an engine-chosen
/// trace token `M` (the explorer's parent-arena index).
///
/// Everything the engine does to a frontier goes through this trait —
/// including iterative-deepening round control, and whether the queue
/// serves in push order, which decides the pop budget and whether the
/// engine's visited set drops step layers — so a new policy is a new
/// implementation here and nothing else.
pub trait FrontierQueue<M> {
    /// Enqueues an initial (root) state. Differs from [`push`](Self::push)
    /// only for policies that treat roots specially: iterative deepening
    /// records them for re-seeding and exempts them from the depth bound.
    fn seed(&mut self, state: MachineState, meta: M) {
        self.push(state, meta);
    }

    /// Enqueues a successor state. Policies may drop it (iterative
    /// deepening cuts beyond-bound states and remembers that a deeper round
    /// is needed).
    fn push(&mut self, state: MachineState, meta: M);

    /// Removes and returns the next state to expand, or `None` when the
    /// frontier is empty (see [`next_round`](Self::next_round) before
    /// concluding the search space is swept) or its pop budget is spent.
    /// Only the latter leaves [`len`](Self::len) above zero: a queue
    /// returns `None` with states still counted only when those states lie
    /// beyond its pop budget.
    fn pop(&mut self) -> Option<(MachineState, M)>;

    /// Number of states in the frontier (including any spilled to disk,
    /// and any pushed beyond the pop budget, which are counted but not
    /// stored).
    fn len(&self) -> usize;

    /// Whether the frontier holds no states.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes of frontier state held **in RAM** (spilled states
    /// excluded — that is the budget a spilling frontier enforces). States
    /// pushed beyond the pop budget count as if they were held, so the
    /// figure does not depend on the budget.
    fn approx_bytes(&self) -> usize;

    /// Round control for restarting policies: called when [`pop`](Self::pop)
    /// returned `None`. `Some(roots)` means another round must run — the
    /// engine resets its visited set (and per-round report state) and
    /// re-enqueues the returned roots through [`seed`](Self::seed)/dedup.
    /// `None` (the default, and every non-restarting policy) means the
    /// space is swept within the final bound.
    fn next_round(&mut self) -> Option<Vec<(MachineState, M)>> {
        None
    }

    /// Cumulative number of states this frontier pushed past its in-RAM
    /// window into a disk segment, including those beyond the pop budget,
    /// which are counted there but never written (always 0 for purely
    /// in-RAM policies).
    fn spilled_states(&self) -> usize {
        0
    }

    /// Whether this queue serves states in exactly the order they were
    /// pushed (the FIFO disciplines, in RAM or spilling). Such a queue
    /// expands a search generation by generation, which is what lets it
    /// take a pop budget and lets the engine forget visited-set layers no
    /// later state can reach (see the module docs' step-layered dedup
    /// section). `false` by default: any order but push order keeps the
    /// whole visited set.
    fn serves_in_push_order(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------
// In-RAM disciplines
// ---------------------------------------------------------------------

/// The FIFO (breadth-first) frontier, optionally with a pop budget: it
/// serves at most that many states, so it stores a push only while
/// `popped + stored` is below the budget and counts the rest without
/// keeping them (see the module docs' state-capped BFS section).
#[derive(Debug)]
pub struct FifoQueue<M> {
    items: VecDeque<(MachineState, M)>,
    bytes: usize,
    pop_budget: usize,
    popped: usize,
    /// States pushed beyond the pop budget: in `len`, never stored.
    dropped: usize,
}

impl<M> Default for FifoQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> FifoQueue<M> {
    /// An empty FIFO frontier with no pop budget.
    #[must_use]
    pub fn new() -> Self {
        Self::with_pop_budget(usize::MAX)
    }

    /// An empty FIFO frontier that serves at most `pop_budget` states.
    #[must_use]
    pub fn with_pop_budget(pop_budget: usize) -> Self {
        FifoQueue {
            items: VecDeque::new(),
            bytes: 0,
            pop_budget,
            popped: 0,
            dropped: 0,
        }
    }
}

impl<M> FrontierQueue<M> for FifoQueue<M> {
    fn push(&mut self, state: MachineState, meta: M) {
        self.bytes += state.approx_bytes();
        if self.popped + self.items.len() >= self.pop_budget {
            self.dropped += 1;
        } else {
            self.items.push_back((state, meta));
        }
    }

    fn pop(&mut self) -> Option<(MachineState, M)> {
        let item = self.items.pop_front()?;
        self.popped += 1;
        self.bytes -= item.0.approx_bytes();
        Some(item)
    }

    fn len(&self) -> usize {
        self.items.len() + self.dropped
    }

    fn approx_bytes(&self) -> usize {
        self.bytes
    }

    fn serves_in_push_order(&self) -> bool {
        true
    }
}

/// The LIFO (depth-first) frontier.
#[derive(Debug, Default)]
pub struct LifoQueue<M> {
    items: Vec<(MachineState, M)>,
    bytes: usize,
}

impl<M> LifoQueue<M> {
    /// An empty LIFO frontier.
    #[must_use]
    pub fn new() -> Self {
        LifoQueue {
            items: Vec::new(),
            bytes: 0,
        }
    }
}

impl<M> FrontierQueue<M> for LifoQueue<M> {
    fn push(&mut self, state: MachineState, meta: M) {
        self.bytes += state.approx_bytes();
        self.items.push((state, meta));
    }

    fn pop(&mut self) -> Option<(MachineState, M)> {
        let item = self.items.pop()?;
        self.bytes -= item.0.approx_bytes();
        Some(item)
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn approx_bytes(&self) -> usize {
        self.bytes
    }
}

// ---------------------------------------------------------------------
// Priority frontier
// ---------------------------------------------------------------------

struct PrioEntry<M> {
    key: u64,
    fingerprint: Fingerprint,
    state: MachineState,
    meta: M,
}

impl<M> PartialEq for PrioEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.fingerprint == other.fingerprint
    }
}

impl<M> Eq for PrioEntry<M> {}

impl<M> Ord for PrioEntry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: largest key first; among equal keys the *smallest*
        // fingerprint pops first (canonical tie-break), so the expansion
        // order is a pure function of state contents.
        (self.key, std::cmp::Reverse(self.fingerprint))
            .cmp(&(other.key, std::cmp::Reverse(other.fingerprint)))
    }
}

impl<M> PartialOrd for PrioEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The best-first frontier: a binary heap on a [`PriorityHeuristic`] key
/// with the canonical fingerprint tie-break.
pub struct PriorityFrontier<M> {
    heap: BinaryHeap<PrioEntry<M>>,
    heuristic: PriorityHeuristic,
    bytes: usize,
}

impl<M> PriorityFrontier<M> {
    /// An empty best-first frontier ordered by `heuristic`.
    #[must_use]
    pub fn new(heuristic: PriorityHeuristic) -> Self {
        PriorityFrontier {
            heap: BinaryHeap::new(),
            heuristic,
            bytes: 0,
        }
    }
}

impl<M> FrontierQueue<M> for PriorityFrontier<M> {
    fn push(&mut self, state: MachineState, meta: M) {
        self.bytes += state.approx_bytes();
        self.heap.push(PrioEntry {
            key: self.heuristic.key(&state),
            fingerprint: state.fingerprint(),
            state,
            meta,
        });
    }

    fn pop(&mut self) -> Option<(MachineState, M)> {
        let entry = self.heap.pop()?;
        self.bytes -= entry.state.approx_bytes();
        Some((entry.state, entry.meta))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn approx_bytes(&self) -> usize {
        self.bytes
    }
}

// ---------------------------------------------------------------------
// Iterative deepening
// ---------------------------------------------------------------------

/// The iterative-deepening frontier: a depth-bounded LIFO stack that
/// remembers its root seeds and restarts with a deeper bound whenever a
/// round cut any successor.
pub struct IddQueue<M> {
    stack: Vec<(MachineState, M)>,
    roots: Vec<(MachineState, M)>,
    /// The shallowest seed's instruction counter; depth is measured from
    /// here so concrete-prefix steps don't eat the bound.
    base: u64,
    bound: u64,
    step: u64,
    cut: bool,
    rounds_started: bool,
    bytes: usize,
}

impl<M> IddQueue<M> {
    /// An empty iterative-deepening frontier with the given first-round
    /// bound and per-round increment.
    #[must_use]
    pub fn new(initial_depth: u64, depth_step: u64) -> Self {
        IddQueue {
            stack: Vec::new(),
            roots: Vec::new(),
            base: u64::MAX,
            bound: initial_depth,
            step: depth_step.max(1),
            cut: false,
            rounds_started: false,
            bytes: 0,
        }
    }
}

impl<M: Clone> FrontierQueue<M> for IddQueue<M> {
    fn seed(&mut self, state: MachineState, meta: M) {
        // Roots are recorded once (the first round's seeds) and are exempt
        // from the depth bound; re-seeds after `next_round` come back
        // through here with `rounds_started` already set.
        if !self.rounds_started {
            self.base = self.base.min(state.steps());
            self.roots.push((state.clone(), meta.clone()));
        }
        self.bytes += state.approx_bytes();
        self.stack.push((state, meta));
    }

    fn push(&mut self, state: MachineState, meta: M) {
        let base = if self.base == u64::MAX { 0 } else { self.base };
        if state.steps().saturating_sub(base) > self.bound {
            // Beyond this round's bound: cut, and remember that the space
            // is not swept until a deeper round runs clean.
            self.cut = true;
            return;
        }
        self.bytes += state.approx_bytes();
        self.stack.push((state, meta));
    }

    fn pop(&mut self) -> Option<(MachineState, M)> {
        let item = self.stack.pop()?;
        self.bytes -= item.0.approx_bytes();
        Some(item)
    }

    fn len(&self) -> usize {
        self.stack.len()
    }

    fn approx_bytes(&self) -> usize {
        self.bytes
    }

    fn next_round(&mut self) -> Option<Vec<(MachineState, M)>> {
        if !self.cut {
            return None; // the last round ran clean: the space is swept.
        }
        self.cut = false;
        self.rounds_started = true;
        self.bound = self.bound.saturating_add(self.step);
        Some(self.roots.clone())
    }
}

// ---------------------------------------------------------------------
// Disk spilling
// ---------------------------------------------------------------------

/// Which in-RAM discipline a [`SpillingFrontier`] preserves across its
/// disk strata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillOrder {
    /// Breadth-first: RAM holds the *oldest* states, newer overflow appends
    /// to segments on disk, and segments replay oldest-first.
    Fifo,
    /// Depth-first: RAM holds the *newest* states (the stack top), the
    /// stack bottom spills to segments on disk, and segments replay
    /// newest-stratum-first.
    Lifo,
}

/// Distinguishes spill directories across searches within one
/// process.
static SPILL_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Encoded bytes a spill file takes before the next segment starts a new
/// one. A segment never straddles files, so a file may end past this.
const SPILL_FILE_BYTES: u64 = 1 << 20;

/// The appending file's write buffer. Delta records take a few dozen
/// bytes, so a buffer this size turns thousands of them into one write.
const SPILL_WRITE_BUFFER: usize = 64 << 10;

struct Segment<M> {
    /// Where the segment's stored states lie on disk, from its first
    /// stored state: a segment of unstored states only never touches the
    /// disk.
    span: Option<Span>,
    metas: VecDeque<M>,
    /// States pushed past a FIFO pop budget: counted at the segment's
    /// tail, after every stored state, but never encoded.
    unstored: usize,
    /// Their in-RAM bytes (part of `approx_bytes`).
    unstored_bytes: usize,
    /// Approximate **in-RAM** bytes of the states in this segment — what
    /// the window will grow by when the segment replays. Segments are
    /// capped on this figure (not the much smaller encoded size) so a
    /// refill roughly half-fills, never floods, the budgeted window.
    approx_bytes: usize,
}

/// A segment's records: a byte range of one spill file.
struct Span {
    file: u64,
    start: u64,
    len: u64,
}

/// An append-only file shared by consecutive segments. Its handles live
/// in [`SpillingFrontier`], which keeps at most one writer and one reader.
struct SpillFile {
    path: PathBuf,
    /// Bytes appended, written through or still buffered, less what LIFO
    /// replays truncated.
    len: u64,
    /// Segments with records here that have not been replayed. The file is
    /// deleted once this reaches zero and it takes no more appends.
    live: usize,
}

/// A disk-spilling wrapper around the FIFO/LIFO disciplines: a bounded
/// in-RAM window plus sequential codec-encoded segments, appended to
/// shared files in a private temp directory. Pop order is **exactly** the
/// unbounded discipline's — see the [module docs](self) for the strata
/// layout per order.
///
/// Trace tokens (`M`) stay in RAM (they are pointer-sized; the hundreds of
/// bytes per state are what spills), kept in per-segment queues zipped back
/// with their states on replay.
pub struct SpillingFrontier<M> {
    order: SpillOrder,
    ram: VecDeque<(MachineState, M)>,
    /// States pushed past the pop budget counted at the window's tail
    /// (their bytes are in `ram_bytes`).
    ram_unstored: usize,
    ram_bytes: usize,
    budget: usize,
    /// Approximate in-RAM bytes per segment before a new one starts; sized
    /// so a replayed segment roughly half-fills (never floods) the window.
    seg_cap: usize,
    dir: Option<PathBuf>,
    /// FIFO: front = oldest stratum (next to replay). LIFO: back = the
    /// stratum directly below the RAM stack top (next to replay).
    segments: VecDeque<Segment<M>>,
    /// The spill files by id.
    files: BTreeMap<u64, SpillFile>,
    /// The file new segments append to, with the only writer open.
    appending: Option<(u64, std::io::BufWriter<std::fs::File>)>,
    /// The file replays last read, kept open for the next replay.
    reading: Option<(u64, std::fs::File)>,
    file_counter: u64,
    /// Bytes a file takes before the next segment starts a new one.
    file_cap: u64,
    /// Every state counted in [`FrontierQueue::len`]: pushed, not popped.
    queued: usize,
    spilled: usize,
    /// FIFO only: the most states the queue will ever serve, and how many
    /// it has stored so far.
    pop_budget: usize,
    kept: usize,
    encode_buf: Vec<u8>,
    read_buf: Vec<u8>,
    /// The encoding and decoding contexts of the segment being written and
    /// the one being replayed, each reset at a segment's start.
    encoder: StateEncoder,
    decoder: StateDecoder,
    /// States encoded into spill files so far.
    #[cfg(test)]
    encoded: usize,
}

impl<M> SpillingFrontier<M> {
    /// A spilling frontier preserving `order` with an in-RAM window of
    /// roughly `max_frontier_bytes`.
    #[must_use]
    pub fn new(order: SpillOrder, max_frontier_bytes: usize) -> Self {
        Self::with_pop_budget(order, max_frontier_bytes, usize::MAX)
    }

    /// [`new`](Self::new) for a search that expands at most `pop_budget`
    /// states: in FIFO order the queue stores (in RAM or on disk) only the
    /// states it can still serve and counts the rest without encoding them
    /// (see the module docs' state-capped BFS section). LIFO order ignores
    /// the budget.
    #[must_use]
    pub fn with_pop_budget(
        order: SpillOrder,
        max_frontier_bytes: usize,
        pop_budget: usize,
    ) -> Self {
        let budget = max_frontier_bytes.max(4096);
        SpillingFrontier {
            order,
            ram: VecDeque::new(),
            ram_unstored: 0,
            ram_bytes: 0,
            budget,
            seg_cap: (budget / 2).max(4096),
            dir: None,
            segments: VecDeque::new(),
            files: BTreeMap::new(),
            appending: None,
            reading: None,
            file_counter: 0,
            file_cap: SPILL_FILE_BYTES,
            queued: 0,
            spilled: 0,
            pop_budget: match order {
                SpillOrder::Fifo => pop_budget,
                SpillOrder::Lifo => usize::MAX,
            },
            kept: 0,
            encode_buf: Vec::new(),
            read_buf: Vec::new(),
            encoder: StateEncoder::default(),
            decoder: StateDecoder::default(),
            #[cfg(test)]
            encoded: 0,
        }
    }

    /// The search's private spill directory, created on first use. A
    /// directory that already exists — left by a dead process whose pid
    /// this one reuses — is never adopted: the next counter is taken.
    fn spill_dir(&mut self) -> &PathBuf {
        self.dir.get_or_insert_with(|| loop {
            let dir = std::env::temp_dir().join(format!(
                "symplfied-spill-{}-{}",
                std::process::id(),
                SPILL_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            match std::fs::create_dir(&dir) {
                Ok(()) => break dir,
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
                Err(e) => panic!("failed to create the frontier spill directory: {e}"),
            }
        })
    }

    /// Starts a fresh segment at the back of the strata. It takes a span
    /// of a spill file with its first stored state.
    fn start_segment(&mut self) {
        self.segments.push_back(Segment {
            span: None,
            metas: VecDeque::new(),
            unstored: 0,
            unstored_bytes: 0,
            approx_bytes: 0,
        });
    }

    /// The back segment, after starting a new one if it is at the cap.
    /// Its span, if it has one, ends its file: a LIFO spill starts its own
    /// segment, and a FIFO push only ever appends to the newest one.
    fn back_segment(&mut self) -> &mut Segment<M> {
        let seg_cap = self.seg_cap;
        if self
            .segments
            .back()
            .is_none_or(|seg| seg.approx_bytes >= seg_cap)
        {
            self.start_segment();
        }
        self.segments.back_mut().expect("segment just ensured")
    }

    /// The file a new segment appends to: the current one while it is
    /// below `file_cap`, else a new one. The file left behind is flushed
    /// and its writer closed, and it is deleted if it holds no live segment
    /// any more.
    fn file_for_new_segment(&mut self) -> u64 {
        if let Some((id, _)) = self.appending {
            if self.files[&id].len < self.file_cap {
                return id;
            }
            self.close_writer();
            if self.files[&id].live == 0 {
                self.delete_file(id);
            }
        }
        let id = self.file_counter;
        self.file_counter += 1;
        let path = self.spill_dir().join(format!("spill-{id}.bin"));
        let file = std::fs::OpenOptions::new()
            .append(true)
            .create_new(true)
            .open(&path)
            .expect("failed to create a frontier spill file");
        self.files.insert(
            id,
            SpillFile {
                path,
                len: 0,
                live: 0,
            },
        );
        self.appending = Some((
            id,
            std::io::BufWriter::with_capacity(SPILL_WRITE_BUFFER, file),
        ));
        id
    }

    /// Writes out what the appending file's writer buffers.
    fn flush_writer(&mut self) {
        if let Some((_, w)) = &mut self.appending {
            w.flush().expect("failed to flush a frontier spill file");
        }
    }

    /// Flushes and closes the appending file's writer; the file takes no
    /// more appends.
    fn close_writer(&mut self) {
        self.flush_writer();
        self.appending = None;
    }

    fn is_appending(&self, id: u64) -> bool {
        self.appending.as_ref().is_some_and(|(a, _)| *a == id)
    }

    fn delete_file(&mut self, id: u64) {
        debug_assert!(
            !self.is_appending(id),
            "the appending file is never deleted"
        );
        let file = self.files.remove(&id).expect("a spill file to delete");
        if self.reading.as_ref().is_some_and(|(r, _)| *r == id) {
            self.reading = None;
        }
        let _ = std::fs::remove_file(&file.path);
    }

    /// Encodes one state onto the back segment (opening a new one at the
    /// cap), recording its meta in the segment's RAM-side queue. A
    /// segment's first record is a keyframe, so its replay decodes alone.
    fn append_to_back_segment(&mut self, state: MachineState, meta: M) {
        if self.back_segment().span.is_none() {
            self.encoder.reset();
            let id = self.file_for_new_segment();
            let file = self.files.get_mut(&id).expect("the file just chosen");
            file.live += 1;
            let start = file.len;
            let seg = self.segments.back_mut().expect("segment just ensured");
            seg.span = Some(Span {
                file: id,
                start,
                len: 0,
            });
        }
        let approx_bytes = state.approx_bytes();
        self.encode_buf.clear();
        self.encoder.encode(state, &mut self.encode_buf);
        #[cfg(test)]
        {
            self.encoded += 1;
        }
        let seg = self.segments.back_mut().expect("segment just ensured");
        debug_assert_eq!(seg.unstored, 0, "stored states precede unstored ones");
        let span = seg.span.as_mut().expect("span just ensured");
        let (id, writer) = self
            .appending
            .as_mut()
            .expect("the back segment's file takes appends");
        debug_assert_eq!(*id, span.file, "the back segment is in the appending file");
        let file = self.files.get_mut(id).expect("a live segment's file");
        debug_assert_eq!(span.start + span.len, file.len, "a segment ends its file");
        writer
            .write_all(&self.encode_buf)
            .expect("failed to append to a frontier spill file");
        let n = self.encode_buf.len() as u64;
        file.len += n;
        span.len += n;
        seg.approx_bytes += approx_bytes;
        seg.metas.push_back(meta);
        self.spilled += 1;
    }

    /// Reads a segment's records back into `read_buf`. A LIFO segment ends
    /// its file, so it is truncated away. A file is deleted once it holds
    /// no live segment and takes no more appends.
    fn read_span(&mut self, span: &Span) {
        if self.is_appending(span.file) {
            self.flush_writer();
        }
        if self.reading.as_ref().is_none_or(|(r, _)| *r != span.file) {
            let reader = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&self.files[&span.file].path)
                .expect("failed to open a frontier spill file");
            self.reading = Some((span.file, reader));
        }
        let (_, reader) = self.reading.as_mut().expect("reader just ensured");
        let len = usize::try_from(span.len).expect("a segment fits in memory");
        self.read_buf.resize(len, 0);
        reader
            .seek(SeekFrom::Start(span.start))
            .and_then(|_| reader.read_exact(&mut self.read_buf))
            .expect("failed to read back a frontier spill segment");
        let file = self
            .files
            .get_mut(&span.file)
            .expect("a live segment's file");
        file.live -= 1;
        if self.order == SpillOrder::Lifo {
            debug_assert_eq!(
                span.start + span.len,
                file.len,
                "a LIFO replay ends its file"
            );
            // The writer appends, so its next record lands at the new end.
            reader
                .set_len(span.start)
                .expect("failed to truncate a frontier spill file");
            file.len = span.start;
        }
        if file.live == 0 && !self.is_appending(span.file) {
            self.delete_file(span.file);
        }
    }

    /// Decodes a whole segment back into the (empty) RAM window, in file
    /// order; its unstored tail moves to the window's. The decoder starts
    /// at the segment's keyframe and hands each later state the components
    /// its delta record marks unchanged, with their folds; the codec stream
    /// property tests pin every decoded state to the written one and its
    /// `fingerprint_from_scratch`, and so does the debug assertion below.
    fn replay(&mut self, mut seg: Segment<M>) {
        debug_assert!(
            self.ram.is_empty() && self.ram_unstored == 0,
            "replay only refills a drained window"
        );
        let span = seg.span.expect("a replayed segment holds stored states");
        self.read_span(&span);
        self.decoder.reset();
        let mut pos = 0usize;
        while pos < self.read_buf.len() {
            let (state, consumed) = self
                .decoder
                .decode(&self.read_buf[pos..])
                .expect("corrupt frontier spill segment");
            pos += consumed;
            debug_assert_eq!(state.fingerprint(), state.fingerprint_from_scratch());
            let meta = seg.metas.pop_front().expect("one meta per spilled state");
            self.ram_bytes += state.approx_bytes();
            self.ram.push_back((state, meta));
        }
        debug_assert!(seg.metas.is_empty(), "one spilled state per meta");
        self.ram_unstored = seg.unstored;
        self.ram_bytes += seg.unstored_bytes;
    }

    /// Refills the RAM window from the next stratum, if it holds a state
    /// the queue can serve. Unstored states lie past the pop budget, so
    /// once one is next in line nothing is replayed.
    fn refill(&mut self) -> bool {
        let next = match self.order {
            SpillOrder::Fifo => self.segments.front(),
            SpillOrder::Lifo => self.segments.back(),
        };
        if self.ram_unstored > 0 || next.is_none_or(|seg| seg.metas.is_empty()) {
            return false;
        }
        let seg = match self.order {
            SpillOrder::Fifo => self.segments.pop_front(),
            SpillOrder::Lifo => self.segments.pop_back(),
        };
        self.replay(seg.expect("checked above"));
        true
    }

    fn ram_push(&mut self, state: MachineState, meta: M) {
        self.ram_bytes += state.approx_bytes();
        self.ram.push_back((state, meta));
    }

    fn ram_pop_front(&mut self) -> Option<(MachineState, M)> {
        let item = self.ram.pop_front()?;
        self.ram_bytes -= item.0.approx_bytes();
        Some(item)
    }

    fn ram_pop_back(&mut self) -> Option<(MachineState, M)> {
        let item = self.ram.pop_back()?;
        self.ram_bytes -= item.0.approx_bytes();
        Some(item)
    }
}

impl<M> FrontierQueue<M> for SpillingFrontier<M> {
    fn push(&mut self, state: MachineState, meta: M) {
        self.queued += 1;
        match self.order {
            SpillOrder::Fifo => {
                let stored = self.kept < self.pop_budget;
                self.kept += usize::from(stored);
                // Pushes are the newest states. Once any stratum exists (or
                // the window is full) they must go behind it, or they would
                // jump the queue.
                let to_ram = self.segments.is_empty() && self.ram_bytes < self.budget;
                match (to_ram, stored) {
                    (true, true) => self.ram_push(state, meta),
                    (false, true) => self.append_to_back_segment(state, meta),
                    (true, false) => {
                        self.ram_bytes += state.approx_bytes();
                        self.ram_unstored += 1;
                    }
                    (false, false) => {
                        let seg = self.back_segment();
                        seg.approx_bytes += state.approx_bytes();
                        seg.unstored_bytes += state.approx_bytes();
                        seg.unstored += 1;
                        self.spilled += 1;
                    }
                }
            }
            SpillOrder::Lifo => {
                // Pushes always land on the stack top (RAM); the *bottom*
                // half of the window spills when it overflows, preserving
                // exact LIFO across strata.
                self.ram_push(state, meta);
                if self.ram_bytes > self.budget && self.ram.len() >= 2 {
                    let spill_count = self.ram.len() / 2;
                    self.start_segment();
                    for _ in 0..spill_count {
                        let (s, m) = self.ram_pop_front().expect("counted above");
                        self.append_to_back_segment(s, m);
                    }
                    // A spill is a whole segment: write it out now rather
                    // than hold its tail in the writer's buffer.
                    self.flush_writer();
                }
            }
        }
    }

    fn pop(&mut self) -> Option<(MachineState, M)> {
        let pop_end = match self.order {
            SpillOrder::Fifo => Self::ram_pop_front,
            SpillOrder::Lifo => Self::ram_pop_back,
        };
        let item = match pop_end(self) {
            Some(item) => Some(item),
            None if self.refill() => pop_end(self),
            None => None,
        };
        self.queued -= usize::from(item.is_some());
        item
    }

    fn len(&self) -> usize {
        self.queued
    }

    fn approx_bytes(&self) -> usize {
        self.ram_bytes
    }

    fn spilled_states(&self) -> usize {
        self.spilled
    }

    fn serves_in_push_order(&self) -> bool {
        self.order == SpillOrder::Fifo
    }
}

impl<M> Drop for SpillingFrontier<M> {
    fn drop(&mut self) {
        self.appending = None;
        self.reading = None;
        for file in self.files.values() {
            let _ = std::fs::remove_file(&file.path);
        }
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympl_asm::Reg;
    use sympl_symbolic::Value;

    /// Distinct states (the step counter distinguishes them) with some bulk
    /// so byte budgets mean something.
    fn state(tag: u64) -> MachineState {
        let mut s = MachineState::new();
        s.load_memory((0..32).map(|i| (i * 8, i as i64)));
        s.set_reg(Reg::r(3), Value::Int(tag as i64));
        for _ in 0..tag {
            s.bump_steps();
        }
        s
    }

    fn drain<M>(q: &mut dyn FrontierQueue<M>) -> Vec<(MachineState, M)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn fifo_and_lifo_orders() {
        let mut fifo = FifoQueue::new();
        let mut lifo = LifoQueue::new();
        for i in 0..5u64 {
            fifo.push(state(i), i);
            lifo.push(state(i), i);
        }
        assert_eq!(fifo.len(), 5);
        assert!(fifo.approx_bytes() > 0);
        let fifo_metas: Vec<u64> = drain(&mut fifo).into_iter().map(|(_, m)| m).collect();
        let lifo_metas: Vec<u64> = drain(&mut lifo).into_iter().map(|(_, m)| m).collect();
        assert_eq!(fifo_metas, vec![0, 1, 2, 3, 4]);
        assert_eq!(lifo_metas, vec![4, 3, 2, 1, 0]);
        assert_eq!(fifo.approx_bytes(), 0, "byte accounting drains to zero");
        assert_eq!(lifo.approx_bytes(), 0);
    }

    #[test]
    fn budgeted_fifo_counts_the_pushes_it_does_not_store() {
        let mut q = FifoQueue::with_pop_budget(3);
        let mut all_bytes = 0;
        for i in 0..5u64 {
            all_bytes += state(i).approx_bytes();
            q.push(state(i), i);
        }
        assert_eq!(q.len(), 5, "every push is counted");
        assert_eq!(q.approx_bytes(), all_bytes, "and charged");
        assert_eq!(q.items.len(), 3, "only the servable ones are stored");
        let served: Vec<u64> = drain(&mut q).into_iter().map(|(_, m)| m).collect();
        assert_eq!(served, vec![0, 1, 2]);
        assert_eq!(q.len(), 2, "the two beyond the budget stay counted");
        assert_eq!(
            q.approx_bytes(),
            state(3).approx_bytes() + state(4).approx_bytes()
        );
        q.push(state(5), 5);
        assert_eq!(q.len(), 3);
        assert!(q.pop().is_none(), "a spent budget serves nothing more");
    }

    #[test]
    fn budgeted_fifo_refuses_a_pop_with_states_counted_only_past_its_budget() {
        // Interleaved pushes and pops against the plain queue: until the
        // budget is spent both serve the same states; after it, the
        // budgeted queue answers `None` with the rest still counted.
        for budget in 0..8usize {
            let mut budgeted = FifoQueue::with_pop_budget(budget);
            let mut plain = FifoQueue::new();
            let mut next = 0u64;
            let mut served = 0usize;
            'rounds: for round in 0..6 {
                for _ in 0..3 {
                    budgeted.push(state(next), next);
                    plain.push(state(next), next);
                    next += 1;
                }
                for _ in 0..(1 + round % 3) {
                    assert_eq!(budgeted.len(), plain.len(), "budget {budget}");
                    assert_eq!(budgeted.approx_bytes(), plain.approx_bytes());
                    let want = plain.pop().map(|(_, m)| m);
                    let got = budgeted.pop().map(|(_, m)| m);
                    if served < budget {
                        assert_eq!(got, want, "budget {budget}: same order");
                        served += 1;
                    } else {
                        assert_eq!(got, None, "budget {budget}: spent");
                        assert!(budgeted.len() > 0, "None with states counted");
                        break 'rounds;
                    }
                }
            }
            assert!(served <= budget);
        }
    }

    #[test]
    fn unlimited_pop_budget_is_the_plain_fifo() {
        let mut budgeted = FifoQueue::with_pop_budget(usize::MAX);
        let mut reference: VecDeque<(u64, usize)> = VecDeque::new();
        for i in 0..40u64 {
            let s = state(i % 7);
            reference.push_back((i, s.approx_bytes()));
            budgeted.push(s, i);
            if i % 3 == 0 {
                let want = reference.pop_front().map(|(m, _)| m);
                assert_eq!(budgeted.pop().map(|(_, m)| m), want);
            }
            assert_eq!(budgeted.len(), reference.len());
            assert_eq!(
                budgeted.approx_bytes(),
                reference.iter().map(|&(_, b)| b).sum::<usize>()
            );
        }
        let rest: Vec<u64> = drain(&mut budgeted).into_iter().map(|(_, m)| m).collect();
        assert_eq!(rest, reference.iter().map(|&(m, _)| m).collect::<Vec<_>>());
        assert_eq!((budgeted.len(), budgeted.approx_bytes()), (0, 0));
        assert!(budgeted.pop().is_none());
    }

    #[test]
    fn only_the_bfs_queues_take_a_pop_budget() {
        let policies = [
            (FrontierPolicy::Bfs, None, true),
            (FrontierPolicy::Bfs, Some(usize::MAX), true),
            (FrontierPolicy::Bfs, Some(0), true),
            (FrontierPolicy::Dfs, None, false),
            (FrontierPolicy::Dfs, Some(0), false),
            (
                FrontierPolicy::Priority(PriorityHeuristic::Depth),
                None,
                false,
            ),
            (FrontierPolicy::iterative_deepening(), None, false),
        ];
        for (policy, spill, budgeted) in policies {
            let mut q: Box<dyn FrontierQueue<usize>> = policy.build_budgeted(spill, 2);
            for i in 0..5u64 {
                q.seed(state(i), i as usize);
            }
            let served = drain(q.as_mut()).len();
            let label = format!("{policy:?} spill={spill:?}");
            // The budget and visited-set sweeping rest on one fact.
            assert_eq!(q.serves_in_push_order(), budgeted, "{label}");
            assert_eq!(served, if budgeted { 2 } else { 5 }, "{label}");
            assert_eq!(q.len(), if budgeted { 3 } else { 0 }, "{label}");
        }
    }

    /// A state of `cells` memory words, distinct per `tag`.
    fn sized_state(tag: u64, cells: u64) -> MachineState {
        let mut s = MachineState::new();
        s.load_memory((0..cells).map(|i| (i * 8, (i ^ tag) as i64)));
        s.set_reg(Reg::r(3), Value::Int(tag as i64));
        s
    }

    /// splitmix64: a fixed, dependency-free stream for scripted tests.
    fn splitmix(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn budgeted_spilling_fifo_matches_the_unbudgeted_one() {
        // Random push/pop scripts through a budgeted and an unbudgeted
        // spilling FIFO with the smallest window (a few states), at every
        // budget from 0 to one past the number of pushes.
        let mut seed = 46u64;
        let (mut mixed_segments, mut unstored_only_segments) = (0usize, 0usize);
        for _ in 0..6 {
            // `Some(cells)` pushes a state of that many memory words; the
            // trailing pops drain both queues.
            let mut script: Vec<Option<u64>> = (0..90)
                .map(|_| (splitmix(&mut seed) % 5 < 3).then(|| splitmix(&mut seed) % 96))
                .collect();
            let n = script.iter().flatten().count();
            script.extend(std::iter::repeat_n(None, n));
            for budget in 0..=n + 1 {
                let mut budgeted: SpillingFrontier<usize> =
                    SpillingFrontier::with_pop_budget(SpillOrder::Fifo, 0, budget);
                let mut plain: SpillingFrontier<usize> = SpillingFrontier::new(SpillOrder::Fifo, 0);
                let (mut pushed, mut served, mut unstored_spills) = (0usize, 0usize, 0usize);
                for op in &script {
                    let label = format!("budget {budget}, {pushed} pushed, {served} served");
                    if let Some(cells) = *op {
                        let spilled = plain.spilled_states();
                        let state = sized_state(pushed as u64, cells);
                        budgeted.push(state.clone(), pushed);
                        plain.push(state, pushed);
                        if pushed >= budget && plain.spilled_states() > spilled {
                            unstored_spills += 1;
                        }
                        pushed += 1;
                    } else {
                        let want = plain.pop();
                        let got = budgeted.pop();
                        if served == budget && want.is_some() {
                            // The unbudgeted queue serves state budget+1.
                            assert!(got.is_none(), "{label}: the budget is spent");
                            assert!(budgeted.len() > 0, "{label}: None with states counted");
                            break;
                        }
                        assert_eq!(got, want, "{label}: the same state and meta");
                        served += usize::from(want.is_some());
                    }
                    assert_eq!(budgeted.len(), plain.len(), "{label}: len");
                    assert_eq!(
                        budgeted.approx_bytes(),
                        plain.approx_bytes(),
                        "{label}: bytes"
                    );
                    assert_eq!(
                        budgeted.spilled_states(),
                        plain.spilled_states(),
                        "{label}: spilled_states"
                    );
                    assert_eq!(plain.encoded, plain.spilled_states(), "{label}");
                    assert_eq!(
                        budgeted.encoded + unstored_spills,
                        budgeted.spilled_states(),
                        "{label}: states past the budget are never encoded"
                    );
                    for seg in &budgeted.segments {
                        if seg.unstored > 0 && seg.metas.is_empty() {
                            assert!(seg.span.is_none(), "{label}: no file for unstored states");
                            unstored_only_segments += 1;
                        } else if seg.unstored > 0 {
                            mixed_segments += 1;
                        }
                    }
                }
                if unstored_spills > 0 {
                    assert!(budgeted.encoded < budgeted.spilled_states());
                }
                if budget == 0 {
                    assert!(budgeted.dir.is_none(), "nothing stored, nothing on disk");
                }
                assert!(served <= budget);
            }
        }
        assert!(mixed_segments > 0, "mixed segments must occur");
        assert!(
            unstored_only_segments > 0,
            "unstored-only segments must occur"
        );
    }

    #[test]
    fn priority_orders_by_key_with_fingerprint_tiebreak() {
        let mut q = PriorityFrontier::new(PriorityHeuristic::Depth);
        for tag in [2u64, 5, 1, 5, 3] {
            q.push(state(tag), tag);
        }
        // One of the two 5-deep states pops first (smallest fingerprint of
        // the pair), then the other, then 3, 2, 1.
        let metas: Vec<u64> = drain(&mut q).into_iter().map(|(_, m)| m).collect();
        assert_eq!(metas[..2], [5, 5]);
        assert_eq!(metas[2..], [3, 2, 1]);
        assert_eq!(q.approx_bytes(), 0);

        // The tie-break is canonical: the same contents always pop in the
        // same order regardless of insertion order.
        let run = |tags: &[u64]| {
            let mut q = PriorityFrontier::new(PriorityHeuristic::ConstraintMapSize);
            for &t in tags {
                q.push(state(t), t);
            }
            drain(&mut q)
                .into_iter()
                .map(|(_, m)| m)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(&[1, 2, 3, 4]), run(&[4, 3, 2, 1]));
    }

    #[test]
    fn priority_heuristics_read_the_right_component() {
        let mut s = state(0);
        s.push_output(sympl_machine::OutItem::Val(Value::Int(1)));
        assert_eq!(PriorityHeuristic::OutputLen.key(&s), 1);
        assert_eq!(PriorityHeuristic::Depth.key(&state(7)), 7);
        let mut c = state(0);
        let _ = c.constraints_mut().constrain(
            sympl_symbolic::Location::reg(3),
            sympl_symbolic::Constraint::Gt(0),
        );
        assert_eq!(PriorityHeuristic::ConstraintMapSize.key(&c), 1);
    }

    #[test]
    fn iterative_deepening_rounds_reseed_and_terminate() {
        let mut q: IddQueue<usize> = IddQueue::new(2, 3);
        q.seed(state(10), 0); // base = 10
        q.seed(state(11), 1);
        assert_eq!(q.len(), 2);
        // Within bound (depth 2 from base 10): kept.
        q.push(state(12), 2);
        // Beyond bound: cut.
        q.push(state(13), 3);
        let popped: Vec<usize> = drain(&mut q).into_iter().map(|(_, m)| m).collect();
        assert_eq!(popped, vec![2, 1, 0], "LIFO within the round");
        // The cut forces another round with the original roots and a raised
        // bound.
        let roots = q.next_round().expect("cut state demands a deeper round");
        assert_eq!(roots.len(), 2);
        for (s, m) in roots {
            q.seed(s, m);
        }
        q.push(state(13), 3); // now within bound 5
        assert_eq!(q.len(), 3);
        let _ = drain(&mut q);
        assert!(q.next_round().is_none(), "clean round ends the search");
    }

    #[test]
    fn spilling_fifo_preserves_exact_order_across_strata() {
        // A budget that fits only a couple of states forces heavy spilling.
        let budget = state(0).approx_bytes() * 2;
        let mut q: SpillingFrontier<u64> = SpillingFrontier::new(SpillOrder::Fifo, budget);
        let mut reference: VecDeque<u64> = VecDeque::new();
        let mut next = 0u64;
        // Interleave pushes and pops so refills happen mid-stream.
        for round in 0..6 {
            for _ in 0..10 {
                q.push(state(next), next);
                reference.push_back(next);
                next += 1;
            }
            for _ in 0..(3 + round) {
                let (s, m) = q.pop().expect("reference nonempty");
                assert_eq!(m, reference.pop_front().unwrap());
                assert_eq!(s, state(m), "spilled state round-trips");
                assert_eq!(s.fingerprint(), s.fingerprint_from_scratch());
            }
        }
        assert!(q.spilled_states() > 0, "budget must have forced spills");
        // The window never grows past the (floor-clamped) budget by more
        // than one state: RAM fills to the budget before spilling starts,
        // and a refill brings back at most one ~half-budget segment.
        let effective = budget.max(4096);
        assert!(
            q.approx_bytes() <= effective + state(0).approx_bytes(),
            "window stays near the budget: {} vs {}",
            q.approx_bytes(),
            effective
        );
        while let Some((_, m)) = q.pop() {
            assert_eq!(m, reference.pop_front().unwrap());
        }
        assert!(reference.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn spilling_lifo_preserves_exact_order_across_strata() {
        let budget = state(0).approx_bytes() * 2;
        let mut q: SpillingFrontier<u64> = SpillingFrontier::new(SpillOrder::Lifo, budget);
        let mut reference: Vec<u64> = Vec::new();
        let mut next = 0u64;
        for _ in 0..6 {
            for _ in 0..10 {
                q.push(state(next), next);
                reference.push(next);
                next += 1;
            }
            for _ in 0..4 {
                let (_, m) = q.pop().expect("reference nonempty");
                assert_eq!(m, reference.pop().unwrap());
            }
        }
        assert!(q.spilled_states() > 0);
        while let Some((_, m)) = q.pop() {
            assert_eq!(m, reference.pop().unwrap());
        }
        assert!(reference.is_empty());
    }

    #[test]
    fn spill_directory_is_cleaned_up_on_drop() {
        let budget = 4096;
        let mut q: SpillingFrontier<u64> = SpillingFrontier::new(SpillOrder::Fifo, budget);
        for i in 0..200 {
            q.push(state(i), i);
        }
        assert!(q.spilled_states() > 0);
        let dir = q.dir.clone().expect("spilling created a directory");
        assert!(dir.exists());
        drop(q);
        assert!(!dir.exists(), "drop removes segments and the directory");
    }

    #[test]
    fn a_stale_spill_directory_is_never_adopted() {
        // Directories a dead process with this pid could have left under
        // the next names the counter hands out, each with a file in it.
        let next = SPILL_DIR_COUNTER.load(Ordering::Relaxed);
        let stale: Vec<PathBuf> = (next..next + 64)
            .map(|n| {
                std::env::temp_dir().join(format!("symplfied-spill-{}-{n}", std::process::id()))
            })
            .collect();
        for dir in &stale {
            std::fs::create_dir(dir).expect("a stale directory");
            std::fs::write(dir.join("spill-0.bin"), b"stale").expect("a stale file");
        }
        let mut q: SpillingFrontier<u64> = SpillingFrontier::new(SpillOrder::Fifo, 4096);
        for i in 0..200 {
            q.push(state(i), i);
        }
        let dir = q.dir.clone().expect("spilling created a directory");
        assert!(!stale.contains(&dir), "{} adopted", dir.display());
        while let Some((s, m)) = q.pop() {
            assert_eq!(s, state(m));
        }
        drop(q);
        for dir in &stale {
            let left = std::fs::read(dir.join("spill-0.bin")).expect("untouched");
            assert_eq!(left, b"stale");
            std::fs::remove_dir_all(dir).expect("remove a stale directory");
        }
    }

    #[test]
    fn consecutive_segments_share_a_file_until_it_is_replayed() {
        let files_on_disk = |q: &SpillingFrontier<u64>| {
            let dir = q.dir.as_ref().expect("spilling created a directory");
            std::fs::read_dir(dir).expect("spill directory").count()
        };
        let mut q: SpillingFrontier<u64> = SpillingFrontier::new(SpillOrder::Fifo, 4096);
        let mut pushed = 0u64;
        while q.files.len() < 2 {
            q.push(state(pushed % 64), pushed);
            pushed += 1;
        }
        // A 4 KiB window's segments hold a few states each, and every one
        // of them so far went into the first file.
        assert!(q.segments.len() > 100, "{} segments", q.segments.len());
        assert_eq!(files_on_disk(&q), 2);
        assert_eq!(q.len(), pushed as usize);
        for want in 0..pushed {
            let (s, m) = q.pop().expect("a queued state");
            assert_eq!((m, s), (want, state(want % 64)));
            assert_eq!(q.len(), (pushed - want - 1) as usize);
        }
        // The full file went once its last segment replayed; the one new
        // segments append to stays until the queue is dropped.
        assert_eq!(files_on_disk(&q), 1);
        assert!(q.pop().is_none());
    }

    /// Descriptors this process holds open on files in `dir`.
    #[cfg(target_os = "linux")]
    fn descriptors_open_in(dir: &std::path::Path) -> usize {
        std::fs::read_dir("/proc/self/fd")
            .expect("the process's descriptor table")
            .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
            .filter(|target| target.starts_with(dir))
            .count()
    }

    /// Total bytes of the files in a spill directory.
    fn bytes_on_disk<M>(q: &SpillingFrontier<M>) -> u64 {
        let dir = q.dir.as_ref().expect("spilling created a directory");
        std::fs::read_dir(dir)
            .expect("spill directory")
            .map(|e| e.expect("a spill file").metadata().expect("its size").len())
            .sum()
    }

    /// Encoded bytes of the segments not yet replayed.
    fn live_span_bytes<M>(q: &SpillingFrontier<M>) -> u64 {
        q.segments
            .iter()
            .filter_map(|seg| seg.span.as_ref())
            .map(|span| span.len)
            .sum()
    }

    #[test]
    fn a_spill_across_many_files_holds_one_writer_and_one_reader() {
        let mut q: SpillingFrontier<u64> = SpillingFrontier::new(SpillOrder::Fifo, 4096);
        q.file_cap = 4096;
        let (mut pushed, mut popped) = (0u64, 0u64);
        let check = |q: &SpillingFrontier<u64>| {
            assert!(q.reading.is_none() || q.files.contains_key(&q.reading.as_ref().unwrap().0));
            #[cfg(target_os = "linux")]
            if let Some(dir) = &q.dir {
                let open = descriptors_open_in(dir);
                assert!(
                    open <= 2,
                    "{open} descriptors open on {} files",
                    q.files.len()
                );
            }
        };
        // Pushes outrun pops, so the spill grows across many files while
        // replays read the oldest ones.
        let mut most_files = 0;
        while pushed < 6000 {
            for _ in 0..3 {
                q.push(state(pushed % 64), pushed);
                pushed += 1;
                check(&q);
            }
            let (s, m) = q.pop().expect("a queued state");
            assert_eq!((m, s), (popped, state(popped % 64)));
            popped += 1;
            check(&q);
            most_files = most_files.max(q.files.len());
        }
        assert!(most_files > 20, "the spill spread over {most_files} files");
        while let Some((s, m)) = q.pop() {
            assert_eq!((m, s), (popped, state(popped % 64)));
            popped += 1;
            check(&q);
        }
        assert_eq!(popped, pushed);
        assert_eq!(q.files.len(), 1, "only the appending file is left");
    }

    #[test]
    fn a_lifo_spill_keeps_only_live_records_on_disk() {
        let mut q: SpillingFrontier<u64> = SpillingFrontier::new(SpillOrder::Lifo, 4096);
        q.file_cap = 8192;
        let mut model: Vec<u64> = Vec::new();
        let mut next = 0u64;
        // A stack bottom that spills first and stays live throughout.
        for _ in 0..200 {
            q.push(state(next % 64), next);
            model.push(next);
            next += 1;
        }
        let bottom = q.spilled_states();
        assert!(bottom > 100, "{bottom} states spilled");
        // The stack rises and falls many times above it.
        for round in 0..40u64 {
            for _ in 0..(100 + round * 7 % 150) {
                q.push(state(next % 64), next);
                model.push(next);
                next += 1;
            }
            assert_eq!(bytes_on_disk(&q), live_span_bytes(&q), "round {round} up");
            for _ in 0..(100 + round * 7 % 150) {
                let (s, m) = q.pop().expect("a queued state");
                let want = model.pop().expect("the model agrees");
                assert_eq!((m, s), (want, state(want % 64)));
                assert_eq!(bytes_on_disk(&q), live_span_bytes(&q), "round {round} down");
            }
            // Every file but the appending one and the one replays last
            // truncated is full.
            let full_files = live_span_bytes(&q) / q.file_cap;
            assert!(
                q.files.len() as u64 <= full_files + 2,
                "{} files for {full_files} files' worth of live records",
                q.files.len()
            );
        }
        while let Some((s, m)) = q.pop() {
            let want = model.pop().expect("the model agrees");
            assert_eq!((m, s), (want, state(want % 64)));
        }
        assert!(model.is_empty());
        assert_eq!(bytes_on_disk(&q), 0, "a drained LIFO spill holds no bytes");
    }

    #[test]
    fn spilled_fork_siblings_take_a_few_bytes_a_record() {
        // A fork rule's siblings: one parent, one register apiece.
        let parent = sized_state(0, 64);
        let sibling = |i: u64| {
            let mut s = parent.clone();
            s.set_reg(Reg::r(27), Value::Int(i as i64 * 8));
            s.bump_steps();
            s
        };
        let mut q: SpillingFrontier<u64> = SpillingFrontier::new(SpillOrder::Fifo, 256 << 10);
        for i in 0..2000 {
            q.push(sibling(i), i);
        }
        let records = q.spilled_states();
        let keyframes: Vec<u64> = q.segments.iter().map(|seg| seg.metas[0]).collect();
        assert!(
            records > 1500 && keyframes.len() > 10,
            "{records} records in {} segments",
            keyframes.len()
        );
        let keyframe_bytes: usize = keyframes
            .iter()
            .map(|&i| {
                let mut buf = Vec::new();
                sympl_machine::encode_state(&sibling(i), &mut buf);
                buf.len()
            })
            .sum();
        let deltas = (live_span_bytes(&q) as usize - keyframe_bytes) / (records - keyframes.len());
        assert!(deltas < 40, "{deltas} B a delta record");
        for i in 0..2000 {
            let (s, m) = q.pop().expect("a queued state");
            assert_eq!((m, s), (i, sibling(i)));
        }
    }

    #[test]
    fn policy_builder_honors_spill_budget_only_for_bfs_dfs() {
        let policies = [
            FrontierPolicy::Bfs,
            FrontierPolicy::Dfs,
            FrontierPolicy::Priority(PriorityHeuristic::Depth),
            FrontierPolicy::iterative_deepening(),
        ];
        for policy in policies {
            let mut q: Box<dyn FrontierQueue<usize>> = policy.build(Some(4096));
            for i in 0..200u64 {
                q.seed(state(i), i as usize);
            }
            let expect_spill = matches!(policy, FrontierPolicy::Bfs | FrontierPolicy::Dfs);
            assert_eq!(
                q.spilled_states() > 0,
                expect_spill,
                "{policy:?} spilling expectation"
            );
            assert!(!policy.determinism_contract().is_empty());
        }
        assert!(FrontierPolicy::iterative_deepening().is_iterative());
        assert!(!FrontierPolicy::Bfs.is_iterative());
    }
}
