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
//! (`sympl_machine::codec`) and appended to sequential segment files in a
//! private temp directory; when the window drains, the appropriate segment
//! is replayed back (decoded states re-derive their rolling fingerprint
//! folds, pinned to `fingerprint_from_scratch` by the codec tests). The
//! strata are arranged so FIFO and LIFO pop order are preserved **exactly**
//! — a spilling search expands states in the same order as its unbounded
//! twin, which is what lets exhaustive searches whose frontier exceeds RAM
//! reproduce the unbounded run's outcome counts and solution sets verbatim.
//! Copy-on-write sharing of registers, memory and output does not survive
//! a spill round-trip (each image is written flat); that trade is the
//! point — RAM is the scarce resource. The input stream does survive: the
//! frontier keeps one `StateDecoder`, so every replayed state shares one
//! input allocation.
//!
//! The spill budget rides in `SearchLimits::max_frontier_bytes`; the
//! priority and iterative-deepening policies ignore it (a heap spill would
//! break the global order, and iterative deepening's frontier is O(depth)
//! by design — pick one of them *or* a spilling Bfs/Dfs window, not both).

use std::collections::{BinaryHeap, VecDeque};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use sympl_machine::{encode_state, Fingerprint, MachineState, StateDecoder};

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
    /// docs).
    #[must_use]
    pub fn build<M: Clone + 'static>(
        &self,
        max_frontier_bytes: Option<usize>,
    ) -> Box<dyn FrontierQueue<M>> {
        match (*self, max_frontier_bytes) {
            (FrontierPolicy::Bfs, None) => Box::new(FifoQueue::new()),
            (FrontierPolicy::Bfs, Some(budget)) => {
                Box::new(SpillingFrontier::new(SpillOrder::Fifo, budget))
            }
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
/// including iterative-deepening round control — so a new policy is a new
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
    /// concluding the search space is swept).
    fn pop(&mut self) -> Option<(MachineState, M)>;

    /// Number of states in the frontier (including any spilled to disk).
    fn len(&self) -> usize;

    /// Whether the frontier holds no states.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes of frontier state held **in RAM** (spilled states
    /// excluded — that is the budget a spilling frontier enforces).
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

    /// Cumulative number of states this frontier has written to disk
    /// (always 0 for purely in-RAM policies).
    fn spilled_states(&self) -> usize {
        0
    }
}

// ---------------------------------------------------------------------
// In-RAM disciplines
// ---------------------------------------------------------------------

/// The FIFO (breadth-first) frontier.
#[derive(Debug, Default)]
pub struct FifoQueue<M> {
    items: VecDeque<(MachineState, M)>,
    bytes: usize,
}

impl<M> FifoQueue<M> {
    /// An empty FIFO frontier.
    #[must_use]
    pub fn new() -> Self {
        FifoQueue {
            items: VecDeque::new(),
            bytes: 0,
        }
    }
}

impl<M> FrontierQueue<M> for FifoQueue<M> {
    fn push(&mut self, state: MachineState, meta: M) {
        self.bytes += state.approx_bytes();
        self.items.push_back((state, meta));
    }

    fn pop(&mut self) -> Option<(MachineState, M)> {
        let item = self.items.pop_front()?;
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
    /// to segment files, and segments replay oldest-first.
    Fifo,
    /// Depth-first: RAM holds the *newest* states (the stack top), the
    /// stack bottom spills to segment files, and segments replay
    /// newest-stratum-first.
    Lifo,
}

/// Distinguishes spill directories across searches within one
/// process.
static SPILL_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

struct Segment<M> {
    path: PathBuf,
    metas: VecDeque<M>,
    /// Approximate **in-RAM** bytes of the states in this segment — what
    /// the window will grow by when the segment replays. Segments are
    /// capped on this figure (not the much smaller encoded size) so a
    /// refill roughly half-fills, never floods, the budgeted window.
    approx_bytes: usize,
    /// Open only on the newest FIFO segment (still being appended to).
    writer: Option<std::io::BufWriter<std::fs::File>>,
}

/// A disk-spilling wrapper around the FIFO/LIFO disciplines: a bounded
/// in-RAM window plus sequential codec-encoded segment files in a private
/// temp directory. Pop order is **exactly** the unbounded discipline's —
/// see the [module docs](self) for the strata layout per order.
///
/// Trace tokens (`M`) stay in RAM (they are pointer-sized; the hundreds of
/// bytes per state are what spills), kept in per-segment queues zipped back
/// with their states on replay.
pub struct SpillingFrontier<M> {
    order: SpillOrder,
    ram: VecDeque<(MachineState, M)>,
    ram_bytes: usize,
    budget: usize,
    /// Approximate in-RAM bytes per segment before a new one starts; sized
    /// so a replayed segment roughly half-fills (never floods) the window.
    seg_cap: usize,
    dir: Option<PathBuf>,
    /// FIFO: front = oldest stratum (next to replay). LIFO: back = the
    /// stratum directly below the RAM stack top (next to replay).
    segments: VecDeque<Segment<M>>,
    seg_counter: u64,
    spilled: usize,
    encode_buf: Vec<u8>,
    /// One decoding context for the search's lifetime, so every replayed
    /// state shares one input allocation and its digest.
    decoder: StateDecoder,
}

impl<M> SpillingFrontier<M> {
    /// A spilling frontier preserving `order` with an in-RAM window of
    /// roughly `max_frontier_bytes`.
    #[must_use]
    pub fn new(order: SpillOrder, max_frontier_bytes: usize) -> Self {
        let budget = max_frontier_bytes.max(4096);
        SpillingFrontier {
            order,
            ram: VecDeque::new(),
            ram_bytes: 0,
            budget,
            seg_cap: (budget / 2).max(4096),
            dir: None,
            segments: VecDeque::new(),
            seg_counter: 0,
            spilled: 0,
            encode_buf: Vec::new(),
            decoder: StateDecoder::default(),
        }
    }

    fn spill_dir(&mut self) -> &PathBuf {
        self.dir.get_or_insert_with(|| {
            let dir = std::env::temp_dir().join(format!(
                "symplfied-spill-{}-{}",
                std::process::id(),
                SPILL_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).expect("failed to create the frontier spill directory");
            dir
        })
    }

    /// Opens a fresh segment file at the back of the strata, closing the
    /// previous back segment's writer if it was still open.
    fn start_segment(&mut self) {
        if let Some(seg) = self.segments.back_mut() {
            if let Some(mut w) = seg.writer.take() {
                w.flush().expect("failed to flush a frontier spill segment");
            }
        }
        let n = self.seg_counter;
        self.seg_counter += 1;
        let path = self.spill_dir().join(format!("seg-{n}.bin"));
        let file = std::fs::File::create(&path).expect("failed to create a frontier spill segment");
        self.segments.push_back(Segment {
            path,
            metas: VecDeque::new(),
            approx_bytes: 0,
            writer: Some(std::io::BufWriter::new(file)),
        });
    }

    /// Encodes one state onto the back segment (opening a new one at the
    /// cap), recording its meta in the segment's RAM-side queue.
    fn append_to_back_segment(&mut self, state: &MachineState, meta: M) {
        let needs_new = match self.segments.back() {
            Some(seg) => seg.writer.is_none() || seg.approx_bytes >= self.seg_cap,
            None => true,
        };
        if needs_new {
            self.start_segment();
        }
        self.encode_buf.clear();
        encode_state(state, &mut self.encode_buf);
        let seg = self.segments.back_mut().expect("segment just ensured");
        seg.writer
            .as_mut()
            .expect("back segment writer open")
            .write_all(&self.encode_buf)
            .expect("failed to append to a frontier spill segment");
        seg.approx_bytes += state.approx_bytes();
        seg.metas.push_back(meta);
        self.spilled += 1;
    }

    /// Decodes a whole segment back into the (empty) RAM window, in file
    /// order, and deletes the file. Decoded states re-derive their rolling
    /// fingerprint folds (`MachineState::from_decoded`), which the codec
    /// round-trip property tests pin to `fingerprint_from_scratch`.
    fn replay(&mut self, mut seg: Segment<M>) {
        debug_assert!(self.ram.is_empty(), "replay only refills a drained window");
        if let Some(mut w) = seg.writer.take() {
            w.flush().expect("failed to flush a frontier spill segment");
        }
        let bytes = std::fs::read(&seg.path).expect("failed to read back a frontier spill segment");
        let mut pos = 0usize;
        while pos < bytes.len() {
            let (state, consumed) = self
                .decoder
                .decode(&bytes[pos..])
                .expect("corrupt frontier spill segment");
            pos += consumed;
            debug_assert_eq!(state.fingerprint(), state.fingerprint_from_scratch());
            let meta = seg.metas.pop_front().expect("one meta per spilled state");
            self.ram_bytes += state.approx_bytes();
            self.ram.push_back((state, meta));
        }
        debug_assert!(seg.metas.is_empty(), "one spilled state per meta");
        let _ = std::fs::remove_file(&seg.path);
    }

    /// Refills the RAM window from the next stratum, if any.
    fn refill(&mut self) -> bool {
        let seg = match self.order {
            SpillOrder::Fifo => self.segments.pop_front(),
            SpillOrder::Lifo => self.segments.pop_back(),
        };
        match seg {
            Some(seg) => {
                self.replay(seg);
                true
            }
            None => false,
        }
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
        match self.order {
            SpillOrder::Fifo => {
                // Pushes are the newest states. Once any stratum exists (or
                // the window is full) they must go behind it, or they would
                // jump the queue.
                if self.segments.is_empty() && self.ram_bytes < self.budget {
                    self.ram_push(state, meta);
                } else {
                    self.append_to_back_segment(&state, meta);
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
                        self.append_to_back_segment(&s, m);
                    }
                    if let Some(seg) = self.segments.back_mut() {
                        if let Some(mut w) = seg.writer.take() {
                            w.flush().expect("failed to flush a frontier spill segment");
                        }
                    }
                }
            }
        }
    }

    fn pop(&mut self) -> Option<(MachineState, M)> {
        match self.order {
            SpillOrder::Fifo => {
                if let Some(item) = self.ram_pop_front() {
                    return Some(item);
                }
                if self.refill() {
                    return self.ram_pop_front();
                }
                None
            }
            SpillOrder::Lifo => {
                if let Some(item) = self.ram_pop_back() {
                    return Some(item);
                }
                if self.refill() {
                    return self.ram_pop_back();
                }
                None
            }
        }
    }

    fn len(&self) -> usize {
        self.ram.len() + self.segments.iter().map(|s| s.metas.len()).sum::<usize>()
    }

    fn approx_bytes(&self) -> usize {
        self.ram_bytes
    }

    fn spilled_states(&self) -> usize {
        self.spilled
    }
}

impl<M> Drop for SpillingFrontier<M> {
    fn drop(&mut self) {
        for seg in &mut self.segments {
            drop(seg.writer.take());
            let _ = std::fs::remove_file(&seg.path);
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
