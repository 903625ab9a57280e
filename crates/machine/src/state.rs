//! The machine state "soup" (paper §5.1).
//!
//! # State representation
//!
//! A [`MachineState`] is a value type: the symbolic executor clones it at
//! every fork and the model checker fingerprints it for deduplication. Two
//! representation choices keep those hot paths cheap:
//!
//! * **Copy-on-write memory.** The memory image is a [`cow::CowMemory`]:
//!   one exact-size, address-sorted slice of cells behind an `Arc`. Cloning
//!   a state bumps a refcount, so forking is O(1) instead of O(|memory|);
//!   a fork copies the image once, on its first memory write, and a sole
//!   owner overwrites in place. Equality and hashing see only the cells,
//!   so sharing is invisible to the search.
//!   [`MachineState::memory_shares_storage`] exposes the sharing for
//!   pointer-identity tests.
//! * **Rolling 128-bit fingerprints.** [`MachineState::fingerprint`]
//!   digests the full state term (everything `Eq`/`Hash` observe) into a
//!   16-byte [`Fingerprint`], which is what the `sympl-check` engines store
//!   in their visited sets instead of whole states. The digest is **O(1) at
//!   call time**: each collection-valued component (register file,
//!   memory image, output stream, constraint map) maintains a
//!   [`ZobristComponent`] XOR-fold updated on every write, and
//!   `fingerprint()` just mixes the folds with the scalar fields (see
//!   [`crate::fingerprint`] for the scheme).
//!   [`MachineState::fingerprint_from_scratch`] is the O(|state|) reference
//!   recompute the consistency property tests pin the rolling digest to.
//!
//! [`cow::CowMemory`]: crate::cow

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::cow::CowMemory;
use crate::fingerprint::{Fingerprint, Fnv128Hasher, ZobristComponent};
use sympl_asm::{Reg, NUM_REGS};
use sympl_detect::StateView;
use sympl_symbolic::{ConstraintMap, Location, Value};

/// Exceptions the machine can throw (paper §5.1 assumptions and §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Exception {
    /// Instruction fetch from an invalid code address.
    IllegalInstruction,
    /// Load from an undefined memory location or a negative address.
    IllegalAddress,
    /// Division by zero (`div-zero` in the paper's propagation equations).
    DivByZero,
}

impl fmt::Display for Exception {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Exception::IllegalInstruction => "illegal instruction",
            Exception::IllegalAddress => "illegal addr",
            Exception::DivByZero => "div-zero",
        })
    }
}

/// Execution status of a machine state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Status {
    /// The program is still executing.
    Running,
    /// The program executed `halt` — a normal termination.
    Halted,
    /// An exception was thrown (a *crash* outcome).
    Exception(Exception),
    /// A detector fired: the error was *detected* and the program halted.
    Detected(u32),
    /// The watchdog instruction bound was exceeded (a *hang* outcome,
    /// paper §5.4 "timed out").
    TimedOut,
}

impl Status {
    /// Whether the state is terminal (no further steps possible).
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        !matches!(self, Status::Running)
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Status::Running => f.write_str("running"),
            Status::Halted => f.write_str("halted"),
            Status::Exception(e) => write!(f, "exception: {e}"),
            Status::Detected(id) => write!(f, "detected by detector {id}"),
            Status::TimedOut => f.write_str("timed out"),
        }
    }
}

/// One item of the output stream: a printed value or a string literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OutItem {
    /// Output of a `print` instruction.
    Val(Value),
    /// Output of a `prints` instruction.
    Str(Arc<str>),
}

impl fmt::Display for OutItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutItem::Val(v) => write!(f, "{v}"),
            OutItem::Str(s) => f.write_str(s),
        }
    }
}

/// The mutable machine state carried from instruction to instruction.
///
/// Corresponds to the paper's soup `PC(pc) regs(R) mem(M) input(in)
/// output(out)` plus the ConstraintMap of §5.2. States are value types:
/// the symbolic executor clones them at forks, and the model checker hashes
/// them for visited-state deduplication.
///
/// Equality and hashing *include* the executed-instruction counter, exactly
/// as the paper's Maude model carries the watchdog counter in the state
/// term. This is what makes hang detection sound: a looping path revisits
/// structurally identical configurations at ever-higher counts, so the
/// search cannot dedup the cycle away — it runs into the §5.4 instruction
/// bound and reports a timed-out (hang) terminal, as a real execution
/// would behave under a watchdog.
#[derive(Debug, Clone)]
pub struct MachineState {
    pc: usize,
    // The register file is Arc-shared between a state and its forks
    // (copy-on-write, like the memory image): a clone bumps a refcount
    // instead of copying 32 cells, the state term stays small enough to
    // move cheaply through successor buffers and frontier queues, and the
    // first post-fork write of each branch pays the one unsharing copy.
    regs: Arc<[Value; NUM_REGS]>,
    mem: CowMemory,
    input: Arc<[i64]>,
    input_pos: usize,
    // The output stream is Arc-shared like the register file: forks of a
    // state that has already printed share one backing vector until the
    // next `push_output` unshares it, so cloning a deep-in-the-run state
    // never re-copies (or re-allocates) its print history.
    output: Arc<Vec<OutItem>>,
    constraints: ConstraintMap,
    steps: u64,
    status: Status,
    // Rolling-fingerprint caches, maintained by the write paths below (the
    // memory and constraint-map folds live inside CowMemory/ConstraintMap,
    // whose mutators are the only code that sees those writes). All four
    // are pure functions of the observable fields, so they are excluded
    // from the manual Eq/Hash impls and can never make equal states
    // compare unequal.
    reg_digest: ZobristComponent,
    out_digest: ZobristComponent,
    out_errs: u32,
    input_digest: u128,
}

impl MachineState {
    /// A fresh state at PC 0 with zeroed registers, empty memory, and no
    /// input.
    #[must_use]
    pub fn new() -> Self {
        Self::with_input(Vec::new())
    }

    /// A fresh state with the given input stream.
    #[must_use]
    pub fn with_input(input: Vec<i64>) -> Self {
        let input: Arc<[i64]> = input.into();
        MachineState {
            pc: 0,
            regs: Arc::new([Value::Int(0); NUM_REGS]),
            mem: CowMemory::new(),
            input_pos: 0,
            output: Arc::new(Vec::new()),
            constraints: ConstraintMap::new(),
            steps: 0,
            status: Status::Running,
            reg_digest: Self::refold_regs(&[Value::Int(0); NUM_REGS]),
            out_digest: ZobristComponent::new(),
            out_errs: 0,
            input_digest: Self::fold_input(&input),
            input,
        }
    }

    /// The register-file fold of `regs` — the reference the rolling
    /// `reg_digest` tracks write-by-write.
    fn refold_regs(regs: &[Value; NUM_REGS]) -> ZobristComponent {
        ZobristComponent::refold(regs.iter().enumerate())
    }

    /// FNV-128 of the input stream. The stream is immutable after
    /// construction (only the cursor moves), so this is computed once here
    /// and copied on clone.
    fn fold_input(input: &[i64]) -> u128 {
        let mut h = Fnv128Hasher::new();
        input.hash(&mut h);
        h.finish128()
    }

    /// The current program counter.
    #[must_use]
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Sets the program counter (used by the fetch-error model, which moves
    /// the PC to an arbitrary valid code location).
    pub fn set_pc(&mut self, pc: usize) {
        self.pc = pc;
    }

    /// The value of a register ($0 always reads zero).
    #[must_use]
    pub fn reg(&self, r: Reg) -> Value {
        if r.is_zero() {
            Value::Int(0)
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes the register cell and rolls the register-file fold: the old
    /// `(index, value)` cell XORs out, the new one XORs in.
    fn write_reg_cell(&mut self, r: Reg, v: Value) {
        let i = r.index();
        let old = self.regs[i];
        if old != v {
            self.reg_digest.update(&i, &old, &v);
            // Unshares the register file on the first write after a fork;
            // a no-op atomic check when this state already owns it.
            Arc::make_mut(&mut self.regs)[i] = v;
        }
    }

    /// Writes a register. Writes to `$0` are discarded; any constraints
    /// recorded for the register are cleared because a fresh value now
    /// occupies it.
    pub fn set_reg(&mut self, r: Reg, v: Value) {
        if r.is_zero() {
            return;
        }
        self.write_reg_cell(r, v);
        self.constraints.clear(Location::Reg(r));
    }

    /// Writes a register *and* carries the constraints of a source
    /// location with it (used by `mov`-style copies of an `err` value,
    /// whose learned facts travel with the value).
    pub fn copy_reg_with_constraints(&mut self, r: Reg, v: Value, from: Location) {
        if r.is_zero() {
            return;
        }
        self.write_reg_cell(r, v);
        if v.is_err() {
            self.constraints.copy(from, Location::Reg(r));
        } else {
            self.constraints.clear(Location::Reg(r));
        }
    }

    /// The value of a memory word, or `None` if undefined.
    #[must_use]
    pub fn mem(&self, addr: u64) -> Option<Value> {
        self.mem.get(addr)
    }

    /// Writes a memory word (stores define locations on first write).
    pub fn set_mem(&mut self, addr: u64, v: Value) {
        self.mem.insert(addr, v);
        self.constraints.clear(Location::Mem(addr));
    }

    /// Writes a memory word carrying constraints from a source location.
    pub fn copy_mem_with_constraints(&mut self, addr: u64, v: Value, from: Location) {
        self.mem.insert(addr, v);
        if v.is_err() {
            self.constraints.copy(from, Location::Mem(addr));
        } else {
            self.constraints.clear(Location::Mem(addr));
        }
    }

    /// Pre-initializes a memory image before execution (the paper's loader
    /// "initializes all locations prior to their first use").
    pub fn load_memory<I: IntoIterator<Item = (u64, i64)>>(&mut self, image: I) {
        for (addr, v) in image {
            self.mem.insert(addr, Value::Int(v));
        }
    }

    /// All defined memory addresses, in order.
    pub fn defined_addresses(&self) -> impl Iterator<Item = u64> + '_ {
        self.mem.iter().map(|(addr, _)| addr)
    }

    /// Number of defined memory words.
    #[must_use]
    pub fn memory_len(&self) -> usize {
        self.mem.len()
    }

    /// One past the largest defined address (0 when memory is empty); the
    /// store-through-corrupt-pointer model writes its "new value in memory"
    /// here.
    #[must_use]
    pub fn fresh_address(&self) -> u64 {
        self.mem.last_addr().map_or(0, |a| a.saturating_add(8))
    }

    /// Reads the next input value (the `read` instruction). Reading past
    /// the end of the stream yields 0, so programs are total in the input.
    pub fn read_input(&mut self) -> i64 {
        let v = self.input.get(self.input_pos).copied().unwrap_or(0);
        self.input_pos += 1;
        v
    }

    /// The full input stream the state was constructed with (immutable
    /// after construction; only the cursor moves).
    #[must_use]
    pub fn input_stream(&self) -> &[i64] {
        &self.input
    }

    /// The input-cursor position: how many values `read` has consumed.
    #[must_use]
    pub fn input_cursor(&self) -> usize {
        self.input_pos
    }

    /// The `(address, value)` memory cells in ascending address order.
    pub fn memory_cells(&self) -> impl Iterator<Item = (u64, Value)> + '_ {
        self.mem.iter()
    }

    /// The value of a [`Location`] (registers always defined; memory may
    /// not be).
    #[must_use]
    pub fn location_value(&self, loc: Location) -> Option<Value> {
        match loc {
            Location::Reg(r) => Some(self.reg(r)),
            Location::Mem(a) => self.mem(a),
        }
    }

    /// Writes a [`Location`] directly (fault injection uses this to plant
    /// the `err` symbol).
    pub fn set_location(&mut self, loc: Location, v: Value) {
        match loc {
            Location::Reg(r) => self.set_reg(r, v),
            Location::Mem(a) => self.set_mem(a, v),
        }
    }

    /// Appends to the output stream. The stream is append-only, so the
    /// rolling output fold only ever inserts the new `(position, item)`
    /// cell, and the err-count cache only ever increments.
    pub fn push_output(&mut self, item: OutItem) {
        self.out_digest.insert(&self.output.len(), &item);
        if matches!(item, OutItem::Val(Value::Err)) {
            self.out_errs += 1;
        }
        // Unshares the stream on the first post-fork print; a no-op
        // refcount check when this state already owns it.
        Arc::make_mut(&mut self.output).push(item);
    }

    /// The output stream so far.
    #[must_use]
    pub fn output(&self) -> &[OutItem] {
        &self.output
    }

    /// The printed *values* (ignoring string literals), for outcome checks.
    /// Allocation-free: terminal predicates run this on every solution
    /// candidate.
    pub fn output_values(&self) -> impl Iterator<Item = Value> + '_ {
        self.output.iter().filter_map(|o| match o {
            OutItem::Val(v) => Some(*v),
            OutItem::Str(_) => None,
        })
    }

    /// The printed values as integers, `err` values dropped;
    /// allocation-free, for the golden-output comparisons on the terminal
    /// hot path (see [`MachineState::output_ints`] for the collected
    /// convenience form).
    pub fn output_ints_iter(&self) -> impl Iterator<Item = i64> + '_ {
        self.output_values().filter_map(Value::as_int)
    }

    /// The printed values as integers, collected for callers that keep or
    /// index the list (reports, decoding, tests). Hot-path predicates use
    /// [`MachineState::output_ints_iter`] instead.
    #[must_use]
    pub fn output_ints(&self) -> Vec<i64> {
        self.output_ints_iter().collect()
    }

    /// Whether any printed value is the `err` symbol — the paper's standard
    /// search predicate `output(S) contains err`. O(1): the err count rolls
    /// forward with every `push_output`.
    #[must_use]
    pub fn output_contains_err(&self) -> bool {
        self.out_errs > 0
    }

    /// The constraint map of the current path.
    #[must_use]
    pub fn constraints(&self) -> &ConstraintMap {
        &self.constraints
    }

    /// Mutable access to the constraint map (fork application).
    pub fn constraints_mut(&mut self) -> &mut ConstraintMap {
        &mut self.constraints
    }

    /// The execution status.
    #[must_use]
    pub fn status(&self) -> &Status {
        &self.status
    }

    /// Sets the execution status (terminal transitions).
    pub fn set_status(&mut self, status: Status) {
        self.status = status;
    }

    /// Number of instructions executed so far (the watchdog counter).
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Increments the instruction counter.
    pub fn bump_steps(&mut self) {
        self.steps += 1;
    }

    /// Whether every register and defined memory word is concrete.
    #[must_use]
    pub fn is_fully_concrete(&self) -> bool {
        !self.regs.iter().any(|v| v.is_err()) && !self.mem.iter().any(|(_, v)| v.is_err())
    }

    /// Every location currently holding `err`.
    #[must_use]
    pub fn err_locations(&self) -> Vec<Location> {
        let mut out = Vec::new();
        for (i, v) in self.regs.iter().enumerate() {
            if v.is_err() {
                out.push(Location::reg(i as u8));
            }
        }
        for (a, v) in self.mem.iter() {
            if v.is_err() {
                out.push(Location::Mem(a));
            }
        }
        out
    }

    /// Renders the output stream as a single line.
    #[must_use]
    pub fn rendered_output(&self) -> String {
        self.output.iter().map(ToString::to_string).collect()
    }
}

/// The observable field set of a decoded state, produced by
/// [`crate::codec::decode_state`] and turned into a live [`MachineState`]
/// by [`MachineState::from_decoded`].
pub(crate) struct DecodedState {
    pub(crate) pc: usize,
    pub(crate) regs: [Value; NUM_REGS],
    pub(crate) mem: Vec<(u64, Value)>,
    pub(crate) input: Vec<i64>,
    pub(crate) input_pos: usize,
    pub(crate) output: Vec<OutItem>,
    pub(crate) constraints: ConstraintMap,
    pub(crate) steps: u64,
    pub(crate) status: Status,
}

impl MachineState {
    /// Rebuilds a live state from decoded observable content, **re-deriving
    /// every rolling cache**: the register/output folds and the cached input
    /// digest are refolded here, the memory image and its fold are built
    /// in one pass by `CowMemory::from_cells`, and the constraint map
    /// arrives from the codec with its digest and unsat counter already
    /// rebuilt. A decoded state is therefore indistinguishable from one
    /// built through the mutators — its `fingerprint()` equals
    /// `fingerprint_from_scratch()` by construction, which the codec
    /// round-trip property tests pin down.
    pub(crate) fn from_decoded(d: DecodedState) -> Self {
        let input: Arc<[i64]> = d.input.into();
        let mem = CowMemory::from_cells(d.mem);
        let out_errs = d
            .output
            .iter()
            .filter(|o| matches!(o, OutItem::Val(Value::Err)))
            .count() as u32;
        MachineState {
            pc: d.pc,
            reg_digest: Self::refold_regs(&d.regs),
            regs: Arc::new(d.regs),
            mem,
            input_pos: d.input_pos,
            out_digest: ZobristComponent::refold(d.output.iter().enumerate()),
            out_errs,
            output: Arc::new(d.output),
            constraints: d.constraints,
            steps: d.steps,
            status: d.status,
            input_digest: Self::fold_input(&input),
            input,
        }
    }

    /// The fixed per-state term of [`MachineState::approx_bytes`]: the
    /// struct size of the map-backed memory image the estimate was
    /// calibrated on. Frozen rather than `size_of::<Self>()`, because the
    /// frontier's spill schedule — and with it the spill counts pinned in
    /// `benchmark/expected.json` — is a function of these figures, which
    /// must not move when the struct layout does.
    const APPROX_HEADER_BYTES: usize = 240;

    /// An approximate in-RAM footprint of this state, in bytes: a fixed
    /// per-state term plus per-entry estimates for the memory image, output
    /// stream, input stream, and constraint map.
    ///
    /// O(1) (every count is a cached length) and a **pure function of the
    /// observable content** — a decoded copy of a state reports the same
    /// figure — which is what lets frontier queues budget their in-RAM
    /// window and subtract on pop exactly what they added on push.
    /// Deliberately ignores copy-on-write sharing: a spill budget wants the
    /// worst-case (unshared) footprint, not the transient shared one.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        // Memory cells are charged a word-pair each beyond their payload,
        // frozen with the fixed term; constraint sets carry an interval
        // plus a small exclusion tree.
        Self::APPROX_HEADER_BYTES
            // The Arc-shared register file, counted unshared (see above).
            + size_of::<[Value; NUM_REGS]>()
            + self.mem.len() * (size_of::<u64>() + size_of::<Value>() + 16)
            + self.output.len() * size_of::<OutItem>()
            + self.input.len() * size_of::<i64>()
            + self.constraints.len() * 96
    }
}

impl Default for MachineState {
    fn default() -> Self {
        Self::new()
    }
}

// Campaign pools run one search per worker thread and share programs and
// detector sets by reference across them; every piece of the state term
// is built from owned data or `Arc`s, so these bounds hold by construction
// — this assertion keeps a future field addition (an `Rc`, a `RefCell`
// cache) from silently breaking thread-safety.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MachineState>();
    assert_send_sync::<Fingerprint>();
};

impl PartialEq for MachineState {
    fn eq(&self, other: &Self) -> bool {
        // `steps` included: see the type-level docs on hang soundness.
        self.steps == other.steps
            && self.pc == other.pc
            && self.regs == other.regs
            && self.mem == other.mem
            && self.input == other.input
            && self.input_pos == other.input_pos
            && self.output == other.output
            && self.constraints == other.constraints
            && self.status == other.status
    }
}

impl Eq for MachineState {}

impl Hash for MachineState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.steps.hash(state);
        self.pc.hash(state);
        self.regs.hash(state);
        self.mem.hash(state);
        self.input.hash(state);
        self.input_pos.hash(state);
        self.output.hash(state);
        self.constraints.hash(state);
        self.status.hash(state);
    }
}

impl MachineState {
    /// A 128-bit digest of the full state term — registers, memory
    /// content, constraint map, PC, I/O streams, watchdog counter, status.
    /// Everything [`Eq`]/[`Hash`] observe feeds the digest, so equal states
    /// always fingerprint equal, and the model checker can deduplicate on
    /// 16-byte fingerprints instead of retained whole states.
    ///
    /// **O(1) at call time**: the collection components' rolling
    /// [`ZobristComponent`] folds are maintained on every write, so this
    /// just mixes four cached 128-bit folds, the cached input digest, and
    /// the scalar fields through one fixed-size FNV pass — no register,
    /// memory, output, or constraint-map traversal.
    #[must_use]
    pub fn fingerprint(&self) -> Fingerprint {
        self.mix_fingerprint(
            self.reg_digest,
            self.mem.digest(),
            self.out_digest,
            self.constraints.digest(),
            self.input_digest,
            self.mem.len(),
        )
    }

    /// The O(|state|) reference digest: recomputes every component fold
    /// from the observable content and mixes it exactly like
    /// [`MachineState::fingerprint`]. The digest-consistency property tests
    /// pin the rolling fingerprint to this after arbitrary mutation and
    /// fork sequences; engines never call it.
    #[must_use]
    pub fn fingerprint_from_scratch(&self) -> Fingerprint {
        self.mix_fingerprint(
            Self::refold_regs(&self.regs),
            self.mem.refold_digest(),
            ZobristComponent::refold(self.output.iter().enumerate()),
            self.constraints.refold_digest(),
            Self::fold_input(&self.input),
            // Recounted, not the cached counter: the reference path must
            // catch a desynced length cache, not launder it.
            self.mem.iter().count(),
        )
    }

    /// The shared final mix: component folds are paired with their
    /// collection lengths (an XOR-fold alone is length-blind only across
    /// colliding cell pairs, and the lengths are O(1) anyway), then the
    /// scalars. Both digest paths route through here so they can never
    /// drift apart; the memory length is a parameter because it is itself
    /// a rolling cache the reference path independently recounts.
    fn mix_fingerprint(
        &self,
        regs: ZobristComponent,
        mem: ZobristComponent,
        out: ZobristComponent,
        constraints: ZobristComponent,
        input_digest: u128,
        mem_len: usize,
    ) -> Fingerprint {
        let mut h = Fnv128Hasher::new();
        h.write_u128(regs.value());
        h.write_u128(mem.value());
        h.write_usize(mem_len);
        h.write_u128(out.value());
        h.write_usize(self.output.len());
        h.write_u128(constraints.value());
        h.write_usize(self.constraints.len());
        h.write_u128(input_digest);
        h.write_usize(self.input_pos);
        h.write_usize(self.pc);
        h.write_u64(self.steps);
        self.status.hash(&mut h);
        Fingerprint(h.finish128())
    }

    /// Whether the memory images of `self` and `other` share one storage
    /// (the structural sharing a clone introduces). A fork keeps sharing
    /// until either side's first memory write copies the image, which is
    /// the O(1)-fork guarantee the pointer-identity tests pin down.
    #[must_use]
    pub fn memory_shares_storage(&self, other: &Self) -> bool {
        self.mem.shares_storage_with(&other.mem)
    }

    /// Whether two states coincide in everything *except* the instruction
    /// counter — the structural-identity notion an aggressive deduplication
    /// would use (at the cost of missing hang outcomes; see the type docs).
    #[must_use]
    pub fn same_configuration(&self, other: &Self) -> bool {
        self.pc == other.pc
            && self.regs == other.regs
            && self.mem == other.mem
            && self.input == other.input
            && self.input_pos == other.input_pos
            && self.output == other.output
            && self.constraints == other.constraints
            && self.status == other.status
    }
}

impl StateView for MachineState {
    fn reg_value(&self, reg: Reg) -> Value {
        self.reg(reg)
    }

    fn mem_value(&self, addr: u64) -> Option<Value> {
        self.mem(addr)
    }
}

impl fmt::Display for MachineState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pc={} status={} steps={}",
            self.pc, self.status, self.steps
        )?;
        write!(f, "regs:")?;
        for (i, v) in self.regs.iter().enumerate() {
            if *v != Value::Int(0) {
                write!(f, " ${i}={v}")?;
            }
        }
        writeln!(f)?;
        if !self.mem.is_empty() {
            write!(f, "mem:")?;
            for (a, v) in self.mem.iter() {
                write!(f, " [{a}]={v}")?;
            }
            writeln!(f)?;
        }
        if !self.output.is_empty() {
            writeln!(f, "output: {}", self.rendered_output())?;
        }
        if !self.constraints.is_empty() {
            writeln!(f, "constraints: {}", self.constraints)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_semantics() {
        let mut s = MachineState::new();
        s.set_reg(Reg::r(0), Value::Int(99));
        assert_eq!(s.reg(Reg::r(0)), Value::Int(0));
        s.set_reg(Reg::r(5), Value::Int(7));
        assert_eq!(s.reg(Reg::r(5)), Value::Int(7));
    }

    #[test]
    fn register_write_clears_constraints() {
        let mut s = MachineState::new();
        s.set_reg(Reg::r(3), Value::Err);
        assert!(s
            .constraints_mut()
            .constrain(Location::reg(3), sympl_symbolic::Constraint::Gt(0)));
        s.set_reg(Reg::r(3), Value::Int(1));
        assert!(s.constraints().get(Location::reg(3)).is_none());
    }

    #[test]
    fn copy_with_constraints_moves_facts() {
        let mut s = MachineState::new();
        s.set_reg(Reg::r(3), Value::Err);
        let _ = s
            .constraints_mut()
            .constrain(Location::reg(3), sympl_symbolic::Constraint::Ge(5));
        s.copy_reg_with_constraints(Reg::r(6), Value::Err, Location::reg(3));
        assert_eq!(s.constraints().witness(Location::reg(6)), Some(5));
    }

    #[test]
    fn memory_definition_and_fresh_address() {
        let mut s = MachineState::new();
        assert_eq!(s.fresh_address(), 0);
        assert_eq!(s.mem(100), None);
        s.set_mem(100, Value::Int(1));
        assert_eq!(s.mem(100), Some(Value::Int(1)));
        assert_eq!(s.fresh_address(), 108);
        s.load_memory([(4, 2), (8, 3)]);
        assert_eq!(s.memory_len(), 3);
        assert_eq!(s.defined_addresses().collect::<Vec<_>>(), vec![4, 8, 100]);
    }

    #[test]
    fn input_stream_reads_then_zeroes() {
        let mut s = MachineState::with_input(vec![10, 20]);
        assert_eq!(s.read_input(), 10);
        assert_eq!(s.read_input(), 20);
        assert_eq!(s.read_input(), 0);
    }

    #[test]
    fn output_helpers() {
        let mut s = MachineState::new();
        s.push_output(OutItem::Str("Factorial = ".into()));
        s.push_output(OutItem::Val(Value::Int(120)));
        s.push_output(OutItem::Val(Value::Err));
        assert_eq!(
            s.output_values().collect::<Vec<_>>(),
            vec![Value::Int(120), Value::Err]
        );
        assert_eq!(s.output_ints(), vec![120]);
        assert!(s.output_ints_iter().eq([120]));
        assert!(s.output_contains_err());
        assert_eq!(s.rendered_output(), "Factorial = 120err");
    }

    #[test]
    fn equality_includes_step_count() {
        let mut a = MachineState::new();
        let mut b = MachineState::new();
        b.bump_steps();
        b.bump_steps();
        assert_ne!(a, b, "watchdog counter is part of the state term");
        assert!(a.same_configuration(&b));
        a.bump_steps();
        a.bump_steps();
        assert_eq!(a, b);
        a.set_pc(3);
        assert_ne!(a, b);
        assert!(!a.same_configuration(&b));
    }

    #[test]
    fn err_locations_enumerated() {
        let mut s = MachineState::new();
        s.set_reg(Reg::r(4), Value::Err);
        s.set_mem(16, Value::Err);
        s.set_mem(8, Value::Int(1));
        assert_eq!(s.err_locations(), vec![Location::reg(4), Location::Mem(16)]);
        assert!(!s.is_fully_concrete());
    }

    #[test]
    fn status_terminality() {
        assert!(!Status::Running.is_terminal());
        for s in [
            Status::Halted,
            Status::Exception(Exception::DivByZero),
            Status::Detected(1),
            Status::TimedOut,
        ] {
            assert!(s.is_terminal());
        }
    }

    #[test]
    fn location_roundtrip() {
        let mut s = MachineState::new();
        s.set_location(Location::reg(7), Value::Err);
        assert_eq!(s.location_value(Location::reg(7)), Some(Value::Err));
        s.set_location(Location::Mem(40), Value::Int(3));
        assert_eq!(s.location_value(Location::Mem(40)), Some(Value::Int(3)));
        assert_eq!(s.location_value(Location::Mem(48)), None);
    }

    #[test]
    fn clone_shares_memory_storage() {
        // The O(1) fork guarantee: cloning must NOT deep-copy memory.
        let mut a = MachineState::new();
        a.load_memory((0..200).map(|i| (i * 8, i as i64)));
        let mut b = a.clone();
        assert!(
            a.memory_shares_storage(&b),
            "a fresh clone shares the image by pointer identity"
        );
        // A write unshares the fork's image; the original is untouched.
        b.set_mem(8, Value::Int(999));
        b.set_mem(4096, Value::Int(1));
        assert!(!a.memory_shares_storage(&b));
        assert_eq!(a.mem(8), Some(Value::Int(1)));
        assert_eq!(b.mem(8), Some(Value::Int(999)));
        assert_eq!(a.memory_len(), 200);
        assert_eq!(b.memory_len(), 201);
    }

    #[test]
    fn fingerprint_matches_equality() {
        let mut a = MachineState::with_input(vec![1, 2]);
        a.load_memory([(8, 5), (16, 6)]);
        a.set_reg(Reg::r(3), Value::Err);
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Same contents built independently (different layering).
        let mut c = MachineState::with_input(vec![1, 2]);
        c.load_memory([(8, 5)]);
        c.load_memory([(16, 6)]);
        c.set_reg(Reg::r(3), Value::Err);
        assert_eq!(a, c);
        assert_eq!(a.fingerprint(), c.fingerprint());
        // Any observable difference moves the fingerprint.
        b.bump_steps();
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut d = a.clone();
        d.set_mem(16, Value::Int(7));
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn rolling_fingerprint_matches_from_scratch_after_every_write_kind() {
        let mut s = MachineState::with_input(vec![3, -1]);
        let check = |s: &MachineState, what: &str| {
            assert_eq!(
                s.fingerprint(),
                s.fingerprint_from_scratch(),
                "rolling digest desynced after {what}"
            );
        };
        check(&s, "construction");
        s.set_reg(Reg::r(3), Value::Err);
        check(&s, "set_reg");
        let _ = s
            .constraints_mut()
            .constrain(Location::reg(3), sympl_symbolic::Constraint::Gt(2));
        check(&s, "constrain");
        s.copy_reg_with_constraints(Reg::r(4), Value::Err, Location::reg(3));
        check(&s, "copy_reg_with_constraints");
        s.set_mem(16, Value::Int(7));
        check(&s, "set_mem");
        s.copy_mem_with_constraints(24, Value::Err, Location::reg(4));
        check(&s, "copy_mem_with_constraints");
        s.load_memory([(0, 1), (8, 2), (16, 99)]);
        check(&s, "load_memory overwrite");
        s.set_location(Location::Mem(16), Value::Int(7));
        check(&s, "set_location");
        let _ = s.read_input();
        check(&s, "read_input");
        s.push_output(OutItem::Str("x=".into()));
        s.push_output(OutItem::Val(Value::Err));
        check(&s, "push_output");
        s.bump_steps();
        s.set_pc(5);
        s.set_status(Status::Halted);
        check(&s, "scalars");
        // Forks inherit consistent caches.
        let mut fork = s.clone();
        fork.set_mem(8, Value::Int(5));
        check(&fork, "fork write");
        check(&s, "origin after fork");
    }

    #[test]
    fn fingerprint_is_a_pure_content_function() {
        // Overwriting a cell and writing it back must return the digest to
        // its original value (XOR self-inverse), and same-value rewrites
        // must not move it.
        let mut s = MachineState::new();
        s.set_mem(8, Value::Int(1));
        s.set_reg(Reg::r(2), Value::Int(9));
        let before = s.fingerprint();
        s.set_mem(8, Value::Int(2));
        assert_ne!(s.fingerprint(), before);
        s.set_mem(8, Value::Int(1));
        assert_eq!(s.fingerprint(), before);
        s.set_mem(8, Value::Int(1));
        s.set_reg(Reg::r(2), Value::Int(9));
        assert_eq!(s.fingerprint(), before, "no-op rewrites keep the digest");
    }

    #[test]
    fn display_mentions_key_fields() {
        let mut s = MachineState::with_input(vec![1]);
        s.set_reg(Reg::r(2), Value::Err);
        s.set_mem(8, Value::Int(5));
        s.push_output(OutItem::Val(Value::Int(1)));
        let text = s.to_string();
        assert!(text.contains("pc=0"));
        assert!(text.contains("$2=err"));
        assert!(text.contains("[8]=5"));
        assert!(text.contains("output: 1"));
    }

    #[test]
    fn approx_bytes_is_frozen() {
        // The spill schedule, and so the benchmark's pinned spill counts,
        // are functions of these figures: they must not follow the struct
        // layout.
        assert_eq!(MachineState::new().approx_bytes(), 752);
        let mut s = MachineState::with_input(vec![4, -2, 9]);
        s.load_memory((0..40).map(|i| (i * 8, i as i64)));
        s.set_mem(512, Value::Err);
        s.set_reg(Reg::r(3), Value::Err);
        let _ = s
            .constraints_mut()
            .constrain(Location::reg(3), sympl_symbolic::Constraint::Gt(2));
        s.copy_mem_with_constraints(520, Value::Err, Location::reg(3));
        s.push_output(OutItem::Str("x=".into()));
        s.push_output(OutItem::Val(Value::Int(7)));
        assert_eq!(s.approx_bytes(), 2696);
    }
}
