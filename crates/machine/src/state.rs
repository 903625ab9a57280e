//! The machine state "soup" (paper §5.1).
//!
//! # State representation
//!
//! A [`MachineState`] is a value type: the symbolic executor clones it at
//! every fork and the model checker fingerprints it for deduplication.
//! Five representation choices keep those hot paths cheap:
//!
//! * **Copy-on-write memory.** The memory image is a [`cow::CowMemory`]:
//!   one exact-size, address-sorted slice of cells behind an `Arc`. Cloning
//!   a state bumps a refcount, so forking is O(1) instead of O(|memory|);
//!   a fork copies the image once, on its first memory write, and a sole
//!   owner overwrites in place. Equality and hashing see only the cells,
//!   so sharing is invisible to the search.
//!   [`MachineState::memory_shares_storage`] exposes the sharing for
//!   pointer-identity tests.
//! * **A compact register file.** The registers are one `RegFile`:
//!   32 plain `i64` cells plus a 32-bit `err` mask, 264 bytes where an
//!   array of tagged [`Value`]s takes 512, with the file's rolling
//!   fingerprint fold beside them. It sits behind an `Arc` shared with the
//!   state's forks, so a fork copies it once, on its first register write,
//!   and a queued state that never writes shares it. Its `Hash` and
//!   `Debug` are those of the `[Value; 32]` it stands for, so no digest or
//!   rendering depends on the layout.
//! * **A flat constraint map.** The [`ConstraintMap`] keeps its
//!   `(location, constraint set)` entries in one list sorted by location
//!   and found by binary search, behind one pointer that is null for an
//!   empty map and shared between forks until one writes; a one-entry
//!   map (the common case after a fork) holds its entry inline, so it is
//!   one allocation.
//! * **A small term: each cache behind the pointer it describes.** A
//!   successor moves by value from the stepper into the visited set and
//!   the frontier, so the term's size is paid on every move; it is 96
//!   bytes. Inline are `pc`, the input cursor, `steps`, `status` and the
//!   memory image (its slice pointer and its fold). Every other component
//!   is one pointer, and its derived caches live in the `Arc` payload
//!   with it:
//!   - `regs` → the `RegFile`: cells, `err` mask and register fold;
//!   - `input` → the input words and their digest;
//!   - `output` → the items, their fold and the count of `err` values;
//!   - `constraints` → null when empty, else the entries, their fold and
//!     the count of unsatisfiable locations.
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
use std::sync::{Arc, LazyLock};

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

/// The register file: one integer per register plus a mask whose bit `i`
/// marks register `i` as `err`. An `err` register keeps 0 in its integer
/// cell, so comparing the cells and the mask compares content exactly, and
/// `$0` is never written, so it reads 0 by construction. The file carries
/// its own rolling fingerprint fold, rolled by [`RegFile::set`].
#[derive(Clone)]
pub(crate) struct RegFile {
    ints: [i64; NUM_REGS],
    errs: u32,
    /// The XOR-fold of every `(index, value)` cell: a function of the
    /// cells, so it is left out of `Eq` and `Hash`.
    fold: ZobristComponent,
}

/// The fold of the all-zero register file, hashed once per process.
static ZERO_FOLD: LazyLock<ZobristComponent> =
    LazyLock::new(|| ZobristComponent::refold((0..NUM_REGS).map(|i| (i, Value::Int(0)))));

impl RegFile {
    /// Every register 0.
    pub(crate) fn zero() -> RegFile {
        RegFile {
            ints: [0; NUM_REGS],
            errs: 0,
            fold: *ZERO_FOLD,
        }
    }

    /// The value of register `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Value {
        if (self.errs >> i) & 1 != 0 {
            Value::Err
        } else {
            Value::Int(self.ints[i])
        }
    }

    /// Writes register `i`, which is never `$0`, and rolls the fold: the
    /// old `(index, value)` cell XORs out, the new one XORs in.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, v: Value) {
        debug_assert_ne!(i, 0, "$0 is hard-wired to zero");
        let old = self.get(i);
        if old == v {
            return;
        }
        self.fold.update(&i, &old, &v);
        match v {
            Value::Int(n) => {
                self.ints[i] = n;
                self.errs &= !(1 << i);
            }
            Value::Err => {
                self.ints[i] = 0;
                self.errs |= 1 << i;
            }
        }
    }

    /// The `(index, value)` cells in register order.
    fn cells(&self) -> impl Iterator<Item = (usize, Value)> + '_ {
        (0..NUM_REGS).map(|i| (i, self.get(i)))
    }

    /// A mask whose bit `i` marks register `i` as non-zero (an `err`
    /// register keeps 0 in its integer cell, so the mask checks both).
    pub(crate) fn nonzero(&self) -> u32 {
        let mut mask = self.errs;
        for (i, &n) in self.ints.iter().enumerate() {
            mask |= u32::from(n != 0) << i;
        }
        mask
    }

    /// A mask whose bit `i` marks register `i` as holding a different
    /// value in `self` and `other`.
    pub(crate) fn differs_from(&self, other: &RegFile) -> u32 {
        let mut mask = self.errs ^ other.errs;
        for (i, (a, b)) in self.ints.iter().zip(&other.ints).enumerate() {
            mask |= u32::from(a != b) << i;
        }
        mask
    }

    /// The rolling fold over every `(index, value)` cell. O(1).
    pub(crate) fn fold(&self) -> ZobristComponent {
        self.fold
    }

    /// The fold of every cell, from scratch: the reference the rolling
    /// fold tracks write-by-write.
    pub(crate) fn refold(&self) -> ZobristComponent {
        ZobristComponent::refold(self.cells())
    }

    /// The registers as the tagged array this file stands for.
    fn values(&self) -> [Value; NUM_REGS] {
        std::array::from_fn(|i| self.get(i))
    }
}

impl PartialEq for RegFile {
    fn eq(&self, other: &Self) -> bool {
        self.ints == other.ints && self.errs == other.errs
    }
}

impl Eq for RegFile {}

/// The byte stream of the `[Value; 32]` array: `Hash for MachineState`,
/// and with it `outcome_digest`, must not move with the layout.
impl Hash for RegFile {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl fmt::Debug for RegFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.values().fmt(f)
    }
}

/// The output stream with its derived caches: the rolling fold over the
/// `(position, item)` cells and the number of `err` values printed. The
/// stream is append-only, so [`Output::push`] only ever inserts a cell and
/// increments the count.
#[derive(Debug, Clone, Default)]
pub(crate) struct Output {
    items: Vec<OutItem>,
    fold: ZobristComponent,
    errs: u32,
}

impl Output {
    /// The stream `items`, with its fold moved from `base`'s over the
    /// `(position, item)` cells that differ (exactly a refold when `base`
    /// is empty).
    pub(crate) fn over(items: Vec<OutItem>, base: &Output) -> Output {
        let mut fold = base.fold;
        for i in 0..items.len().max(base.items.len()) {
            match (base.items.get(i), items.get(i)) {
                (Some(old), Some(new)) if old != new => fold.update(&i, old, new),
                (Some(old), None) => fold.remove(&i, old),
                (None, Some(new)) => fold.insert(&i, new),
                _ => {}
            }
        }
        let errs = items.iter().filter(|o| o.is_err()).count() as u32;
        Output { items, fold, errs }
    }

    fn push(&mut self, item: OutItem) {
        self.fold.insert(&self.items.len(), &item);
        self.errs += u32::from(item.is_err());
        self.items.push(item);
    }
}

impl PartialEq for Output {
    fn eq(&self, other: &Self) -> bool {
        self.items == other.items
    }
}

impl Eq for Output {}

impl OutItem {
    /// Whether this is a printed `err` value.
    fn is_err(&self) -> bool {
        matches!(self, OutItem::Val(Value::Err))
    }
}

/// The input stream with its digest ([`MachineState::fold_input`]). The
/// stream never changes after construction; only a state's cursor moves.
#[derive(Debug)]
pub(crate) struct Input {
    words: Box<[i64]>,
    digest: u128,
}

impl PartialEq for Input {
    fn eq(&self, other: &Self) -> bool {
        self.words == other.words
    }
}

impl Eq for Input {}

impl Input {
    pub(crate) fn new(words: Vec<i64>) -> Input {
        let digest = MachineState::fold_input(&words);
        Input {
            words: words.into_boxed_slice(),
            digest,
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
    // Every collection sits behind one pointer shared between a state and
    // its forks (copy-on-write), with the caches derived from it: a clone
    // bumps refcounts, the first post-fork write of each branch pays the
    // one unsharing copy, and the term stays small enough to move cheaply
    // from the stepper into the visited set and the frontier.
    regs: Arc<RegFile>,
    mem: CowMemory,
    input: Arc<Input>,
    input_pos: usize,
    output: Arc<Output>,
    constraints: ConstraintMap,
    steps: u64,
    status: Status,
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
        MachineState {
            pc: 0,
            regs: Arc::new(RegFile::zero()),
            mem: CowMemory::new(),
            input: Arc::new(Input::new(input)),
            input_pos: 0,
            output: Arc::default(),
            constraints: ConstraintMap::new(),
            steps: 0,
            status: Status::Running,
        }
    }

    /// FNV-128 of the input stream. The stream is immutable after
    /// construction (only the cursor moves), so this is computed once, when
    /// the stream is built, and shared with it; a `StateDecoder` computes
    /// it once per segment, and again only for a record whose input differs. `Hash for [i64]` writes the
    /// length as one word and then the elements as native-endian bytes,
    /// which the hasher absorbs one FNV round per byte: 129 rounds for a
    /// 16-word input. Hashing the elements a word at a time would be
    /// cheaper, but it moves every state fingerprint and with it every
    /// pinned digest, so it belongs with the fingerprint fix (ROADMAP
    /// item 2b).
    pub(crate) fn fold_input(input: &[i64]) -> u128 {
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
        self.regs.get(r.index())
    }

    /// Writes the register cell; the file rolls its own fold. A
    /// same-value write leaves a shared file shared.
    fn write_reg_cell(&mut self, r: Reg, v: Value) {
        let i = r.index();
        if self.regs.get(i) != v {
            // Unshares the register file on the first write after a fork;
            // a no-op atomic check when this state already owns it.
            Arc::make_mut(&mut self.regs).set(i, v);
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
        let v = self.input.words.get(self.input_pos).copied().unwrap_or(0);
        self.input_pos += 1;
        v
    }

    /// The full input stream the state was constructed with (immutable
    /// after construction; only the cursor moves).
    #[must_use]
    pub fn input_stream(&self) -> &[i64] {
        &self.input.words
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
        // Unshares the stream on the first post-fork print; a no-op
        // refcount check when this state already owns it.
        Arc::make_mut(&mut self.output).push(item);
    }

    /// The output stream so far.
    #[must_use]
    pub fn output(&self) -> &[OutItem] {
        &self.output.items
    }

    /// The printed *values* (ignoring string literals), for outcome checks.
    /// Allocation-free: terminal predicates run this on every solution
    /// candidate.
    pub fn output_values(&self) -> impl Iterator<Item = Value> + '_ {
        self.output.items.iter().filter_map(|o| match o {
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
        self.output.errs > 0
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
        self.regs.errs == 0 && !self.mem.iter().any(|(_, v)| v.is_err())
    }

    /// Every location currently holding `err`.
    #[must_use]
    pub fn err_locations(&self) -> Vec<Location> {
        let mut out = Vec::new();
        let mut errs = self.regs.errs;
        while errs != 0 {
            out.push(Location::reg(errs.trailing_zeros() as u8));
            errs &= errs - 1;
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
        self.output.items.iter().map(ToString::to_string).collect()
    }
}

/// The components of a decoded state, each built with its rolling fold by
/// [`crate::codec`] (or shared with the previous state a `StateDecoder`
/// decoded), assembled into a live [`MachineState`] by
/// [`MachineState::from_decoded`].
pub(crate) struct DecodedState {
    pub(crate) pc: usize,
    pub(crate) regs: Arc<RegFile>,
    pub(crate) mem: CowMemory,
    pub(crate) input: Arc<Input>,
    pub(crate) input_pos: usize,
    pub(crate) output: Arc<Output>,
    pub(crate) constraints: ConstraintMap,
    pub(crate) steps: u64,
    pub(crate) status: Status,
}

impl MachineState {
    /// Assembles a live state from decoded components. The codec built
    /// every rolling cache from the decoded content — from scratch, or by
    /// moving the previous decoded state's folds over the cells that
    /// differ, or by sharing a component equal to the previous state's —
    /// so a decoded state is indistinguishable from one built through the
    /// mutators: its `fingerprint()` equals `fingerprint_from_scratch()`,
    /// which the codec round-trip and stream property tests pin down.
    pub(crate) fn from_decoded(d: DecodedState) -> Self {
        MachineState {
            pc: d.pc,
            regs: d.regs,
            mem: d.mem,
            input: d.input,
            input_pos: d.input_pos,
            output: d.output,
            constraints: d.constraints,
            steps: d.steps,
            status: d.status,
        }
    }

    /// The register file, for the state codec.
    pub(crate) fn reg_file(&self) -> &Arc<RegFile> {
        &self.regs
    }

    /// The memory image, for the state codec.
    pub(crate) fn memory_image(&self) -> &CowMemory {
        &self.mem
    }

    /// The shared input allocation, for the state codec.
    pub(crate) fn input_arc(&self) -> &Arc<Input> {
        &self.input
    }

    /// The shared output stream, for the state codec.
    pub(crate) fn output_arc(&self) -> &Arc<Output> {
        &self.output
    }

    /// The fixed per-state term of [`MachineState::approx_bytes`]: the
    /// struct size of the map-backed memory image the estimate was
    /// calibrated on. Frozen rather than `size_of::<Self>()`, because the
    /// frontier's spill schedule — and with it the spill counts pinned in
    /// `benchmark/expected.json` — is a function of these figures, which
    /// must not move when the struct layout does.
    const APPROX_HEADER_BYTES: usize = 240;

    /// The per-entry term of [`MachineState::approx_bytes`] for the
    /// constraint map: an interval plus a small exclusion tree, as measured
    /// on the B-tree-backed map the estimate was calibrated on. Frozen for
    /// the same reason as [`Self::APPROX_HEADER_BYTES`]: the spill schedule
    /// must not move when the map's representation does.
    const APPROX_CONSTRAINT_BYTES: usize = 96;

    /// The register-file term of [`MachineState::approx_bytes`]: the size
    /// of the `[Value; 32]` array the estimate was calibrated on. Frozen
    /// for the same reason as [`Self::APPROX_HEADER_BYTES`]: the compact
    /// [`RegFile`] is smaller, but the spill schedule must not move with it.
    const APPROX_REGS_BYTES: usize = 512;

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
        // frozen with the fixed term and the constraint-entry term.
        Self::APPROX_HEADER_BYTES
            // The Arc-shared register file, counted unshared (see above).
            + Self::APPROX_REGS_BYTES
            + self.mem.len() * (size_of::<u64>() + size_of::<Value>() + 16)
            + self.output.items.len() * size_of::<OutItem>()
            + self.input.words.len() * size_of::<i64>()
            + self.constraints.len() * Self::APPROX_CONSTRAINT_BYTES
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
        self.steps == other.steps && self.same_configuration(other)
    }
}

impl Eq for MachineState {}

impl Hash for MachineState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.steps.hash(state);
        self.pc.hash(state);
        self.regs.hash(state);
        self.mem.hash(state);
        self.input.words.hash(state);
        self.input_pos.hash(state);
        self.output.items.hash(state);
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
            self.regs.fold(),
            self.mem.digest(),
            self.output.fold,
            self.constraints.digest(),
            self.input.digest,
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
            self.regs.refold(),
            self.mem.refold_digest(),
            ZobristComponent::refold(self.output.items.iter().enumerate()),
            self.constraints.refold_digest(),
            Self::fold_input(&self.input.words),
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
        h.write_usize(self.output.items.len());
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
        for (i, v) in self.regs.cells() {
            if v != Value::Int(0) {
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
        if !self.output.items.is_empty() {
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

    /// The engine moves every successor as a value, so the state term's
    /// size is paid on each move: it must stay small.
    #[test]
    fn the_state_term_stays_small() {
        assert!(
            std::mem::size_of::<MachineState>() <= 104,
            "MachineState is {} bytes",
            std::mem::size_of::<MachineState>()
        );
    }

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
