//! The paper's central soundness claim (§3.2): "while SymPLFIED may
//! uncover false-positives, it will never miss an outcome that may occur
//! in the program due to the error."
//!
//! Property: for any concrete value injected at an injection point, the
//! outcome of the concrete run must be *covered* by some terminal state of
//! the symbolic search from the same point — same status class, and each
//! printed value either equal or abstracted to `err`.

use proptest::prelude::*;
use symplfied::check::{search_many, Predicate, SearchLimits};
use symplfied::inject::{prepare, InjectTarget, InjectionPoint};
use symplfied::machine::{ExecLimits, MachineState, OutItem, Status};
use symplfied::prelude::*;
use symplfied::ssim::{replay_register_witness, ConcreteOutcome};

/// Whether a symbolic terminal state covers a concrete outcome.
fn covers(symbolic: &MachineState, concrete: &ConcreteOutcome) -> bool {
    match (symbolic.status(), concrete) {
        (Status::Halted, ConcreteOutcome::Output(values)) => {
            let sym: Vec<&OutItem> = symbolic
                .output()
                .iter()
                .filter(|o| matches!(o, OutItem::Val(_)))
                .collect();
            sym.len() == values.len()
                && sym.iter().zip(values).all(|(s, v)| match s {
                    OutItem::Val(Value::Int(i)) => i == v,
                    OutItem::Val(Value::Err) => true,
                    OutItem::Str(_) => false,
                })
        }
        (Status::Exception(_), ConcreteOutcome::Crash(_)) => true,
        (Status::TimedOut, ConcreteOutcome::Hang) => true,
        (Status::Detected(a), ConcreteOutcome::Detected(b)) => a == b,
        _ => false,
    }
}

fn check_coverage(
    workload: &symplfied::apps::Workload,
    breakpoint: usize,
    reg: Reg,
    value: i64,
    max_steps: u64,
) -> Result<(), TestCaseError> {
    let exec = ExecLimits::with_max_steps(max_steps);
    // Concrete run with the injected value.
    let Some(replay) = replay_register_witness(
        &workload.program,
        &workload.detectors,
        &workload.input,
        breakpoint,
        1,
        reg,
        value,
        &exec,
    ) else {
        // Breakpoint off the golden path: nothing to cover.
        return Ok(());
    };

    // Symbolic search from the same point.
    let point = InjectionPoint::new(breakpoint, InjectTarget::Register(reg));
    let prep = prepare(
        &workload.program,
        &workload.detectors,
        &workload.input,
        &point,
        &exec,
    );
    prop_assert!(prep.activated);
    let report = search_many(
        &workload.program,
        &workload.detectors,
        prep.seeds,
        &Predicate::Any,
        &SearchLimits {
            exec,
            max_states: 500_000,
            max_solutions: 100_000,
            max_time: None,
            ..SearchLimits::default()
        },
    );
    prop_assert!(
        report.exhausted,
        "soundness check needs a complete search ({} states)",
        report.states_explored
    );
    prop_assert!(
        report.solutions.iter().any(|s| covers(&s.state, &replay.outcome)),
        "no symbolic terminal covers concrete outcome {:?} (value {value} in {reg} @{breakpoint}); \
         symbolic outcomes: {:?}",
        replay.outcome,
        report
            .solutions
            .iter()
            .map(|s| format!("{} `{}`", s.state.status(), s.state.rendered_output()))
            .collect::<Vec<_>>()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn factorial_symbolic_covers_concrete(
        value in prop_oneof![(-10i64..=10), Just(i64::MAX), Just(i64::MIN), any::<i64>()],
        bp_choice in 0usize..4,
        n in 1i64..6,
    ) {
        // Injection points inside the loop: setgt(4), mult(6), subi(7), print(10).
        let breakpoints = [(4usize, 3u8), (6, 3), (7, 3), (10, 2)];
        let (bp, reg) = breakpoints[bp_choice];
        let w = symplfied::apps::factorial().with_input(vec![n]);
        check_coverage(&w, bp, Reg::r(reg), value, 1_500)?;
    }

    #[test]
    fn factorial_with_detectors_symbolic_covers_concrete(
        value in prop_oneof![(-10i64..=10), any::<i64>()],
        n in 1i64..5,
    ) {
        // The loop counter at the decrement (`subi $3 $3 #1`, address 10).
        let w = symplfied::apps::factorial_with_detectors().with_input(vec![n]);
        check_coverage(&w, 10, Reg::r(3), value, 1_500)?;
    }

    #[test]
    fn sum_symbolic_covers_concrete(
        value in prop_oneof![(-5i64..=15), any::<i64>()],
        n in 1i64..6,
    ) {
        // The accumulator at `add $2, $2, $3` (address 5).
        let w = symplfied::apps::sum().with_input(vec![n]);
        check_coverage(&w, 5, Reg::r(2), value, 1_000)?;
    }
}

// ---------------------------------------------------------------------
// State-representation equivalence (the copy-on-write refactor)
// ---------------------------------------------------------------------

mod state_representation {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn std_hash(state: &MachineState) -> u64 {
        let mut h = DefaultHasher::new();
        state.hash(&mut h);
        h.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// CoW-forked states must be indistinguishable from independently
        /// constructed states with the same contents: `==`, the std hash,
        /// and the 128-bit search fingerprint all agree, whichever side of
        /// a fork wrote which cell.
        #[test]
        fn cow_forked_states_match_fresh_states(
            base in prop::collection::vec((0u64..48, -100i64..=100), 1..40),
            extra in prop::collection::vec((0u64..64, -100i64..=100), 0..24),
        ) {
            let mut origin = MachineState::new();
            origin.load_memory(base.iter().map(|&(slot, v)| (slot * 8, v)));

            // Fork and keep writing: the fork starts out sharing the
            // origin's image and copies it on its first write.
            let mut fork = origin.clone();
            prop_assert!(fork.memory_shares_storage(&origin));
            for &(slot, v) in &extra {
                fork.set_mem(slot * 8, Value::Int(v));
            }

            // The same contents, built flat with no sharing anywhere.
            let mut fresh = MachineState::new();
            fresh.load_memory(base.iter().map(|&(slot, v)| (slot * 8, v)));
            for &(slot, v) in &extra {
                fresh.set_mem(slot * 8, Value::Int(v));
            }

            prop_assert_eq!(&fork, &fresh);
            prop_assert_eq!(std_hash(&fork), std_hash(&fresh));
            prop_assert_eq!(fork.fingerprint(), fresh.fingerprint());
            // And the origin never observed the fork's writes.
            prop_assert_eq!(origin.memory_len(), {
                let mut distinct: Vec<u64> = base.iter().map(|&(s, _)| s).collect();
                distinct.sort_unstable();
                distinct.dedup();
                distinct.len()
            });
        }
    }
}

// ---------------------------------------------------------------------
// Shared state-mutation machinery: random operation sequences over the
// full write-path surface of the machine state, used by the rolling-digest
// consistency tests and the codec round-trip tests alike.
// ---------------------------------------------------------------------

mod state_ops {
    use super::*;

    /// One mutation drawn from the full write-path surface of the machine
    /// state (every operation that can move a rolling component fold).
    #[derive(Debug, Clone)]
    pub enum Op {
        SetReg(u8, Value),
        CopyReg(u8, Value, Location),
        SetMem(u64, Value),
        CopyMem(u64, Value, Location),
        /// Bulk image load; sized so that one load defines and overwrites
        /// many cells of an image a fork may still share.
        LoadMemory(Vec<(u64, i64)>),
        Constrain(Location, Constraint),
        PushVal(Value),
        PushStr,
        ReadInput,
        SetPc(usize),
        BumpSteps,
        SetStatus(u8),
        /// Clone the newest state (CoW fork) and continue mutating the
        /// clone; the original is re-checked at the end.
        Fork,
        /// Swap the two newest states, so later writes hit a fork whose
        /// image is shared from the *other* side.
        Swap,
    }

    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![4 => (-50i64..=50).prop_map(Value::Int), 1 => Just(Value::Err)]
    }

    fn location_strategy() -> impl Strategy<Value = Location> {
        prop_oneof![
            (1u8..28).prop_map(Location::reg),
            (0u64..40).prop_map(|slot| Location::Mem(slot * 8)),
        ]
    }

    fn constraint_strategy() -> impl Strategy<Value = Constraint> {
        (0u8..6, -5i64..=5).prop_map(|(kind, c)| match kind {
            0 => Constraint::Eq(c),
            1 => Constraint::Ne(c),
            2 => Constraint::Gt(c),
            3 => Constraint::Lt(c),
            4 => Constraint::Ge(c),
            _ => Constraint::Le(c),
        })
    }

    pub fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => ((1u8..30), value_strategy()).prop_map(|(r, v)| Op::SetReg(r, v)),
            2 => ((1u8..30), value_strategy(), location_strategy())
                .prop_map(|(r, v, f)| Op::CopyReg(r, v, f)),
            4 => ((0u64..48), value_strategy()).prop_map(|(s, v)| Op::SetMem(s * 8, v)),
            2 => ((0u64..48), value_strategy(), location_strategy())
                .prop_map(|(s, v, f)| Op::CopyMem(s * 8, v, f)),
            1 => prop::collection::vec(((0u64..96), (-9i64..=9)), 1..80)
                .prop_map(|img| Op::LoadMemory(
                    img.into_iter().map(|(s, v)| (s * 8, v)).collect()
                )),
            3 => (location_strategy(), constraint_strategy())
                .prop_map(|(l, c)| Op::Constrain(l, c)),
            2 => value_strategy().prop_map(Op::PushVal),
            1 => Just(Op::PushStr),
            1 => Just(Op::ReadInput),
            1 => (0usize..64).prop_map(Op::SetPc),
            1 => Just(Op::BumpSteps),
            1 => (0u8..5).prop_map(Op::SetStatus),
            2 => Just(Op::Fork),
            1 => Just(Op::Swap),
        ]
    }

    pub fn apply(state: &mut MachineState, op: &Op) {
        match op {
            Op::SetReg(r, v) => state.set_reg(Reg::r(*r), *v),
            Op::CopyReg(r, v, from) => state.copy_reg_with_constraints(Reg::r(*r), *v, *from),
            Op::SetMem(a, v) => state.set_mem(*a, *v),
            Op::CopyMem(a, v, from) => state.copy_mem_with_constraints(*a, *v, *from),
            Op::LoadMemory(img) => state.load_memory(img.iter().copied()),
            Op::Constrain(l, c) => {
                let _ = state.constraints_mut().constrain(*l, *c);
            }
            Op::PushVal(v) => state.push_output(OutItem::Val(*v)),
            Op::PushStr => state.push_output(OutItem::Str("s".into())),
            Op::ReadInput => {
                let _ = state.read_input();
            }
            Op::SetPc(pc) => state.set_pc(*pc),
            Op::BumpSteps => state.bump_steps(),
            Op::SetStatus(k) => state.set_status(match k {
                0 => Status::Running,
                1 => Status::Halted,
                2 => Status::Exception(symplfied::machine::Exception::DivByZero),
                3 => Status::Detected(2),
                _ => Status::TimedOut,
            }),
            Op::Fork | Op::Swap => unreachable!("pool-level ops"),
        }
    }

    /// Runs an op sequence against a fresh pool (forks clone the newest
    /// state, swaps reorder the two newest), returning every state built
    /// along the way — the CoW-layered zoo the digest and codec tests
    /// exercise.
    pub fn run_ops(input: &[i64], ops: &[Op]) -> Vec<MachineState> {
        let mut pool = vec![MachineState::with_input(input.to_vec())];
        for op in ops {
            match op {
                Op::Fork => {
                    let fork = pool.last().expect("nonempty pool").clone();
                    pool.push(fork);
                }
                Op::Swap => {
                    let n = pool.len();
                    if n >= 2 {
                        pool.swap(n - 1, n - 2);
                    }
                }
                _ => apply(pool.last_mut().expect("nonempty pool"), op),
            }
        }
        pool
    }
}

// ---------------------------------------------------------------------
// Rolling-digest consistency: the incrementally-maintained fingerprint
// must equal a from-scratch recompute after arbitrary write/fork
// sequences through every mutator the executors use.
// ---------------------------------------------------------------------

mod digest_consistency {
    use super::state_ops::{apply, op_strategy, run_ops, Op};
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// After every single mutation — across forks and writes to shared
        /// images — the rolling fingerprint equals the
        /// O(|state|) from-scratch recompute, on the mutated state and
        /// (at the end) on every forked ancestor it shares storage with.
        #[test]
        fn rolling_fingerprint_equals_recompute(
            ops in prop::collection::vec(op_strategy(), 1..120),
        ) {
            let mut pool = vec![MachineState::with_input(vec![7, -3, 0, 11])];
            for op in &ops {
                match op {
                    Op::Fork => {
                        let fork = pool.last().expect("nonempty pool").clone();
                        pool.push(fork);
                    }
                    Op::Swap => {
                        let n = pool.len();
                        if n >= 2 {
                            pool.swap(n - 1, n - 2);
                        }
                    }
                    _ => apply(pool.last_mut().expect("nonempty pool"), op),
                }
                let s = pool.last().expect("nonempty pool");
                prop_assert_eq!(
                    s.fingerprint(),
                    s.fingerprint_from_scratch(),
                    "rolling digest desynced after {:?}",
                    op
                );
            }
            // Every ancestor fork must still be consistent (writes to the
            // newest state must never corrupt a sharing sibling's caches)…
            for s in &pool {
                prop_assert_eq!(s.fingerprint(), s.fingerprint_from_scratch());
            }
            // …and equal-content states must agree on the digest even when
            // their mutation and fork histories differ.
            let replayed = run_ops(&[7, -3, 0, 11], &ops);
            for (a, b) in pool.iter().zip(&replayed) {
                prop_assert_eq!(a, b);
                prop_assert_eq!(a.fingerprint(), b.fingerprint());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Codec round-trip: encode → decode must preserve full `Eq`, and the
// decoded state's re-derived rolling fingerprint must agree with both the
// from-scratch recompute and the original — the property the disk-spilling
// frontier's segment replay stands on.
// ---------------------------------------------------------------------

mod codec_roundtrip {
    use super::state_ops::{op_strategy, run_ops};
    use super::*;
    use symplfied::machine::{decode_state, encode_state};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn encode_decode_preserves_eq_and_fingerprints(
            ops in prop::collection::vec(op_strategy(), 1..120),
        ) {
            // Every state in the pool — CoW-forked, shared, unshared,
            // swapped — must survive a codec round-trip.
            for original in run_ops(&[7, -3, 0, 11], &ops) {
                let mut buf = Vec::new();
                encode_state(&original, &mut buf);
                let (decoded, consumed) = decode_state(&buf)
                    .expect("well-formed encodings must decode");
                prop_assert_eq!(consumed, buf.len(), "whole record consumed");
                prop_assert_eq!(&decoded, &original, "full Eq after round-trip");
                prop_assert_eq!(
                    decoded.fingerprint(),
                    decoded.fingerprint_from_scratch(),
                    "decoded rolling caches must be re-derived consistently"
                );
                prop_assert_eq!(decoded.fingerprint(), original.fingerprint());
            }
        }

        /// Concatenated records (the spill-segment layout) decode back in
        /// order, one at a time.
        #[test]
        fn segment_streams_roundtrip(
            ops in prop::collection::vec(op_strategy(), 1..60),
        ) {
            let pool = run_ops(&[1, 2], &ops);
            let mut buf = Vec::new();
            for s in &pool {
                encode_state(s, &mut buf);
            }
            let mut pos = 0usize;
            let mut decoded = Vec::new();
            while pos < buf.len() {
                let (s, consumed) = decode_state(&buf[pos..]).expect("stream record");
                pos += consumed;
                decoded.push(s);
            }
            prop_assert_eq!(&decoded, &pool);
        }
    }
}

// ---------------------------------------------------------------------
// Memory model: the copy-on-write memory image, driven through every
// state-level memory writer plus forks and codec round-trips, against a
// plain `BTreeMap<u64, Value>` reference.
// ---------------------------------------------------------------------

mod memory_model {
    use super::*;
    use std::collections::BTreeMap;
    use symplfied::machine::{decode_state, encode_state};

    #[derive(Debug, Clone)]
    enum MemOp {
        Set(u64, Value),
        Load(Vec<(u64, i64)>),
        /// `copy_mem_with_constraints` from the constrained err register
        /// `$3`.
        Copy(u64, Value),
        /// Clone the newest state and keep mutating the clone.
        Fork,
        /// Replace the newest state by its encode → decode round-trip.
        Codec,
    }

    fn addr_strategy() -> impl Strategy<Value = u64> {
        prop_oneof![
            8 => (0u64..64).prop_map(|slot| slot * 8),
            1 => (0u64..4).prop_map(|k| u64::MAX - 7 - k * 8),
        ]
    }

    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![4 => (-50i64..=50).prop_map(Value::Int), 1 => Just(Value::Err)]
    }

    fn op_strategy() -> impl Strategy<Value = MemOp> {
        prop_oneof![
            6 => (addr_strategy(), value_strategy()).prop_map(|(a, v)| MemOp::Set(a, v)),
            2 => prop::collection::vec((addr_strategy(), -9i64..=9), 1..40).prop_map(MemOp::Load),
            3 => (addr_strategy(), value_strategy()).prop_map(|(a, v)| MemOp::Copy(a, v)),
            2 => Just(MemOp::Fork),
            1 => Just(MemOp::Codec),
        ]
    }

    fn seed() -> MachineState {
        let mut s = MachineState::new();
        s.set_reg(Reg::r(3), Value::Err);
        let _ = s
            .constraints_mut()
            .constrain(Location::reg(3), Constraint::Gt(2));
        s
    }

    fn encoded(s: &MachineState) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_state(s, &mut buf);
        buf
    }

    fn matches_reference(
        s: &MachineState,
        reference: &BTreeMap<u64, Value>,
    ) -> Result<(), TestCaseError> {
        let cells: Vec<(u64, Value)> = reference.iter().map(|(&a, &v)| (a, v)).collect();
        prop_assert_eq!(s.memory_cells().collect::<Vec<_>>(), cells);
        prop_assert_eq!(s.memory_len(), reference.len());
        prop_assert!(s.defined_addresses().eq(reference.keys().copied()));
        for slot in 0..66u64 {
            prop_assert_eq!(s.mem(slot * 8), reference.get(&(slot * 8)).copied());
        }
        prop_assert_eq!(s.mem(u64::MAX - 7), reference.get(&(u64::MAX - 7)).copied());
        prop_assert_eq!(s.fingerprint(), s.fingerprint_from_scratch());
        // A twin built flat — ascending writes on a never-forked state —
        // with the same registers and constraint map.
        let mut twin = MachineState::new();
        twin.set_reg(Reg::r(3), Value::Err);
        for (&a, &v) in reference {
            twin.set_mem(a, v);
        }
        *twin.constraints_mut() = s.constraints().clone();
        prop_assert_eq!(encoded(s), encoded(&twin));
        prop_assert_eq!(s, &twin);
        prop_assert_eq!(s.fingerprint(), twin.fingerprint());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn cow_image_matches_btreemap_reference(
            ops in prop::collection::vec(op_strategy(), 1..150),
        ) {
            let mut pool = vec![(seed(), BTreeMap::new())];
            for op in &ops {
                if let MemOp::Fork = op {
                    let fork = pool.last().expect("nonempty pool").clone();
                    pool.push(fork);
                    continue;
                }
                let (s, reference) = pool.last_mut().expect("nonempty pool");
                match op {
                    MemOp::Set(a, v) => {
                        s.set_mem(*a, *v);
                        reference.insert(*a, *v);
                    }
                    MemOp::Load(img) => {
                        s.load_memory(img.iter().copied());
                        for &(a, v) in img {
                            reference.insert(a, Value::Int(v));
                        }
                    }
                    MemOp::Copy(a, v) => {
                        s.copy_mem_with_constraints(*a, *v, Location::reg(3));
                        reference.insert(*a, *v);
                    }
                    MemOp::Codec => {
                        let bytes = encoded(s);
                        *s = decode_state(&bytes).expect("well-formed encoding").0;
                    }
                    MemOp::Fork => unreachable!("handled above"),
                }
                matches_reference(s, reference)?;
            }
            // No fork's writes leaked into a state it shared an image with.
            for (s, reference) in &pool {
                matches_reference(s, reference)?;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Constraint-map model: the flat, location-sorted constraint map, driven
// through `constrain`/`clear`/`copy`, clones and codec round-trips,
// against a plain `BTreeMap<Location, ConstraintSet>` reference, whose
// iteration order, `Hash` stream and codec bytes the map must reproduce
// (state digests and spill segments depend on all three).
// ---------------------------------------------------------------------

mod constraint_map_model {
    use super::*;
    use std::collections::BTreeMap;
    use std::hash::Hash;
    use symplfied::symbolic::codec::{
        decode_constraint_map, encode_constraint_map, encode_constraint_set, encode_location,
        encode_u64,
    };
    use symplfied::symbolic::{ConstraintMap, ConstraintSet, Fnv128Hasher, ZobristComponent};

    type Reference = BTreeMap<Location, ConstraintSet>;

    #[derive(Debug, Clone)]
    enum MapOp {
        Constrain(Location, Constraint),
        Clear(Location),
        Copy(Location, Location),
        /// Clone the newest map and keep mutating the clone.
        Fork,
        /// Replace the newest map by its encode → decode round-trip.
        Codec,
    }

    /// Few locations, so operations keep hitting occupied entries; both
    /// kinds, and addresses at both ends of the key order.
    fn location_strategy() -> impl Strategy<Value = Location> {
        prop_oneof![
            3 => (1u8..6).prop_map(Location::reg),
            2 => (0u64..4).prop_map(|slot| Location::Mem(slot * 8)),
            1 => Just(Location::Mem(u64::MAX - 7)),
        ]
    }

    /// Narrow constants, so sets gather exclusions and turn unsatisfiable.
    fn constraint_strategy() -> impl Strategy<Value = Constraint> {
        (0u8..6, -3i64..=3).prop_map(|(kind, c)| match kind {
            0 => Constraint::Eq(c),
            1 => Constraint::Ne(c),
            2 => Constraint::Gt(c),
            3 => Constraint::Lt(c),
            4 => Constraint::Ge(c),
            _ => Constraint::Le(c),
        })
    }

    fn op_strategy() -> impl Strategy<Value = MapOp> {
        prop_oneof![
            8 => (location_strategy(), constraint_strategy())
                .prop_map(|(l, c)| MapOp::Constrain(l, c)),
            2 => location_strategy().prop_map(MapOp::Clear),
            3 => (location_strategy(), location_strategy()).prop_map(|(f, t)| MapOp::Copy(f, t)),
            2 => Just(MapOp::Fork),
            1 => Just(MapOp::Codec),
        ]
    }

    fn all_locations() -> impl Iterator<Item = Location> {
        (0u8..7)
            .map(Location::reg)
            .chain((0u64..5).map(|slot| Location::Mem(slot * 8)))
            .chain([Location::Mem(u64::MAX - 7)])
    }

    fn fnv<T: Hash>(value: &T) -> u128 {
        let mut h = Fnv128Hasher::new();
        value.hash(&mut h);
        h.finish128()
    }

    fn encoded(map: &ConstraintMap) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_constraint_map(map, &mut buf);
        buf
    }

    fn matches_reference(map: &ConstraintMap, reference: &Reference) -> Result<(), TestCaseError> {
        let entries: Vec<(Location, &ConstraintSet)> =
            reference.iter().map(|(&l, s)| (l, s)).collect();
        prop_assert_eq!(map.iter().collect::<Vec<_>>(), entries);
        prop_assert_eq!(map.len(), reference.len());
        prop_assert_eq!(map.is_empty(), reference.is_empty());
        for loc in all_locations() {
            prop_assert_eq!(map.get(loc), reference.get(&loc));
            prop_assert_eq!(
                map.witness(loc),
                reference.get(&loc).and_then(ConstraintSet::witness)
            );
        }
        let unsat = reference.values().filter(|s| !s.is_satisfiable()).count();
        prop_assert_eq!(map.is_satisfiable(), unsat == 0);
        prop_assert_eq!(map.digest(), map.refold_digest());
        let refold = ZobristComponent::refold(reference.iter());
        prop_assert_eq!(map.digest(), refold);
        // The derived `Hash` writes the entries, then the two caches; the
        // entries' part must be the B-tree's stream.
        prop_assert_eq!(fnv(map), fnv(&(reference, unsat, refold)));
        // Codec bytes: the count, then each entry in location order.
        let mut bytes = Vec::new();
        encode_u64(reference.len() as u64, &mut bytes);
        for (&loc, set) in reference {
            encode_location(loc, &mut bytes);
            encode_constraint_set(set, &mut bytes);
        }
        prop_assert_eq!(encoded(map), bytes);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn flat_map_matches_btreemap_reference(
            ops in prop::collection::vec(op_strategy(), 1..150),
        ) {
            let mut pool = vec![(ConstraintMap::new(), Reference::new())];
            for op in &ops {
                if let MapOp::Fork = op {
                    let fork = pool.last().expect("nonempty pool").clone();
                    pool.push(fork);
                    continue;
                }
                let (map, reference) = pool.last_mut().expect("nonempty pool");
                match op {
                    MapOp::Constrain(loc, c) => {
                        let set = reference.entry(*loc).or_default();
                        set.add(*c);
                        prop_assert_eq!(map.constrain(*loc, *c), set.is_satisfiable());
                    }
                    MapOp::Clear(loc) => {
                        map.clear(*loc);
                        reference.remove(loc);
                    }
                    MapOp::Copy(from, to) => {
                        map.copy(*from, *to);
                        match reference.get(from).cloned() {
                            Some(set) => {
                                reference.insert(*to, set);
                            }
                            None => {
                                reference.remove(to);
                            }
                        }
                    }
                    MapOp::Codec => {
                        let bytes = encoded(map);
                        let mut pos = 0;
                        let decoded = decode_constraint_map(&bytes, &mut pos)
                            .expect("well-formed encoding");
                        prop_assert_eq!(pos, bytes.len(), "whole record consumed");
                        prop_assert_eq!(&decoded, &*map);
                        *map = decoded;
                    }
                    MapOp::Fork => unreachable!("handled above"),
                }
                matches_reference(map, reference)?;
            }
            // No clone's writes leaked into the map it was cloned from.
            for (map, reference) in &pool {
                matches_reference(map, reference)?;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Register-file model: the compact register file (integers plus an `err`
// mask), driven through `set_reg`/`copy_reg_with_constraints`, forks and
// codec round-trips, against a plain `[Value; 32]` reference, whose reads,
// equality and `Hash` stream the state must reproduce (`outcome_digest`
// hashes states through that stream).
// ---------------------------------------------------------------------

mod register_file_model {
    use super::*;
    use std::hash::Hash;
    use symplfied::machine::{decode_state, encode_state};
    use symplfied::symbolic::Fnv128Hasher;

    type Reference = [Value; 32];

    #[derive(Debug, Clone)]
    enum RegOp {
        Set(u8, Value),
        /// `copy_reg_with_constraints` from the given register.
        Copy(u8, Value, u8),
        /// Constrain a register, so copies have facts to carry.
        Constrain(u8, Constraint),
        /// Clone the newest state and keep mutating the clone.
        Fork,
        /// Replace the newest state by its encode → decode round-trip.
        Codec,
    }

    /// Every register, `$0` included (its writes must be discarded).
    fn reg_strategy() -> impl Strategy<Value = u8> {
        prop_oneof![4 => 0u8..8, 1 => 0u8..32]
    }

    /// Mostly small values, so rewrites often restore a cell; zero (the
    /// default every register starts at), both extremes and `err`.
    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            4 => (-3i64..=3).prop_map(Value::Int),
            1 => prop_oneof![Just(i64::MIN), Just(i64::MAX)].prop_map(Value::Int),
            3 => Just(Value::Err),
        ]
    }

    fn op_strategy() -> impl Strategy<Value = RegOp> {
        prop_oneof![
            8 => (reg_strategy(), value_strategy()).prop_map(|(r, v)| RegOp::Set(r, v)),
            3 => (reg_strategy(), value_strategy(), reg_strategy())
                .prop_map(|(r, v, f)| RegOp::Copy(r, v, f)),
            2 => (reg_strategy(), (-3i64..=3).prop_map(Constraint::Gt))
                .prop_map(|(r, c)| RegOp::Constrain(r, c)),
            2 => Just(RegOp::Fork),
            1 => Just(RegOp::Codec),
        ]
    }

    fn fnv<T: Hash + ?Sized>(value: &T) -> u128 {
        let mut h = Fnv128Hasher::new();
        value.hash(&mut h);
        h.finish128()
    }

    fn encoded(s: &MachineState) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_state(s, &mut buf);
        buf
    }

    fn matches_reference(s: &MachineState, reference: &Reference) -> Result<(), TestCaseError> {
        for r in Reg::all() {
            prop_assert_eq!(s.reg(r), reference[r.index()], "{}", r);
        }
        // `Hash for MachineState`, field by field, with the reference
        // array in the register file's place.
        let memory: Vec<(u64, Value)> = s.memory_cells().collect();
        let stream = (
            s.steps(),
            s.pc(),
            reference,
            memory,
            s.input_stream(),
            s.input_cursor(),
            s.output(),
            s.constraints(),
            s.status(),
        );
        prop_assert_eq!(fnv(s), fnv(&stream));
        prop_assert!(format!("{s:?}").contains(&format!("regs: {reference:?},")));
        prop_assert_eq!(s.fingerprint(), s.fingerprint_from_scratch());
        prop_assert_eq!(s.is_fully_concrete(), !reference.iter().any(|v| v.is_err()));
        let errs: Vec<Location> = (0u8..32)
            .filter(|&i| reference[usize::from(i)].is_err())
            .map(Location::reg)
            .collect();
        prop_assert_eq!(s.err_locations(), errs);
        // A twin built flat, one write per non-zero cell on a never-forked
        // state, with the same constraint map.
        let mut twin = MachineState::new();
        for r in Reg::all() {
            if reference[r.index()] != Value::Int(0) {
                twin.set_reg(r, reference[r.index()]);
            }
        }
        *twin.constraints_mut() = s.constraints().clone();
        prop_assert_eq!(s, &twin);
        prop_assert_eq!(s.fingerprint(), twin.fingerprint());
        prop_assert_eq!(encoded(s), encoded(&twin));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn compact_file_matches_value_array_reference(
            ops in prop::collection::vec(op_strategy(), 1..150),
        ) {
            let mut pool = vec![(MachineState::new(), [Value::Int(0); 32])];
            for op in &ops {
                if let RegOp::Fork = op {
                    let fork = pool.last().expect("nonempty pool").clone();
                    pool.push(fork);
                    continue;
                }
                let (s, reference) = pool.last_mut().expect("nonempty pool");
                match *op {
                    RegOp::Set(r, v) => {
                        s.set_reg(Reg::r(r), v);
                        if r != 0 {
                            reference[usize::from(r)] = v;
                        }
                    }
                    RegOp::Copy(r, v, from) => {
                        s.copy_reg_with_constraints(Reg::r(r), v, Location::reg(from));
                        if r != 0 {
                            reference[usize::from(r)] = v;
                        }
                    }
                    RegOp::Constrain(r, c) => {
                        let _ = s.constraints_mut().constrain(Location::reg(r), c);
                    }
                    RegOp::Codec => {
                        let bytes = encoded(s);
                        let (decoded, used) = decode_state(&bytes).expect("well-formed encoding");
                        prop_assert_eq!(used, bytes.len(), "whole record consumed");
                        prop_assert_eq!(&decoded, &*s);
                        *s = decoded;
                    }
                    RegOp::Fork => unreachable!("handled above"),
                }
                matches_reference(s, reference)?;
            }
            // No fork's writes leaked into a state it shared a file with,
            // and states are equal exactly when their references and
            // constraint maps are (every other field is the fresh state's).
            for (s, reference) in &pool {
                matches_reference(s, reference)?;
                for (t, other) in &pool {
                    let same = reference == other && s.constraints() == t.constraints();
                    prop_assert_eq!(s == t, same);
                    prop_assert_eq!(s.fingerprint() == t.fingerprint(), same);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Wire-protocol round-trips: the frames a distributed campaign ships —
// task results, result frames, whole task frames — must decode back to
// full-Eq equality, over the same CoW-layered state zoo (state_ops) the
// state-codec tests use.
// ---------------------------------------------------------------------

mod wire_roundtrip {
    use super::state_ops::{op_strategy, run_ops};
    use super::*;
    use std::time::Duration;
    use symplfied::check::Solution;
    use symplfied::cluster::{Finding, TaskResult, TaskSpec};
    use symplfied::symbolic::codec::Codec;
    use symplfied::wire::{decode_message, encode_message, Message, TaskFrame};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn task_results_and_result_frames_roundtrip(
            ops in prop::collection::vec(op_strategy(), 1..40),
            words in prop::collection::vec(0u64..5_000_000, 13..14),
        ) {
            let w = |i: usize| words[i % words.len()] as usize;
            let result = TaskResult {
                id: w(0),
                points_examined: w(1),
                points_total: w(2),
                activated: w(3),
                findings: w(4),
                completed: w(5) % 2 == 0,
                elapsed: Duration::from_micros(words[6 % words.len()]),
                states_explored: w(7),
                point_workers: w(8),
                steals: w(9),
                peak_frontier_len: w(10),
                peak_frontier_bytes: w(11),
                spilled_states: w(12),
                // Process-local cache stats: not wire-encoded, so a
                // round-trip only preserves them when they are zero.
                memo_hits: 0,
                memo_states_skipped: 0,
                prefix_steps_saved: 0,
            };
            // Bare record round-trip.
            let mut buf = Vec::new();
            result.encode(&mut buf);
            let mut pos = 0;
            prop_assert_eq!(&TaskResult::decode(&buf, &mut pos).unwrap(), &result);
            prop_assert_eq!(pos, buf.len());

            // Full TaskDone frame with op-generated solution states.
            let findings: Vec<Finding> = run_ops(&[2], &ops)
                .into_iter()
                .enumerate()
                .map(|(i, state)| Finding {
                    task_id: result.id,
                    point: InjectionPoint::new(i, InjectTarget::Register(Reg::r(3))),
                    solution: Solution { state, trace: vec![0, i] },
                })
                .collect();
            let frame = encode_message(&Message::TaskDone {
                result: result.clone(),
                findings: findings.clone(),
            })
            .expect("result frames are always encodable");
            let Message::TaskDone { result: dr, findings: df } =
                decode_message(&frame).expect("result frames decode")
            else {
                panic!("wrong message kind");
            };
            prop_assert_eq!(&dr, &result);
            prop_assert_eq!(&df, &findings);
        }

        #[test]
        fn task_frames_roundtrip(
            breakpoints in prop::collection::vec(0usize..200, 1..12),
            words in prop::collection::vec(0u64..1_000_000, 6..7),
        ) {
            let spec = TaskSpec {
                id: words[0] as usize,
                points: breakpoints
                    .iter()
                    .map(|&b| InjectionPoint::new(b, InjectTarget::ProgramCounter))
                    .collect(),
            };
            let task = TaskFrame {
                program_id: "tcas".into(),
                program_digest: u128::from(words[1]) << 64 | u128::from(words[2]),
                input: vec![words[3] as i64, -(words[4] as i64)],
                spec,
                predicate: Predicate::WrongOutput { expected: vec![1, 2, 3] },
                search: SearchLimits {
                    max_states: words[5] as usize,
                    max_time: Some(Duration::from_millis(words[0])),
                    ..SearchLimits::default()
                },
                task_budget: Some(Duration::from_secs(words[1] % 1000)),
                max_findings: words[2] as usize,
                point_workers: 1 + (words[3] as usize % 8),
                heartbeat_interval: Duration::from_millis(1 + words[4] % 10_000),
            };
            let frame = encode_message(&Message::Task(task.clone())).unwrap();
            let Message::Task(decoded) = decode_message(&frame).unwrap() else {
                panic!("wrong message kind");
            };
            prop_assert_eq!(&decoded.program_id, &task.program_id);
            prop_assert_eq!(decoded.program_digest, task.program_digest);
            prop_assert_eq!(&decoded.input, &task.input);
            prop_assert_eq!(&decoded.spec, &task.spec);
            prop_assert_eq!(
                format!("{:?}", decoded.predicate),
                format!("{:?}", task.predicate)
            );
            prop_assert_eq!(decoded.search.max_states, task.search.max_states);
            prop_assert_eq!(decoded.search.max_time, task.search.max_time);
            prop_assert_eq!(decoded.task_budget, task.task_budget);
            prop_assert_eq!(decoded.max_findings, task.max_findings);
            prop_assert_eq!(decoded.point_workers, task.point_workers);
            prop_assert_eq!(decoded.heartbeat_interval, task.heartbeat_interval);
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoint-file round-trips: a campaign checkpoint must parse back to
// the exact entries written, drop a crash-truncated tail without losing
// the intact prefix, and refuse (or prefix-truncate at) corruption —
// never invent or alter an entry.
// ---------------------------------------------------------------------

mod checkpoint_roundtrip {
    use super::state_ops::{op_strategy, run_ops};
    use super::*;
    use std::time::Duration;
    use symplfied::check::Solution;
    use symplfied::cluster::{Finding, TaskResult};
    use symplfied::wire::{parse_checkpoint, CheckpointWriter};

    fn entry_from(
        id: usize,
        words: &[u64],
        states: Vec<MachineState>,
    ) -> (TaskResult, Vec<Finding>) {
        let w = |i: usize| words[i % words.len()] as usize;
        let result = TaskResult {
            id,
            points_examined: w(1),
            points_total: w(2),
            activated: w(3),
            findings: states.len(),
            completed: w(4) % 2 == 0,
            elapsed: Duration::from_micros(words[5 % words.len()]),
            states_explored: w(6),
            point_workers: 1 + w(7) % 8,
            steals: w(8),
            peak_frontier_len: w(9),
            peak_frontier_bytes: w(10),
            spilled_states: w(11),
            memo_hits: 0,
            memo_states_skipped: 0,
            prefix_steps_saved: 0,
        };
        let findings = states
            .into_iter()
            .enumerate()
            .map(|(i, state)| Finding {
                task_id: id,
                point: InjectionPoint::new(i, InjectTarget::LoadedWord),
                solution: Solution {
                    state,
                    trace: vec![i, 0],
                },
            })
            .collect();
        (result, findings)
    }

    /// Writes entries through the real `CheckpointWriter` and reads the
    /// file bytes back.
    fn checkpoint_bytes(
        entries: &[(TaskResult, Vec<Finding>)],
        key: u128,
        total: usize,
    ) -> Vec<u8> {
        let path = std::env::temp_dir().join(format!(
            "sympl-ckpt-prop-{}-{key:x}-{total}.bin",
            std::process::id()
        ));
        let mut writer = CheckpointWriter::create(&path, key, total).expect("create checkpoint");
        for entry in entries {
            writer.append(entry).expect("append record");
        }
        let bytes = std::fs::read(&path).expect("read checkpoint back");
        let _ = std::fs::remove_file(&path);
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn checkpoints_roundtrip_with_full_eq(
            ops in prop::collection::vec(op_strategy(), 1..30),
            words in prop::collection::vec(0u64..5_000_000, 12..13),
            tasks in 1usize..6,
        ) {
            let states = run_ops(&[5, -2], &ops);
            let entries: Vec<_> = (0..tasks)
                .map(|id| entry_from(id, &words, if id == 0 { states.clone() } else { Vec::new() }))
                .collect();
            let key = u128::from(words[0]) << 64 | u128::from(words[1]);
            let bytes = checkpoint_bytes(&entries, key, tasks);
            let file = parse_checkpoint(&bytes).expect("intact checkpoints parse");
            prop_assert_eq!(file.key, key);
            prop_assert_eq!(file.tasks_total, tasks);
            prop_assert!(!file.truncated_tail);
            prop_assert_eq!(&file.entries, &entries, "full Eq after round-trip");
        }

        #[test]
        fn truncated_checkpoints_keep_the_intact_prefix(
            words in prop::collection::vec(0u64..5_000_000, 12..13),
            tasks in 2usize..6,
            cut in 1usize..200,
        ) {
            let entries: Vec<_> = (0..tasks)
                .map(|id| entry_from(id, &words, Vec::new()))
                .collect();
            let bytes = checkpoint_bytes(&entries, 7, tasks);
            // Cut somewhere inside the records region (never into the
            // header): a mid-append crash leaves exactly this shape.
            let header_end = checkpoint_bytes(&[], 7, tasks).len();
            let cut = (bytes.len() - cut.min(bytes.len() - header_end)).max(header_end);
            let file = parse_checkpoint(&bytes[..cut]).expect("truncation is tolerated");
            prop_assert!(file.entries.len() < entries.len() || !file.truncated_tail);
            // The surviving entries are an exact prefix — never altered,
            // never reordered.
            prop_assert_eq!(&file.entries[..], &entries[..file.entries.len()]);
        }

        #[test]
        fn corrupt_checkpoints_never_invent_entries(
            words in prop::collection::vec(0u64..5_000_000, 12..13),
            tasks in 1usize..5,
            flip_at in 0usize..10_000,
            flip_bits in 1u8..=255,
        ) {
            let entries: Vec<_> = (0..tasks)
                .map(|id| entry_from(id, &words, Vec::new()))
                .collect();
            let mut bytes = checkpoint_bytes(&entries, 11, tasks);
            let idx = flip_at % bytes.len();
            bytes[idx] ^= flip_bits;
            // A flipped byte either fails the parse outright (header or
            // record damage) or truncates to an intact prefix; it must
            // never yield an entry that was not written.
            if let Ok(file) = parse_checkpoint(&bytes) {
                prop_assert!(file.entries.len() <= entries.len());
                prop_assert_eq!(&file.entries[..], &entries[..file.entries.len()]);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Shard splitting: any sequence of `split_spec` applications must yield
// leaves that are pairwise disjoint, union back to the original point
// set, and preserve the canonical point order — the invariant the
// elastic coordinator's part re-assembly (and the outcome digest)
// stands on.
// ---------------------------------------------------------------------

mod split_spec {
    use super::*;
    use symplfied::cluster::{split_spec, TaskSpec};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn any_split_sequence_partitions_the_shard_in_order(
            breakpoints in prop::collection::vec(0usize..500, 1..40),
            choices in prop::collection::vec(0usize..64, 0..12),
        ) {
            let original = TaskSpec {
                id: 3,
                points: breakpoints
                    .iter()
                    .map(|&b| InjectionPoint::new(b, InjectTarget::ProgramCounter))
                    .collect(),
            };
            // Apply an arbitrary split schedule: each choice picks the
            // leaf to split next (mod the current leaf count), exactly
            // like an adversarial steal schedule would.
            let mut leaves = vec![original.clone()];
            for &choice in &choices {
                let idx = choice % leaves.len();
                if let Some((left, right)) = split_spec(&leaves[idx]) {
                    // A split never loses, invents, or reorders points,
                    // and both halves keep the parent's task id.
                    prop_assert!(!left.points.is_empty());
                    prop_assert!(!right.points.is_empty());
                    prop_assert_eq!(left.points.len(), leaves[idx].points.len().div_ceil(2));
                    prop_assert_eq!(left.id, leaves[idx].id);
                    prop_assert_eq!(right.id, leaves[idx].id);
                    leaves.splice(idx..=idx, [left, right]);
                } else {
                    // Only single-point leaves are unsplittable.
                    prop_assert_eq!(leaves[idx].points.len(), 1);
                }
            }
            // Disjointness + union + order, all in one: the in-order
            // concatenation of the leaves is byte-for-byte the original
            // canonical point sequence.
            let reassembled: Vec<_> = leaves
                .iter()
                .flat_map(|leaf| leaf.points.iter().copied())
                .collect();
            prop_assert_eq!(&reassembled, &original.points);
            // And splitting is deterministic: the same leaf splits the
            // same way every time.
            if original.points.len() >= 2 {
                prop_assert_eq!(split_spec(&original), split_spec(&original));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fingerprint-dedup equivalence: the Explorer's 16-byte visited set must
// not change search outcomes versus retaining whole states.
// ---------------------------------------------------------------------

mod fingerprint_dedup {
    use super::*;
    use std::collections::{HashSet, VecDeque};
    use symplfied::check::{Explorer, OutcomeCounts};

    /// A reference BFS that deduplicates on retained whole `MachineState`
    /// values — the pre-refactor behaviour — mirroring the Explorer's
    /// expansion order and budget accounting exactly.
    fn reference_explore(
        w: &symplfied::apps::Workload,
        seeds: Vec<MachineState>,
        limits: &SearchLimits,
    ) -> (usize, usize, OutcomeCounts, usize) {
        let mut visited: HashSet<MachineState> = HashSet::new();
        let mut frontier: VecDeque<MachineState> = VecDeque::new();
        for s in seeds {
            if visited.insert(s.clone()) {
                frontier.push_back(s);
            }
        }
        let mut states = 0usize;
        let mut duplicates = 0usize;
        let mut solutions = 0usize;
        let mut terminals = OutcomeCounts::default();
        while let Some(state) = frontier.pop_front() {
            if states >= limits.max_states {
                break;
            }
            states += 1;
            if state.status().is_terminal() {
                terminals.record(&state);
                solutions += 1;
                continue;
            }
            for succ in state.step(&w.program, &w.detectors, &limits.exec) {
                if visited.insert(succ.clone()) {
                    frontier.push_back(succ);
                } else {
                    duplicates += 1;
                }
            }
        }
        (states, duplicates, terminals, solutions)
    }

    fn assert_equivalent(
        w: &symplfied::apps::Workload,
        breakpoint: usize,
        reg: Reg,
        limits: &SearchLimits,
    ) {
        let point = InjectionPoint::new(breakpoint, InjectTarget::Register(reg));
        let prep = prepare(&w.program, &w.detectors, &w.input, &point, &limits.exec);
        assert!(
            prep.activated,
            "breakpoint {breakpoint} must be on the golden path"
        );

        let report = Explorer::new(&w.program, &w.detectors)
            .with_limits(limits.clone())
            .explore(prep.seeds.clone(), &Predicate::Any);
        let (states, duplicates, terminals, solutions) = reference_explore(w, prep.seeds, limits);

        assert_eq!(report.states_explored, states, "{}: state counts", w.name);
        assert_eq!(
            report.duplicate_hits, duplicates,
            "{}: duplicate hits",
            w.name
        );
        assert_eq!(report.terminals, terminals, "{}: outcome counts", w.name);
        assert_eq!(report.solutions.len(), solutions, "{}: solutions", w.name);
    }

    #[test]
    fn factorial_outcome_counts_unchanged_by_fingerprints() {
        // The §4 walkthrough point: the loop-counter decrement, every n
        // whose golden path enters the loop body.
        for n in 2..=5 {
            let w = symplfied::apps::factorial().with_input(vec![n]);
            let limits = SearchLimits {
                exec: ExecLimits::with_max_steps(500),
                max_states: 1_000_000,
                max_solutions: usize::MAX,
                max_time: None,
                ..SearchLimits::default()
            };
            assert_equivalent(&w, 7, Reg::r(3), &limits);
        }
    }

    #[test]
    fn tcas_outcome_counts_unchanged_by_fingerprints() {
        // A data-register point inside alt_sep_test on the evaluation
        // input, truncated by the same state budget on both engines.
        let w = symplfied::apps::tcas();
        let ast = w.program.label_address("alt_sep_test").expect("tcas label");
        let limits = SearchLimits {
            exec: ExecLimits::with_max_steps(w.max_steps),
            max_states: 30_000,
            max_solutions: usize::MAX,
            max_time: None,
            ..SearchLimits::default()
        };
        assert_equivalent(&w, ast + 3, Reg::r(8), &limits);
    }
}

// ---------------------------------------------------------------------
// Visited-set bucketing: the bucket hashes a `FingerprintSet` computes for
// the states of a real search must spread like uniform bits. Raw digest
// bits do not (they cluster), and a set bucketed on them degrades to long
// probe chains on the big sweeps.
// ---------------------------------------------------------------------

mod visited_buckets {
    use std::collections::{HashSet, VecDeque};
    use std::hash::BuildHasher;
    use symplfied::inject::{prepare_cached, Campaign, ErrorClass, PrefixCache};
    use symplfied::machine::{ExecLimits, FingerprintBuildHasher, FingerprintSet, SuccessorBuf};

    /// The visited set of a plain BFS over every tcas register-file
    /// point's seeds, pooled into one search (the shape of the big sweep),
    /// stopped once `limit` states are visited.
    fn tcas_sweep_visited(limit: usize) -> FingerprintSet {
        let w = symplfied::apps::tcas();
        let exec = ExecLimits::with_max_steps(w.max_steps);
        let campaign = Campaign::new(&w.program, ErrorClass::RegisterFile);
        let cache = PrefixCache::new(&w.program, &w.detectors, &w.input, &exec);
        let decoded = w.program.decoded();
        let mut visited = FingerprintSet::default();
        let mut frontier = VecDeque::new();
        let seeds = campaign
            .points
            .iter()
            .flat_map(|p| prepare_cached(&cache, p).seeds);
        for s in seeds {
            if visited.len() < limit && visited.insert(s.fingerprint()) {
                frontier.push_back(s);
            }
        }
        let mut successors = SuccessorBuf::new();
        while let Some(state) = frontier.pop_front() {
            if visited.len() >= limit {
                break;
            }
            state.step_into(decoded, &w.detectors, &exec, &mut successors);
            for succ in successors.drain() {
                if visited.len() < limit && visited.insert(succ.fingerprint()) {
                    frontier.push_back(succ);
                }
            }
        }
        assert_eq!(visited.len(), limit, "the tcas sweep has {limit} states");
        visited
    }

    #[test]
    fn bucket_hashes_fill_every_16_bit_window() {
        const STATES: usize = 50_000;
        let visited = tcas_sweep_visited(STATES);
        let build = FingerprintBuildHasher::default();
        let hashes: Vec<u64> = visited.iter().map(|fp| build.hash_one(fp)).collect();

        let distinct: HashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(distinct.len(), STATES, "full 64-bit bucket-hash collisions");

        // Expected distinct values when STATES keys fall uniformly into
        // 2^16 bins: m * (1 - (1 - 1/m)^n).
        let m = 65_536f64;
        let ideal = m * (1.0 - (1.0 - 1.0 / m).powf(STATES as f64));
        for shift in (0..64).step_by(16) {
            let window: HashSet<u64> = hashes.iter().map(|h| (h >> shift) & 0xFFFF).collect();
            let fill = window.len() as f64 / ideal;
            assert!(
                fill >= 0.95,
                "bits {shift}..{}: {} distinct of an ideal {ideal:.0} ({:.1} %)",
                shift + 16,
                window.len(),
                100.0 * fill
            );
        }
    }
}

// ---------------------------------------------------------------------
// Frontier-policy equivalence: exhausted searches must produce identical
// outcome counts and canonical solution sets under every frontier policy
// — Bfs, Dfs, Priority (all heuristics), the disk-spilling window, and
// (for terminals/solutions) iterative deepening.
// ---------------------------------------------------------------------

mod frontier_policy {
    use super::*;
    use symplfied::check::{Explorer, FrontierPolicy, PriorityHeuristic, SearchReport};
    use symplfied::machine::Fingerprint;

    fn solution_digests(report: &SearchReport) -> Vec<Fingerprint> {
        let mut digests: Vec<Fingerprint> = report
            .solutions
            .iter()
            .map(|s| s.state.fingerprint())
            .collect();
        digests.sort_unstable();
        digests
    }

    /// Every policy variant under test: (policy, spill budget).
    fn policies() -> Vec<(FrontierPolicy, Option<usize>)> {
        vec![
            (FrontierPolicy::Bfs, None),
            (FrontierPolicy::Dfs, None),
            (
                FrontierPolicy::Priority(PriorityHeuristic::ConstraintMapSize),
                None,
            ),
            (FrontierPolicy::Priority(PriorityHeuristic::Depth), None),
            (FrontierPolicy::Priority(PriorityHeuristic::OutputLen), None),
            // A tiny budget (clamped to the 4 KiB floor) forces the
            // spilling window through constant spill/replay cycles.
            (FrontierPolicy::Bfs, Some(1)),
            (FrontierPolicy::Dfs, Some(1)),
        ]
    }

    fn assert_policies_agree(
        w: &symplfied::apps::Workload,
        breakpoint: usize,
        reg: Reg,
        limits: &SearchLimits,
    ) {
        let point = InjectionPoint::new(breakpoint, InjectTarget::Register(reg));
        let prep = prepare(&w.program, &w.detectors, &w.input, &point, &limits.exec);
        assert!(
            prep.activated,
            "{}: breakpoint {breakpoint} must be on the golden path",
            w.name
        );

        let reference = Explorer::new(&w.program, &w.detectors)
            .with_limits(limits.clone())
            .explore(prep.seeds.clone(), &Predicate::Any);
        assert!(
            reference.exhausted,
            "{}: equivalence needs a complete search ({} states)",
            w.name, reference.states_explored
        );

        for (policy, spill) in policies() {
            let mut policy_limits = limits.clone();
            policy_limits.policy = policy;
            policy_limits.max_frontier_bytes = spill;
            let label = format!("{} @{breakpoint} {policy:?} spill={spill:?}", w.name);

            let sequential = Explorer::new(&w.program, &w.detectors)
                .with_limits(policy_limits.clone())
                .explore(prep.seeds.clone(), &Predicate::Any);
            assert!(sequential.exhausted, "{label}: must exhaust");
            assert_eq!(
                sequential.states_explored, reference.states_explored,
                "{label}: states"
            );
            assert_eq!(
                sequential.duplicate_hits, reference.duplicate_hits,
                "{label}: duplicates"
            );
            assert_eq!(
                sequential.terminals, reference.terminals,
                "{label}: outcomes"
            );
            assert_eq!(
                solution_digests(&sequential),
                solution_digests(&reference),
                "{label}: solution sets"
            );
            // A tiny search can fit inside the spill window's 4 KiB floor;
            // only demand actual spilling when the unbounded run's peak
            // exceeded it.
            if spill.is_some() && reference.peak_frontier_bytes > 8 * 1024 {
                assert!(sequential.spilled_states > 0, "{label}: must have spilled");
            }
        }

        // Iterative deepening re-expands shallow states per round, so only
        // its terminal picture (counts + solution set) must agree.
        let mut idd_limits = limits.clone();
        idd_limits.policy = FrontierPolicy::IterativeDeepening {
            initial_depth: 32,
            depth_step: 32,
        };
        let idd = Explorer::new(&w.program, &w.detectors)
            .with_limits(idd_limits)
            .explore(prep.seeds.clone(), &Predicate::Any);
        let label = format!("{} @{breakpoint} iddfs", w.name);
        assert!(idd.exhausted, "{label}: must exhaust");
        assert_eq!(idd.terminals, reference.terminals, "{label}: outcomes");
        assert_eq!(
            solution_digests(&idd),
            solution_digests(&reference),
            "{label}: solution sets"
        );
        assert!(
            idd.states_explored >= reference.states_explored,
            "{label}: rounds re-expand shallow states"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Factorial, random loop injection point and input: every policy.
        #[test]
        fn factorial_policies_agree_when_exhausted(
            n in 2i64..6,
            bp_choice in 0usize..4,
        ) {
            // Injection points inside the loop: setgt(4), mult(6), subi(7),
            // print(10).
            let breakpoints = [(4usize, 3u8), (6, 3), (7, 3), (10, 2)];
            let (bp, reg) = breakpoints[bp_choice];
            let w = symplfied::apps::factorial().with_input(vec![n]);
            let limits = SearchLimits {
                exec: ExecLimits::with_max_steps(500),
                max_states: 1_000_000,
                max_solutions: usize::MAX,
                max_time: None,
                ..SearchLimits::default()
            };
            assert_policies_agree(&w, bp, Reg::r(reg), &limits);
        }
    }

    #[test]
    fn tcas_policies_agree_when_exhausted() {
        // A data-register point (`err` in $8 at address 20) whose search
        // exhausts in a few thousand states, across every policy.
        let w = symplfied::apps::tcas();
        let limits = SearchLimits {
            exec: ExecLimits::with_max_steps(w.max_steps),
            max_states: 60_000,
            max_solutions: usize::MAX,
            max_time: None,
            ..SearchLimits::default()
        };
        assert_policies_agree(&w, 20, Reg::r(8), &limits);
    }
}

// ---------------------------------------------------------------------
// Disk-spilling acceptance: a tcas exhaustive search whose in-RAM
// frontier budget sits well below the unbounded run's peak footprint must
// complete by spilling and reproduce the unbounded run's outcome counts
// and canonical solution set exactly.
// ---------------------------------------------------------------------

mod spill_smoke {
    use super::*;
    use symplfied::check::{Explorer, SearchReport};
    use symplfied::machine::Fingerprint;

    fn solution_digests(report: &SearchReport) -> Vec<Fingerprint> {
        let mut digests: Vec<Fingerprint> = report
            .solutions
            .iter()
            .map(|s| s.state.fingerprint())
            .collect();
        digests.sort_unstable();
        digests
    }

    #[test]
    fn tcas_exhaustive_completes_below_its_peak_frontier() {
        let w = symplfied::apps::tcas();
        let limits = SearchLimits {
            exec: ExecLimits::with_max_steps(w.max_steps),
            max_states: 60_000,
            max_solutions: usize::MAX,
            max_time: None,
            ..SearchLimits::default()
        };
        let point = InjectionPoint::new(20, InjectTarget::Register(Reg::r(8)));
        let prep = prepare(&w.program, &w.detectors, &w.input, &point, &limits.exec);
        assert!(prep.activated);

        // The unbounded reference run, and its peak in-RAM footprint.
        let unbounded = Explorer::new(&w.program, &w.detectors)
            .with_limits(limits.clone())
            .explore(prep.seeds.clone(), &Predicate::Any);
        assert!(unbounded.exhausted, "need a complete reference search");
        assert!(
            unbounded.peak_frontier_bytes > 16 * 1024,
            "the tcas frontier must be big enough for the budget to bite \
             (peak {} bytes)",
            unbounded.peak_frontier_bytes
        );
        assert_eq!(unbounded.spilled_states, 0);

        // A budget well below the observed peak forces spilling.
        let mut tight = limits.clone();
        tight.max_frontier_bytes = Some(unbounded.peak_frontier_bytes / 4);

        let spilling = Explorer::new(&w.program, &w.detectors)
            .with_limits(tight)
            .explore(prep.seeds.clone(), &Predicate::Any);
        assert!(spilling.exhausted, "the spilling search must complete");
        assert!(spilling.spilled_states > 0, "the budget must have bitten");
        assert!(
            spilling.peak_frontier_bytes < unbounded.peak_frontier_bytes,
            "spilling must hold the RAM window below the unbounded peak \
             ({} vs {})",
            spilling.peak_frontier_bytes,
            unbounded.peak_frontier_bytes
        );
        assert_eq!(spilling.states_explored, unbounded.states_explored);
        assert_eq!(spilling.duplicate_hits, unbounded.duplicate_hits);
        assert_eq!(spilling.terminals, unbounded.terminals);
        assert_eq!(solution_digests(&spilling), solution_digests(&unbounded));
    }
}

// ---------------------------------------------------------------------
// Decoded-IR equivalence: lowering a program to the dense DecodedOp array
// (ISSUE 6) must be semantics-preserving. The fast dispatcher
// (`MachineState::step_into` over `Program::decoded()`) is differentially
// tested against the AST reference interpreter (`MachineState::step`) on
// random programs and randomly mutated start states: identical successor
// sets (full state equality, which subsumes per-step outcome counts),
// identical fingerprints, in identical order. The fused concrete runner is
// checked the same way against a chain of single AST steps.
// ---------------------------------------------------------------------

mod decoded_equivalence {
    use super::state_ops::{self, Op};
    use super::*;
    use std::collections::BTreeMap;
    use symplfied::asm::{BinOp, Instr, Program};
    use symplfied::detect::Detector;
    use symplfied::machine::{run_concrete, SuccessorBuf};

    fn reg_strategy() -> impl Strategy<Value = Reg> {
        (0u8..8).prop_map(Reg::r)
    }

    fn operand_strategy() -> impl Strategy<Value = Operand> {
        prop_oneof![
            reg_strategy().prop_map(Operand::Reg),
            (-9i64..=9).prop_map(Operand::Imm),
        ]
    }

    fn binop_strategy() -> impl Strategy<Value = BinOp> {
        prop_oneof![
            Just(BinOp::Add),
            Just(BinOp::Sub),
            Just(BinOp::Mul),
            Just(BinOp::Div),
            Just(BinOp::Rem),
            Just(BinOp::And),
            Just(BinOp::Or),
            Just(BinOp::Xor),
            Just(BinOp::Sll),
            Just(BinOp::Srl),
        ]
    }

    fn cmp_strategy() -> impl Strategy<Value = Cmp> {
        prop_oneof![
            Just(Cmp::Eq),
            Just(Cmp::Ne),
            Just(Cmp::Gt),
            Just(Cmp::Lt),
            Just(Cmp::Ge),
            Just(Cmp::Le),
        ]
    }

    /// One instruction with all code targets inside `0..len`, weighted so
    /// runs mix arithmetic, forking compares, memory traffic, erroneous
    /// indirect jumps, detector checks, and adjacent fusable pairs.
    fn instr_strategy(len: usize) -> impl Strategy<Value = Instr> {
        prop_oneof![
            4 => (binop_strategy(), reg_strategy(), reg_strategy(), operand_strategy())
                .prop_map(|(op, rd, rs, src)| Instr::Bin { op, rd, rs, src }),
            2 => (reg_strategy(), operand_strategy())
                .prop_map(|(rd, src)| Instr::Mov { rd, src }),
            3 => (cmp_strategy(), reg_strategy(), reg_strategy(), operand_strategy())
                .prop_map(|(cmp, rd, rs, src)| Instr::Set { cmp, rd, rs, src }),
            3 => (cmp_strategy(), reg_strategy(), operand_strategy(), 0..len)
                .prop_map(|(cmp, rs, src, target)| Instr::Branch { cmp, rs, src, target }),
            1 => (0..len).prop_map(|target| Instr::Jmp { target }),
            1 => (0..len).prop_map(|target| Instr::Jal { target }),
            1 => reg_strategy().prop_map(|rs| Instr::Jr { rs }),
            2 => (reg_strategy(), reg_strategy(), (0i64..=5).prop_map(|w| w * 8))
                .prop_map(|(rt, rs, offset)| Instr::Load { rt, rs, offset }),
            2 => (reg_strategy(), reg_strategy(), (0i64..=5).prop_map(|w| w * 8))
                .prop_map(|(rt, rs, offset)| Instr::Store { rt, rs, offset }),
            1 => reg_strategy().prop_map(|rd| Instr::Read { rd }),
            1 => reg_strategy().prop_map(|rs| Instr::Print { rs }),
            1 => prop_oneof![Just("a"), Just("bb")]
                .prop_map(|text| Instr::PrintS { text: text.into() }),
            1 => (1u32..=2).prop_map(|id| Instr::Check { id }),
            1 => Just(Instr::Nop),
            1 => Just(Instr::Halt),
        ]
    }

    pub(super) fn program_strategy() -> impl Strategy<Value = Program> {
        (4usize..=16)
            .prop_flat_map(|len| prop::collection::vec(instr_strategy(len), len..len + 1))
            .prop_map(|instrs| {
                Program::new(instrs, BTreeMap::new())
                    .expect("non-empty, every static target in range")
            })
    }

    /// Detectors for the `check` instructions the generator emits (ids 1
    /// and 2), so `step_check`'s detected/ok fork is exercised.
    pub(super) fn detectors() -> DetectorSet {
        let mut set = DetectorSet::new();
        set.insert(Detector::parse("det(1, $(2), >=, (3))").unwrap());
        set.insert(Detector::parse("det(2, $(3), ==, ($1))").unwrap());
        set
    }

    /// Start states: a fresh machine with the given input, mutated by a
    /// random `state_ops` sequence (shared with the digest/codec suites),
    /// with the status forced back to `Running` and the pc anywhere in
    /// `0..=len` (one past the end exercises the illegal-fetch path).
    pub(super) fn start_states(input: &[i64], ops: &[Op], pc: usize) -> Vec<MachineState> {
        let mut pool = state_ops::run_ops(input, ops);
        for state in &mut pool {
            state.set_status(Status::Running);
            state.set_pc(pc);
        }
        pool
    }

    /// One differential step: `step_into` must produce exactly the
    /// successor vector `step` produces — same states, same order, same
    /// fingerprints.
    fn assert_step_matches(
        state: &MachineState,
        program: &Program,
        dets: &DetectorSet,
        limits: &ExecLimits,
        buf: &mut SuccessorBuf,
    ) -> Vec<MachineState> {
        let reference = state.step(program, dets, limits);
        buf.clear();
        state
            .clone()
            .step_into(program.decoded(), dets, limits, buf);
        let fast: Vec<MachineState> = buf.drain().collect();
        assert_eq!(
            reference,
            fast,
            "decoded dispatch diverged from the AST interpreter at pc {}",
            state.pc()
        );
        for (r, f) in reference.iter().zip(&fast) {
            assert_eq!(r.fingerprint(), f.fingerprint(), "fingerprint divergence");
        }
        reference
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Breadth-first differential execution: every expansion of every
        /// reachable state (capped) goes through both interpreters and
        /// must agree exactly.
        #[test]
        fn successors_match_ast_interpreter(
            program in program_strategy(),
            ops in prop::collection::vec(state_ops::op_strategy(), 0..12),
            input in prop::collection::vec(-6i64..=6, 0..4),
            pc_seed in 0usize..=16,
            track_constraints in any::<bool>(),
        ) {
            let dets = detectors();
            let mut limits = ExecLimits::with_max_steps(40);
            limits.track_constraints = track_constraints;
            let pc = pc_seed.min(program.instrs().len());
            let mut frontier = start_states(&input, &ops, pc);
            let mut buf = SuccessorBuf::new();
            let mut expansions = 0usize;
            while let Some(state) = frontier.pop() {
                let succ = assert_step_matches(&state, &program, &dets, &limits, &mut buf);
                expansions += 1;
                if expansions >= 300 {
                    break;
                }
                frontier.extend(succ);
            }
        }

        /// The fused concrete runner against a chain of single AST steps:
        /// whenever the AST interpreter runs a start state to a terminal
        /// deterministically (one successor per step), `run_concrete` must
        /// reach the byte-identical terminal state.
        #[test]
        fn concrete_runner_matches_ast_chain(
            program in program_strategy(),
            input in prop::collection::vec(-6i64..=6, 0..4),
        ) {
            let dets = detectors();
            let limits = ExecLimits::with_max_steps(60);
            let mut reference = MachineState::with_input(input.clone());
            let mut deterministic = true;
            while !reference.status().is_terminal() && reference.steps() < limits.max_steps {
                let mut succ = reference.step(&program, &dets, &limits);
                if succ.len() != 1 {
                    deterministic = false;
                    break;
                }
                reference = succ.pop().expect("len checked");
            }
            if deterministic {
                if !reference.status().is_terminal() {
                    // The AST chain stopped at the watchdog bound without a
                    // terminal status; the runner marks that state TimedOut.
                    reference.set_status(Status::TimedOut);
                }
                let mut fast = MachineState::with_input(input);
                run_concrete(&mut fast, &program, &dets, &limits)
                    .expect("a deterministic AST chain never hits a symbolic value");
                prop_assert_eq!(&reference, &fast);
                prop_assert_eq!(reference.fingerprint(), fast.fingerprint());
            }
        }
    }
}

// ---------------------------------------------------------------------
// State-capped BFS pop budget: a BFS frontier built with the search's
// state cap — in RAM or spilling — stores only the states it will expand.
// It must leave every report field as it was. The reference is a
// test-local copy of the engine's expansion loop over the public,
// unbudgeted `FrontierPolicy::build`, so it stores every state it is given.
// ---------------------------------------------------------------------

mod capped_bfs_budget {
    use super::decoded_equivalence::{detectors, program_strategy, start_states};
    use super::state_ops;
    use super::*;
    use std::time::Duration;
    use symplfied::apps::Workload;
    use symplfied::asm::Program;
    use symplfied::check::{Explorer, FrontierQueue, OutcomeCounts, SearchReport, Solution};
    use symplfied::cluster::{run_cluster, shard_specs, CampaignReport, ClusterConfig, TaskResult};
    use symplfied::inject::{prepare_cached, Campaign, ErrorClass, PrefixCache};
    use symplfied::machine::{FingerprintSet, SuccessorBuf};

    /// The spill windows every register-point and generated-program leg
    /// runs at besides the in-RAM frontier.
    pub(super) const WINDOWS: [Option<usize>; 3] = [None, Some(4 << 10), Some(64 << 10)];

    /// The engine's expansion loop (`Explorer::explore` without a memo
    /// store) over an unbudgeted frontier and one flat `FingerprintSet`:
    /// every successor is stored, in RAM or on disk, whether or not the
    /// cap lets it be expanded, and every fingerprint is kept until an
    /// iterative-deepening round resets the set. Its report is untimed.
    pub(super) fn reference_search(
        program: &Program,
        dets: &DetectorSet,
        seeds: &[MachineState],
        predicate: &Predicate,
        limits: &SearchLimits,
    ) -> SearchReport {
        assert!(limits.max_time.is_none());
        let mut report = SearchReport {
            workers: 1,
            ..SearchReport::default()
        };
        let mut terminals = OutcomeCounts::default();
        let mut arena: Vec<(usize, usize)> = Vec::new();
        let mut visited = FingerprintSet::default();
        let mut frontier: Box<dyn FrontierQueue<usize>> =
            limits.policy.build(limits.max_frontier_bytes);
        for s in seeds {
            if visited.insert(s.fingerprint()) {
                arena.push((usize::MAX, s.pc()));
                frontier.seed(s.clone(), arena.len() - 1);
            }
        }
        report.peak_frontier_len = frontier.len();
        report.peak_frontier_bytes = frontier.approx_bytes();
        let decoded = program.decoded();
        let mut successors = SuccessorBuf::new();
        let mut swept = false;
        loop {
            let Some((state, idx)) = frontier.pop() else {
                // Iterative deepening's next round: a fresh visited set
                // and fresh per-round tallies, re-seeded from the roots.
                let Some(roots) = frontier.next_round() else {
                    swept = true;
                    break;
                };
                visited.clear();
                terminals = OutcomeCounts::default();
                report.solutions.clear();
                for (s, meta) in roots {
                    if visited.insert(s.fingerprint()) {
                        frontier.seed(s, meta);
                    }
                }
                continue;
            };
            if report.states_explored >= limits.max_states {
                report.hit_state_cap = true;
                break;
            }
            report.states_explored += 1;
            if state.status().is_terminal() {
                terminals.record(&state);
                if predicate.matches(&state) {
                    let mut trace = Vec::new();
                    let mut cursor = idx;
                    loop {
                        let (parent, pc) = arena[cursor];
                        trace.push(pc);
                        if parent == usize::MAX {
                            break;
                        }
                        cursor = parent;
                    }
                    trace.reverse();
                    report.solutions.push(Solution { trace, state });
                    if report.solutions.len() >= limits.max_solutions {
                        report.hit_solution_cap = true;
                        break;
                    }
                }
                continue;
            }
            state.step_into(decoded, dets, &limits.exec, &mut successors);
            for succ in successors.drain() {
                if visited.insert(succ.fingerprint()) {
                    arena.push((idx, succ.pc()));
                    frontier.push(succ, arena.len() - 1);
                } else {
                    report.duplicate_hits += 1;
                }
            }
            report.peak_frontier_len = report.peak_frontier_len.max(frontier.len());
            report.peak_frontier_bytes = report.peak_frontier_bytes.max(frontier.approx_bytes());
        }
        report.exhausted = swept;
        report.spilled_states = frontier.spilled_states();
        report.terminals = terminals;
        report
    }

    /// A report with its wall-clock fields cleared.
    pub(super) fn untimed(mut report: SearchReport) -> SearchReport {
        report.elapsed = Duration::ZERO;
        report.states_per_second = 0.0;
        report
    }

    /// Runs `seeds` under `limits` on the engine and as the reference, and
    /// requires equal reports, timing excluded. Returns the engine's.
    fn assert_budget_exact(
        program: &Program,
        dets: &DetectorSet,
        seeds: &[MachineState],
        predicate: &Predicate,
        limits: &SearchLimits,
        label: &str,
    ) -> SearchReport {
        let budgeted = untimed(
            Explorer::new(program, dets)
                .with_limits(limits.clone())
                .explore(seeds.to_vec(), predicate),
        );
        let reference = reference_search(program, dets, seeds, predicate, limits);
        assert_eq!(budgeted, reference, "{label}");
        budgeted
    }

    /// Every register-file point of `w` at `max_states` and each of
    /// [`WINDOWS`], collecting every terminal so each witness trace is
    /// compared.
    fn assert_points_exact(w: &Workload, max_states: usize) {
        let campaign = Campaign::new(&w.program, ErrorClass::RegisterFile);
        let exec = ExecLimits::with_max_steps(w.max_steps);
        let cache = PrefixCache::new(&w.program, &w.detectors, &w.input, &exec);
        for window in WINDOWS {
            let limits = SearchLimits {
                exec: exec.clone(),
                max_states,
                max_solutions: usize::MAX,
                max_time: None,
                max_frontier_bytes: window,
                ..SearchLimits::default()
            };
            let (mut capped, mut spilled) = (0usize, 0usize);
            for (n, point) in campaign.points.iter().enumerate() {
                let seeds = prepare_cached(&cache, point).seeds;
                let label = format!(
                    "{} point {n} ({point:?}) cap {max_states} window {window:?}",
                    w.name
                );
                let report = assert_budget_exact(
                    &w.program,
                    &w.detectors,
                    &seeds,
                    &Predicate::Any,
                    &limits,
                    &label,
                );
                capped += usize::from(report.hit_state_cap);
                spilled += report.spilled_states;
            }
            if max_states > 0 {
                assert!(capped > 0, "{}: the cap must bind somewhere", w.name);
                assert_eq!(
                    spilled > 0,
                    window.is_some(),
                    "{} window {window:?}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn tcas_register_points_at_a_small_cap() {
        let w = symplfied::apps::tcas();
        assert_points_exact(&w, 300);
        assert_points_exact(&w, 0);
    }

    #[test]
    fn replace_register_points_at_a_small_cap() {
        let w = symplfied::apps::replace();
        assert_points_exact(&w, 300);
        assert_points_exact(&w, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Generated programs from random start states, at caps 0, n/2
        /// and n-1, n, n+1 around the search's exhaustive state count n,
        /// with and without a solution cap, in RAM and spilling.
        #[test]
        fn generated_programs_around_their_exhaustive_count(
            program in program_strategy(),
            ops in prop::collection::vec(state_ops::op_strategy(), 0..12),
            input in prop::collection::vec(-6i64..=6, 0..4),
            pc_seed in 0usize..=16,
            err_regs in prop::collection::vec(1u8..8, 0..3),
            max_solutions in prop_oneof![Just(1usize), Just(3), Just(usize::MAX)],
            window in prop_oneof![Just(WINDOWS[0]), Just(WINDOWS[1]), Just(WINDOWS[2])],
        ) {
            let dets = detectors();
            let pc = pc_seed.min(program.instrs().len());
            // `err` registers make compares, loads and jumps fork, and a
            // mapped low memory lets loads succeed, so the frontier grows
            // wide enough for the budget to bind.
            let mut seeds = start_states(&input, &ops, pc);
            for seed in &mut seeds {
                seed.load_memory((0..8).map(|w| (w * 8, w as i64)));
                for &r in &err_regs {
                    seed.set_reg(Reg::r(r), Value::Err);
                }
            }
            let limits = SearchLimits {
                exec: ExecLimits::with_max_steps(40),
                max_states: 5_000,
                max_solutions: usize::MAX,
                max_time: None,
                max_frontier_bytes: window,
                ..SearchLimits::default()
            };
            let full = Explorer::new(&program, &dets)
                .with_limits(limits.clone())
                .explore(seeds.clone(), &Predicate::Any);
            if !full.exhausted {
                // No exhaustive count to bracket.
                return Ok(());
            }
            let n = full.states_explored;
            let mut caps = vec![0, n / 2, n, n + 1];
            if n > 0 {
                caps.push(n - 1);
            }
            for max_states in caps {
                let capped = SearchLimits { max_states, max_solutions, ..limits.clone() };
                let label = format!("cap {max_states} around n = {n}, window {window:?}");
                let report = assert_budget_exact(
                    &program, &dets, &seeds, &Predicate::Any, &capped, &label,
                );
                if max_states >= n && max_solutions == usize::MAX {
                    prop_assert!(report.exhausted, "{}", label);
                }
            }
        }
    }

    /// The replace campaign at the repo benchmark's configuration (every
    /// register point, 16 tasks, 120 000 states per point, 10 findings per
    /// task), with the frontier window `max_frontier_bytes`.
    fn replace_benchmark_config(
        max_frontier_bytes: Option<usize>,
    ) -> (Workload, Predicate, ClusterConfig) {
        let w = symplfied::apps::replace();
        let golden = symplfied::apps::golden(&w);
        let predicate = Predicate::WrongOutput {
            expected: golden.output_ints(),
        };
        let config = ClusterConfig {
            workers: 2,
            tasks: 16,
            search: SearchLimits {
                exec: ExecLimits::with_max_steps(w.max_steps),
                max_states: 120_000,
                max_solutions: 10,
                max_time: None,
                max_frontier_bytes,
                ..SearchLimits::default()
            },
            task_budget: None,
            max_findings_per_task: 10,
            point_workers_hint: Some(1),
        };
        (w, predicate, config)
    }

    /// Every point search of the benchmark's replace campaign against the
    /// reference, with the solution cap each search gets inside its task
    /// (the task's remaining findings). Release only: a debug build needs
    /// minutes for it.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-only: run with --release")]
    fn replace_campaign_at_the_benchmark_config() {
        let (w, predicate, config) = replace_benchmark_config(None);
        let campaign = Campaign::new(&w.program, ErrorClass::RegisterFile);
        assert_eq!(campaign.points.len(), 159);
        let cache = PrefixCache::new(&w.program, &w.detectors, &w.input, &config.search.exec);
        let mut capped = 0usize;
        for spec in shard_specs(&campaign, config.tasks) {
            let mut findings = 0usize;
            for point in &spec.points {
                if findings >= config.max_findings_per_task {
                    break;
                }
                let prepared = prepare_cached(&cache, point);
                if !prepared.activated || prepared.seeds.is_empty() {
                    continue;
                }
                let limits = SearchLimits {
                    max_solutions: config
                        .search
                        .max_solutions
                        .min(config.max_findings_per_task - findings),
                    ..config.search.clone()
                };
                let label = format!("task {} point {point:?}", spec.id);
                let report = assert_budget_exact(
                    &w.program,
                    &w.detectors,
                    &prepared.seeds,
                    &predicate,
                    &limits,
                    &label,
                );
                capped += usize::from(report.hit_state_cap);
                findings += report.solutions.len();
            }
        }
        assert!(capped > 0, "the state cap must bind");
    }

    /// Per-task results with the wall-clock field cleared, and with the
    /// two frontier fields a spill window moves.
    fn untimed_tasks_but_window(report: &CampaignReport) -> Vec<TaskResult> {
        report
            .tasks
            .iter()
            .map(|t| TaskResult {
                elapsed: Duration::ZERO,
                peak_frontier_bytes: 0,
                spilled_states: 0,
                ..t.clone()
            })
            .collect()
    }

    /// The repo benchmark's `replace_spill` workload: the replace campaign
    /// above under a 16 MiB frontier window. It spills the same states as
    /// an unbudgeted window would (the pinned 218 376), and its findings
    /// and tasks are the in-RAM campaign's but for the two frontier fields
    /// a window moves. Release only.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-only: run with --release")]
    fn replace_spill_at_the_benchmark_config() {
        let run = |window| {
            let (w, predicate, config) = replace_benchmark_config(window);
            let campaign = Campaign::new(&w.program, ErrorClass::RegisterFile);
            run_cluster(
                &w.program,
                &w.detectors,
                &w.input,
                &campaign,
                &predicate,
                &config,
            )
        };
        let spilling = run(Some(16 << 20));
        let in_ram = run(None);
        assert_eq!(spilling.spilled_states(), 218_376);
        assert_eq!(in_ram.spilled_states(), 0);
        assert!(spilling.peak_frontier_bytes() < in_ram.peak_frontier_bytes());
        assert!(
            spilling.tasks.iter().any(|t| !t.completed),
            "the state cap must bind"
        );
        // The benchmark's pinned digest, which hashes `spilled_states` too.
        assert_eq!(
            format!("{:032x}", spilling.outcome_digest()),
            "b3038ac67edb4f9bccd1b93bf65b2ed2"
        );
        assert_eq!(spilling.findings, in_ram.findings);
        assert_eq!(
            untimed_tasks_but_window(&spilling),
            untimed_tasks_but_window(&in_ram)
        );
    }
}

// ---------------------------------------------------------------------
// Step-layered dedup: the engine's visited set keeps one fingerprint
// table per step count and, on a queue that serves states in push order,
// forgets the layers below the step floor of each BFS generation. Every
// report field must equal `capped_bfs_budget::reference_search`'s, whose
// one flat `FingerprintSet` forgets nothing, under every policy, in RAM
// and spilling, from seeds that start at different step counts.
// ---------------------------------------------------------------------

mod step_layered_dedup {
    use super::capped_bfs_budget::{reference_search, untimed, WINDOWS};
    use super::decoded_equivalence::{detectors, program_strategy, start_states};
    use super::state_ops;
    use super::*;
    use symplfied::asm::Program;
    use symplfied::check::{Explorer, FrontierPolicy, PriorityHeuristic};
    use symplfied::inject::{prepare_cached, Campaign, ErrorClass, PrefixCache};

    /// Every policy with every window it honours: the Bfs and Dfs queues
    /// in RAM and spilling; the others ignore a window. Iterative
    /// deepening deepens by `round_depth` a round.
    fn configs(round_depth: u64) -> Vec<(FrontierPolicy, Option<usize>)> {
        let spilling = [FrontierPolicy::Bfs, FrontierPolicy::Dfs];
        let in_ram = [
            FrontierPolicy::Priority(PriorityHeuristic::ConstraintMapSize),
            FrontierPolicy::Priority(PriorityHeuristic::Depth),
            FrontierPolicy::Priority(PriorityHeuristic::OutputLen),
            FrontierPolicy::IterativeDeepening {
                initial_depth: round_depth,
                depth_step: round_depth,
            },
        ];
        let spilled = spilling.into_iter().flat_map(|p| WINDOWS.map(|w| (p, w)));
        spilled.chain(in_ram.map(|p| (p, None))).collect()
    }

    /// The engine and the reference on `seeds` under every config, with
    /// equal untimed reports required. Returns the engine's reports.
    fn assert_layered_exact(
        program: &Program,
        dets: &DetectorSet,
        seeds: &[MachineState],
        predicate: &Predicate,
        limits: &SearchLimits,
        label: &str,
    ) -> Vec<SearchReport> {
        // Several iterative-deepening rounds before the watchdog bound.
        let round_depth = (limits.exec.max_steps / 4).max(1);
        let mut reports = Vec::new();
        for (policy, window) in configs(round_depth) {
            let limits = SearchLimits {
                policy,
                max_frontier_bytes: window,
                ..limits.clone()
            };
            let layered = untimed(
                Explorer::new(program, dets)
                    .with_limits(limits.clone())
                    .explore(seeds.to_vec(), predicate),
            );
            let flat = reference_search(program, dets, seeds, predicate, &limits);
            assert_eq!(layered, flat, "{label}: {policy:?} window {window:?}");
            reports.push(layered);
        }
        reports
    }

    /// The repo benchmark's pooled sweep: the seeds of every tcas
    /// register-file point in one search for the catastrophic advisory.
    /// Capped in a debug build, exhaustive in release.
    #[test]
    fn pooled_tcas_seeds_at_mixed_step_counts() {
        let w = symplfied::apps::tcas();
        let exec = ExecLimits::with_max_steps(w.max_steps);
        let cache = PrefixCache::new(&w.program, &w.detectors, &w.input, &exec);
        let campaign = Campaign::new(&w.program, ErrorClass::RegisterFile);
        let seeds: Vec<MachineState> = (campaign.points.iter())
            .flat_map(|p| prepare_cached(&cache, p).seeds)
            .collect();
        let steps: std::collections::BTreeSet<u64> = seeds.iter().map(|s| s.steps()).collect();
        assert!(steps.len() > 10, "seeds at {} step counts", steps.len());
        let max_states = if cfg!(debug_assertions) {
            20_000
        } else {
            usize::MAX
        };
        let limits = SearchLimits {
            exec,
            max_states,
            max_solutions: usize::MAX,
            max_time: None,
            ..SearchLimits::default()
        };
        let predicate = Predicate::ExactOutput { output: vec![2] };
        let reports = assert_layered_exact(
            &w.program,
            &w.detectors,
            &seeds,
            &predicate,
            &limits,
            "tcas",
        );
        for report in &reports {
            assert_eq!(report.exhausted, max_states == usize::MAX, "{report}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Generated programs from seeds at different pcs and step counts:
        /// each start state once as generated and once `bumps` steps on,
        /// so equal states that differ only in `steps` both stay.
        #[test]
        fn generated_programs_from_seeds_at_different_step_counts(
            program in program_strategy(),
            ops in prop::collection::vec(state_ops::op_strategy(), 0..10),
            input in prop::collection::vec(-6i64..=6, 0..4),
            pcs in prop::collection::vec(0usize..=16, 1..4),
            bumps in prop::collection::vec(1u64..6, 1..4),
            err_regs in prop::collection::vec(1u8..8, 0..3),
            max_states in prop_oneof![Just(usize::MAX), Just(40usize), Just(400)],
        ) {
            let dets = detectors();
            let len = program.instrs().len();
            let mut seeds = Vec::new();
            for (i, mut seed) in start_states(&input, &ops, 0).into_iter().enumerate() {
                seed.set_pc(pcs[i % pcs.len()].min(len));
                seed.load_memory((0..8).map(|w| (w * 8, w as i64)));
                for &r in &err_regs {
                    seed.set_reg(Reg::r(r), Value::Err);
                }
                let mut later = seed.clone();
                for _ in 0..bumps[i % bumps.len()] {
                    later.bump_steps();
                }
                seeds.extend([later, seed]);
            }
            let limits = SearchLimits {
                exec: ExecLimits::with_max_steps(40),
                max_states,
                max_solutions: usize::MAX,
                max_time: None,
                ..SearchLimits::default()
            };
            assert_layered_exact(
                &program, &dets, &seeds, &Predicate::Any, &limits, "generated",
            );
        }
    }
}

// ---------------------------------------------------------------------
// Cross-campaign memoization: a memoized campaign must be outcome-
// indistinguishable from a memo-off run at every worker count — one
// shared store serving across reruns and pool widths — and the SYMO
// store file must round-trip exactly, drop a crash-truncated tail
// without losing the intact prefix, refuse corruption, and refuse a
// store keyed to a different program (the incremental-recheck contract).
// ---------------------------------------------------------------------

mod memo_equivalence {
    use super::state_ops::{op_strategy, run_ops};
    use super::*;
    use symplfied::apps::Workload;
    use symplfied::check::{MemoError, MemoStore, OutcomeCounts, Solution, SubtreeSummary};
    use symplfied::cluster::{
        memo_preserves_outcome, run_cluster, run_cluster_with_memo, ClusterConfig,
    };
    use symplfied::inject::{Campaign, ErrorClass};

    /// A deterministic campaign config the memo exactness gate accepts:
    /// no wall-clock budgets anywhere, sequential point searches.
    fn memo_config(workers: usize, max_steps: u64) -> ClusterConfig {
        let config = ClusterConfig {
            workers,
            tasks: 12,
            search: SearchLimits {
                exec: ExecLimits::with_max_steps(max_steps),
                max_states: 3_000,
                max_solutions: 5,
                max_time: None,
                ..SearchLimits::default()
            },
            task_budget: None,
            point_workers_hint: Some(1),
            ..ClusterConfig::default()
        };
        assert!(memo_preserves_outcome(&config));
        config
    }

    /// Runs the full register-error campaign memo-off and memo-on at 1,
    /// 2, and 8 pool workers against ONE shared store, requiring every
    /// digest to match the memo-off run's and every post-population run
    /// to be served entirely from the store.
    fn assert_memo_equivalent(w: &Workload) {
        let campaign = Campaign::new(&w.program, ErrorClass::RegisterFile);
        let predicate = Predicate::Any;
        let store = MemoStore::for_campaign(&w.program, &w.detectors);
        for workers in [1usize, 2, 8] {
            let config = memo_config(workers, w.max_steps);
            let off = run_cluster(
                &w.program,
                &w.detectors,
                &w.input,
                &campaign,
                &predicate,
                &config,
            );
            let on = run_cluster_with_memo(
                &w.program,
                &w.detectors,
                &w.input,
                &campaign,
                &predicate,
                &config,
                Some(&store),
            );
            assert_eq!(
                off.outcome_digest(),
                on.outcome_digest(),
                "{} x{workers}: memoized digest must match memo-off",
                w.name
            );
            if workers > 1 {
                // The first pass populated the store; the pool width is
                // not part of a sequential point search's identity, so
                // every later pass is served whole.
                assert!(on.memo_hits() > 0, "{} x{workers}: warm", w.name);
                assert_eq!(
                    on.memo_states_skipped(),
                    on.states_explored(),
                    "{} x{workers}: fully served",
                    w.name
                );
            }
        }
        assert!(!store.is_empty(), "{}: store was populated", w.name);
    }

    #[test]
    fn tcas_memoized_campaign_matches_memo_off() {
        assert_memo_equivalent(&symplfied::apps::tcas());
    }

    #[test]
    fn replace_memoized_campaign_matches_memo_off() {
        assert_memo_equivalent(&symplfied::apps::replace());
    }

    /// An arbitrary-ish summary built from generated words and machine
    /// states (the checkpoint round-trip idiom).
    fn summary_from(words: &[u64], states: Vec<MachineState>) -> SubtreeSummary {
        let w = |i: usize| words[i % words.len()] as usize;
        SubtreeSummary {
            states_explored: w(0),
            duplicate_hits: w(1),
            terminals: OutcomeCounts {
                halted: w(2),
                crashed: w(3),
                hung: w(4),
                detected: w(5),
            },
            solutions: states
                .into_iter()
                .enumerate()
                .map(|(i, state)| Solution {
                    state,
                    trace: vec![i, 1],
                })
                .collect(),
            max_depth: words[6 % words.len()],
            peak_frontier_len: w(7),
            peak_frontier_bytes: w(8),
            spilled_states: w(9),
            workers: 1 + w(10) % 8,
            steals: w(11),
            exhausted: w(3) % 2 == 0,
            hit_state_cap: w(4) % 2 == 0,
            hit_solution_cap: w(5) % 3 == 0,
        }
    }

    /// Serializes `n` records under `key` through the real store.
    fn store_bytes(n: usize, key: u128, words: &[u64], states: &[MachineState]) -> Vec<u8> {
        let store = MemoStore::new(key);
        for d in 0..n {
            store.record(
                (d as u128) << 64 | 0xD1_6E57,
                summary_from(words, if d == 0 { states.to_vec() } else { Vec::new() }),
            );
        }
        store.to_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn symo_files_roundtrip_with_full_eq(
            ops in prop::collection::vec(op_strategy(), 1..20),
            words in prop::collection::vec(0u64..5_000_000, 12..13),
            records in 1usize..6,
        ) {
            let states = run_ops(&[3, -1], &ops);
            let key = u128::from(words[0]) << 64 | u128::from(words[1]);
            let bytes = store_bytes(records, key, &words, &states);
            let (loaded, truncated) =
                MemoStore::parse(&bytes, Some(key)).expect("intact stores parse");
            prop_assert!(!truncated);
            prop_assert_eq!(loaded.key(), key);
            prop_assert_eq!(loaded.len(), records);
            // Deterministic serialization: equal contents, equal bytes.
            prop_assert_eq!(bytes, loaded.to_bytes());
        }

        #[test]
        fn truncated_symo_tails_keep_the_intact_prefix(
            words in prop::collection::vec(0u64..5_000_000, 12..13),
            records in 2usize..6,
            cut in 1usize..200,
        ) {
            let bytes = store_bytes(records, 7, &words, &[]);
            // Cut inside the records region (never into the header): a
            // mid-save crash leaves exactly this shape.
            let header_end = store_bytes(0, 7, &words, &[]).len();
            let cut = (bytes.len() - cut.min(bytes.len() - header_end)).max(header_end);
            let (loaded, truncated) =
                MemoStore::parse(&bytes[..cut], Some(7)).expect("truncation is tolerated");
            prop_assert!(loaded.len() < records || !truncated);
            prop_assert!(loaded.len() <= records);
        }

        #[test]
        fn corrupt_symo_records_never_invent_entries(
            words in prop::collection::vec(0u64..5_000_000, 12..13),
            records in 1usize..5,
            flip_at in 0usize..10_000,
            flip_bits in 1u8..=255,
        ) {
            let bytes = store_bytes(records, 11, &words, &[]);
            let mut corrupt = bytes.clone();
            let idx = flip_at % corrupt.len();
            corrupt[idx] ^= flip_bits;
            // A flipped byte either fails the parse outright, or parses
            // to at most the written entries — and any record it does
            // keep must serve a summary that was actually recorded (its
            // per-record FNV-128 digest still matched).
            if let Ok((loaded, _)) = MemoStore::parse(&corrupt, Some(11)) {
                prop_assert!(loaded.len() <= records);
            }
        }

        #[test]
        fn stale_symo_keys_are_refused(
            words in prop::collection::vec(0u64..5_000_000, 12..13),
            key in 0u64..1_000,
            other in 1u64..1_000,
        ) {
            let key = u128::from(key);
            let expected = key + u128::from(other); // always != key
            let bytes = store_bytes(2, key, &words, &[]);
            match MemoStore::parse(&bytes, Some(expected)) {
                Err(MemoError::StaleKey { expected: e, found }) => {
                    prop_assert_eq!(e, expected);
                    prop_assert_eq!(found, key);
                }
                other => prop_assert!(false, "expected StaleKey, got {:?}", other.map(|_| ())),
            }
        }
    }
}

/// The campaign service's fairness contract: the weighted round-robin
/// [`symplfied::wire::FairScheduler`] serves continuously backlogged
/// clients proportionally to their declared priorities, never drifting
/// more than one refill round apart, and a client with a small queue is
/// fully served within the interleaving bound — it cannot starve behind
/// a large tenant at equal priority.
mod service_fairness {
    use proptest::prelude::*;
    use symplfied::wire::FairScheduler;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// With every client permanently backlogged, the served counts
        /// per unit priority stay within one round of each other at
        /// *every* prefix of the schedule — the documented fairness
        /// bound of `WorkerServer::serve_with`.
        #[test]
        fn backlogged_clients_stay_within_one_round_per_unit_priority(
            priorities in prop::collection::vec(1u64..=4, 2..6),
            picks in 16usize..200,
        ) {
            let mut sched = FairScheduler::new();
            let clients: Vec<(u64, bool)> =
                priorities.iter().map(|&p| (p, true)).collect();
            let mut served = vec![0u64; clients.len()];
            for _ in 0..picks {
                let i = sched.pick(&clients).expect("backlogged clients always schedule");
                served[i] += 1;
            }
            for (a, &pa) in priorities.iter().enumerate() {
                for (b, &pb) in priorities.iter().enumerate() {
                    let ra = served[a] as f64 / pa as f64;
                    let rb = served[b] as f64 / pb as f64;
                    prop_assert!(
                        (ra - rb).abs() <= 1.0 + f64::EPSILON,
                        "clients {a} (prio {pa}, served {}) and {b} (prio {pb}, served {}) \
                         drifted more than one round apart",
                        served[a], served[b],
                    );
                }
            }
        }

        /// Clients hang up mid-round (the service drops their slot and
        /// tells the scheduler which index went): the clients that stay,
        /// still permanently backlogged, keep the same one-round bound at
        /// every prefix — a leaver's unspent credits never land on a
        /// neighbour, and nobody is skipped or served out of turn.
        #[test]
        fn the_bound_holds_for_clients_that_stay_when_others_leave(
            stayers in prop::collection::vec(1u64..=4, 2..5),
            leavers in prop::collection::vec((1u64..=4, 0usize..6, 0usize..40), 1..5),
            picks in 16usize..160,
        ) {
            // Client = (id, priority, leaves after this many picks).
            // Leavers are interleaved among the stayers by `slot`.
            let mut clients: Vec<(usize, u64, Option<usize>)> = stayers
                .iter()
                .enumerate()
                .map(|(id, &p)| (id, p, None))
                .collect();
            for (k, &(p, slot, after)) in leavers.iter().enumerate() {
                let at = slot.min(clients.len());
                clients.insert(at, (stayers.len() + k, p, Some(after)));
            }
            let mut sched = FairScheduler::new();
            let mut served = vec![0u64; stayers.len()];
            for pick in 0..picks {
                while let Some(gone) = clients
                    .iter()
                    .position(|&(_, _, leaves)| leaves.is_some_and(|after| after <= pick))
                {
                    clients.remove(gone);
                    sched.remove(gone);
                }
                let views: Vec<(u64, bool)> = clients.iter().map(|&(_, p, _)| (p, true)).collect();
                let i = sched.pick(&views).expect("backlogged clients always schedule");
                if let Some(count) = served.get_mut(clients[i].0) {
                    *count += 1;
                }
                for (a, &pa) in stayers.iter().enumerate() {
                    for (b, &pb) in stayers.iter().enumerate() {
                        let ra = served[a] as f64 / pa as f64;
                        let rb = served[b] as f64 / pb as f64;
                        prop_assert!(
                            (ra - rb).abs() <= 1.0 + f64::EPSILON,
                            "after pick {pick}: stayers {a} (prio {pa}, served {}) and {b} \
                             (prio {pb}, served {}) drifted more than one round apart",
                            served[a], served[b],
                        );
                    }
                }
            }
        }

        /// Two equal-priority clients with unequal task counts: the
        /// small client's whole queue is dispatched within the
        /// interleaving bound (2·m + 1 picks for m tasks), so a quick
        /// campaign never waits for a big one — the starvation
        /// regression the service integration tests pin end-to-end.
        #[test]
        fn small_queues_drain_within_the_interleaving_bound(
            small in 1usize..8,
            extra in 1usize..24,
        ) {
            let big = small + extra;
            let mut sched = FairScheduler::new();
            let mut left = [big, small];
            let mut position = 0usize;
            let mut small_done_at = None;
            while left.iter().any(|&n| n > 0) {
                let clients = [(1, left[0] > 0), (1, left[1] > 0)];
                let i = sched.pick(&clients).expect("work remains");
                prop_assert!(left[i] > 0, "an idle client was scheduled");
                left[i] -= 1;
                position += 1;
                if i == 1 && left[1] == 0 {
                    small_done_at = Some(position);
                }
            }
            let done = small_done_at.expect("the small client drained");
            prop_assert!(
                done <= 2 * small + 1,
                "the small client's {small} task(s) took {done} pick(s) to dispatch \
                 — starved behind the {big}-task client"
            );
            prop_assert_eq!(position, small + big, "every task dispatched exactly once");
        }
    }
}
