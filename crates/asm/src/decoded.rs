//! The pre-decoded program IR: a dense, allocation-free executable form.
//!
//! [`crate::Program`] stores [`crate::Instr`] values — a faithful AST of the
//! `.sasm` source, convenient to parse, transform, and display, but slow to
//! *dispatch*: every step re-matches the [`crate::Operand`] enum, and the
//! `String`-carrying `prints` variant makes a naive `instr.clone()` per
//! fetch allocate. The model checker's sweeps execute tens of millions of
//! instructions per campaign, so the interpreter layer lowers the program
//! **once**, at search setup, into a [`DecodedProgram`] and dispatches over
//! that.
//!
//! # Lowering invariants
//!
//! Decoding is a **pure, total, semantics-preserving function of the
//! instruction sequence** (pinned by the decoded-vs-AST equivalence
//! property suite):
//!
//! * **Structural, 1:1.** Every AST instruction lowers to exactly one
//!   [`DecodedOp`] at the same address. No constant folding, no dead-code
//!   elimination, no reordering — the decoded dispatch must drive the same
//!   state-mutator calls as the AST interpreter so fork counts, watchdog
//!   accounting, and witness traces stay byte-identical.
//! * **Operand pre-split.** Register-vs-immediate alternatives (`mov`,
//!   arithmetic, set-compare, branches) are split into distinct `…Imm` /
//!   `…Reg` variants, so the hot dispatch never re-matches
//!   [`crate::Operand`].
//! * **Targets pre-resolved.** Branch/jump targets are stored as absolute
//!   `u32` instruction indices. They were already label-free in the AST
//!   (the parser resolves labels at assembly time); narrowing them to `u32`
//!   alongside `u8` register indices keeps every [`DecodedOp`] a small
//!   `Copy` value, so fetching an op is an indexed load, never a clone.
//! * **Strings pooled.** `prints` text lives in a side table of shared
//!   `Arc<str>` values; the op stream carries a `u32` pool index. The op
//!   array therefore contains no heap-owning values at all.
//!
//! # Superinstructions
//!
//! A second decode pass recognises the hot two-instruction idioms the
//! Siemens workloads are built from and records them in a parallel *fusion
//! table* ([`DecodedProgram::fused_at`]):
//!
//! * [`SuperOp::CmpBranch`] — `set<cmp> $d, …` immediately followed by a
//!   branch testing `$d` against an immediate (the `setgt $5,$3,$4; beq
//!   $5,0,exit` loop-exit idiom).
//! * [`SuperOp::LoadOp`] — a load followed by an arithmetic op consuming
//!   the loaded register.
//! * [`SuperOp::OpStore`] — an arithmetic op followed by a store consuming
//!   its result register, as the stored value (`add $7,…; st $7,…`) or as
//!   the store's base address (the `addi $11,$11,700; st $10, 0($11)`
//!   compute-address-then-store idiom).
//!
//! Fusion is an **execution shortcut, not a rewrite**: the op stream keeps
//! both constituent ops, and only the *concrete* runner (`run_concrete`),
//! whose intermediate states are unobservable, consults the table — and it
//! does so only when control *falls through* the first op, so a jump into
//! the middle of a pair executes the second op normally. The symbolic
//! engine always steps one architectural instruction at a time: its
//! intermediate states are observable (dedup points, witness-trace PCs,
//! the watchdog counter inside the state term), so skipping them would
//! change exhaustive-search results. Pairs are chosen greedily left to
//! right and never overlap.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::{BinOp, Cmp, Instr, Operand, Program, Reg};

/// One lowered instruction: a dense `Copy` value with pre-split operands,
/// pre-resolved `u32` code targets, and pooled strings. See the module docs
/// for the lowering invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodedOp {
    /// `rd <- imm`.
    MovImm {
        /// Destination register.
        rd: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// `rd <- rs`.
    MovReg {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs: Reg,
    },
    /// `rd <- rs OP imm`.
    BinImm {
        /// Operation.
        op: BinOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs: Reg,
        /// Immediate second operand.
        imm: i64,
    },
    /// `rd <- rs OP rt`.
    BinReg {
        /// Operation.
        op: BinOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs: Reg,
        /// Second source register.
        rt: Reg,
    },
    /// `rd <- (rs CMP imm) ? 1 : 0`.
    SetImm {
        /// Comparison predicate.
        cmp: Cmp,
        /// Destination register.
        rd: Reg,
        /// First comparand register.
        rs: Reg,
        /// Immediate second comparand.
        imm: i64,
    },
    /// `rd <- (rs CMP rt) ? 1 : 0`.
    SetReg {
        /// Comparison predicate.
        cmp: Cmp,
        /// Destination register.
        rd: Reg,
        /// First comparand register.
        rs: Reg,
        /// Second comparand register.
        rt: Reg,
    },
    /// `if (rs CMP imm) goto target`.
    BranchImm {
        /// Comparison predicate.
        cmp: Cmp,
        /// Register compared.
        rs: Reg,
        /// Immediate comparand.
        imm: i64,
        /// Absolute target instruction index.
        target: u32,
    },
    /// `if (rs CMP rt) goto target`.
    BranchReg {
        /// Comparison predicate.
        cmp: Cmp,
        /// Register compared.
        rs: Reg,
        /// Register comparand.
        rt: Reg,
        /// Absolute target instruction index.
        target: u32,
    },
    /// Unconditional jump.
    Jmp {
        /// Absolute target instruction index.
        target: u32,
    },
    /// Jump-and-link (`$31 <- pc + 1`).
    Jal {
        /// Absolute target instruction index.
        target: u32,
    },
    /// Jump to the address held in a register.
    Jr {
        /// Register holding the target address.
        rs: Reg,
    },
    /// `rt <- mem[rs + offset]`.
    Load {
        /// Destination register.
        rt: Reg,
        /// Base address register.
        rs: Reg,
        /// Byte offset.
        offset: i64,
    },
    /// `mem[rs + offset] <- rt`.
    Store {
        /// Source register.
        rt: Reg,
        /// Base address register.
        rs: Reg,
        /// Byte offset.
        offset: i64,
    },
    /// `rd <- next input value`.
    Read {
        /// Destination register.
        rd: Reg,
    },
    /// Print a register value.
    Print {
        /// Register printed.
        rs: Reg,
    },
    /// Print a pooled string literal.
    PrintS {
        /// Index into the string pool ([`DecodedProgram::text`]).
        text: u32,
    },
    /// Invoke detector `id`.
    Check {
        /// Detector identifier.
        id: u32,
    },
    /// No operation.
    Nop,
    /// Normal termination.
    Halt,
}

impl fmt::Display for DecodedOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodedOp::MovImm { rd, imm } => write!(f, "mov {rd}, {imm}"),
            DecodedOp::MovReg { rd, rs } => write!(f, "mov {rd}, {rs}"),
            DecodedOp::BinImm { op, rd, rs, imm } => write!(f, "{op} {rd}, {rs}, {imm}"),
            DecodedOp::BinReg { op, rd, rs, rt } => write!(f, "{op} {rd}, {rs}, {rt}"),
            DecodedOp::SetImm { cmp, rd, rs, imm } => {
                write!(f, "{} {rd}, {rs}, {imm}", set_mnemonic(*cmp))
            }
            DecodedOp::SetReg { cmp, rd, rs, rt } => {
                write!(f, "{} {rd}, {rs}, {rt}", set_mnemonic(*cmp))
            }
            DecodedOp::BranchImm {
                cmp,
                rs,
                imm,
                target,
            } => write!(f, "{} {rs}, {imm}, @{target}", branch_mnemonic(*cmp)),
            DecodedOp::BranchReg {
                cmp,
                rs,
                rt,
                target,
            } => write!(f, "{} {rs}, {rt}, @{target}", branch_mnemonic(*cmp)),
            DecodedOp::Jmp { target } => write!(f, "jmp @{target}"),
            DecodedOp::Jal { target } => write!(f, "jal @{target}"),
            DecodedOp::Jr { rs } => write!(f, "jr {rs}"),
            DecodedOp::Load { rt, rs, offset } => write!(f, "ld {rt}, {offset}({rs})"),
            DecodedOp::Store { rt, rs, offset } => write!(f, "st {rt}, {offset}({rs})"),
            DecodedOp::Read { rd } => write!(f, "read {rd}"),
            DecodedOp::Print { rs } => write!(f, "print {rs}"),
            DecodedOp::PrintS { text } => write!(f, "prints s{text}"),
            DecodedOp::Check { id } => write!(f, "check {id}"),
            DecodedOp::Nop => f.write_str("nop"),
            DecodedOp::Halt => f.write_str("halt"),
        }
    }
}

fn set_mnemonic(cmp: Cmp) -> &'static str {
    match cmp {
        Cmp::Eq => "seteq",
        Cmp::Ne => "setne",
        Cmp::Gt => "setgt",
        Cmp::Lt => "setlt",
        Cmp::Ge => "setge",
        Cmp::Le => "setle",
    }
}

fn branch_mnemonic(cmp: Cmp) -> &'static str {
    match cmp {
        Cmp::Eq => "beq",
        Cmp::Ne => "bne",
        Cmp::Gt => "bgt",
        Cmp::Lt => "blt",
        Cmp::Ge => "bge",
        Cmp::Le => "ble",
    }
}

/// A fused two-instruction pair, recorded at the address of its *first*
/// constituent op. Executed only by the concrete runner on fall-through
/// (see the module docs); both constituent ops remain in the op stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuperOp {
    /// `set<cmp> rd, rs, src` then `b<bcmp> rd, bimm, @target`: compare,
    /// materialize the flag, and branch on it in one dispatch.
    CmpBranch {
        /// The set-compare predicate.
        cmp: Cmp,
        /// Flag register written by the set and tested by the branch.
        rd: Reg,
        /// First comparand register.
        rs: Reg,
        /// Second comparand of the set.
        src: Operand,
        /// The branch predicate applied to `rd`.
        bcmp: Cmp,
        /// The branch's immediate comparand.
        bimm: i64,
        /// Absolute branch target.
        target: u32,
    },
    /// `ld rt, offset(rs)` then `op rd, rs2, src2` where the arithmetic op
    /// consumes the loaded `rt`.
    LoadOp {
        /// Register loaded into.
        rt: Reg,
        /// Load base register.
        rs: Reg,
        /// Load offset.
        offset: i64,
        /// The arithmetic operation.
        op: BinOp,
        /// Arithmetic destination register.
        rd: Reg,
        /// First arithmetic source register.
        rs2: Reg,
        /// Second arithmetic source operand.
        src2: Operand,
    },
    /// `op rd, rs, src` then `st rt, offset(bs)` where the store consumes
    /// `rd` (as `rt`, `bs`, or both): compute and store in one dispatch.
    OpStore {
        /// The arithmetic operation.
        op: BinOp,
        /// Result register.
        rd: Reg,
        /// First arithmetic source register.
        rs: Reg,
        /// Second arithmetic source operand.
        src: Operand,
        /// Stored-value register (often, but not necessarily, `rd`).
        rt: Reg,
        /// Store base register.
        bs: Reg,
        /// Store offset.
        offset: i64,
    },
}

impl SuperOp {
    /// A short kind name for listings and statistics.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            SuperOp::CmpBranch { .. } => "cmp-branch",
            SuperOp::LoadOp { .. } => "load-op",
            SuperOp::OpStore { .. } => "op-store",
        }
    }
}

/// Counters describing one decode: emitted ops, fused pairs, pooled
/// strings. Surfaced in the listing header the decoded snapshots pin
/// (`tests/decoded_snapshot`) and, for `ops`, in the repo benchmark's
/// `asm.decoded_ops` row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecodeStats {
    /// Number of [`DecodedOp`]s emitted (always the instruction count).
    pub ops: usize,
    /// Number of fused [`SuperOp`] pairs recorded.
    pub superinstructions: usize,
    /// Number of distinct pooled `prints` strings.
    pub pooled_strings: usize,
}

/// The decoded executable form of a [`Program`]: a dense `Copy` op array, a
/// parallel fusion table, and a string pool. Obtained from
/// [`Program::decoded`] (cached, decode-once) or [`DecodedProgram::decode`]
/// (always re-lowers, for benchmarks and tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedProgram {
    ops: Box<[DecodedOp]>,
    fused: Box<[Option<SuperOp>]>,
    strings: Box<[Arc<str>]>,
    stats: DecodeStats,
}

impl DecodedProgram {
    /// Lowers a program. Pure function of the instruction sequence: equal
    /// programs decode to equal `DecodedProgram`s.
    ///
    /// # Panics
    ///
    /// Panics if the program has more than `u32::MAX` instructions (code
    /// targets are stored as `u32`; validated programs are far smaller).
    #[must_use]
    pub fn decode(program: &Program) -> DecodedProgram {
        let instrs = program.instrs();
        assert!(
            u32::try_from(instrs.len()).is_ok(),
            "program too large for u32 code targets"
        );
        let mut strings: Vec<Arc<str>> = Vec::new();
        let mut pool: BTreeMap<&str, u32> = BTreeMap::new();
        let ops: Vec<DecodedOp> = instrs
            .iter()
            .map(|instr| lower(instr, &mut strings, &mut pool))
            .collect();

        // Greedy, non-overlapping fusion scan. The table is consulted only
        // at the first op's address, so no jump-target analysis is needed:
        // a jump into `pc + 1` simply dispatches `ops[pc + 1]` singly.
        let mut fused: Vec<Option<SuperOp>> = vec![None; ops.len()];
        let mut superinstructions = 0usize;
        let mut pc = 0usize;
        while pc + 1 < instrs.len() {
            if let Some(sup) = fuse_pair(&instrs[pc], &instrs[pc + 1]) {
                fused[pc] = Some(sup);
                superinstructions += 1;
                pc += 2;
            } else {
                pc += 1;
            }
        }

        let stats = DecodeStats {
            ops: ops.len(),
            superinstructions,
            pooled_strings: strings.len(),
        };
        DecodedProgram {
            ops: ops.into_boxed_slice(),
            fused: fused.into_boxed_slice(),
            strings: strings.into_boxed_slice(),
            stats,
        }
    }

    /// Number of ops (always the source program's instruction count).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the op stream is empty (never true for a validated program).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The op at `pc`, or `None` outside the code range (an illegal
    /// instruction fetch). Ops are `Copy`; this is an indexed load.
    #[inline]
    #[must_use]
    pub fn op(&self, pc: usize) -> Option<DecodedOp> {
        self.ops.get(pc).copied()
    }

    /// All ops in address order.
    #[must_use]
    pub fn ops(&self) -> &[DecodedOp] {
        &self.ops
    }

    /// The fused pair starting at `pc`, if the fusion pass recorded one.
    #[inline]
    #[must_use]
    pub fn fused_at(&self, pc: usize) -> Option<SuperOp> {
        self.fused.get(pc).copied().flatten()
    }

    /// The pooled string for a [`DecodedOp::PrintS`] index.
    ///
    /// # Panics
    ///
    /// Panics on an index not produced by this decode.
    #[inline]
    #[must_use]
    pub fn text(&self, idx: u32) -> &Arc<str> {
        &self.strings[idx as usize]
    }

    /// The decode counters (ops emitted, superinstructions fused, strings
    /// pooled).
    #[must_use]
    pub fn stats(&self) -> DecodeStats {
        self.stats
    }

    /// A disassembler-style listing of the decoded form: a stats header,
    /// the string pool, and one line per op with fused pairs annotated.
    /// This is the text the golden snapshot tests pin.
    #[must_use]
    pub fn listing(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "; decoded program: {} ops, {} superinstructions, {} pooled strings",
            self.stats.ops, self.stats.superinstructions, self.stats.pooled_strings
        );
        for (i, s) in self.strings.iter().enumerate() {
            let _ = writeln!(out, ";   s{i} = {s:?}");
        }
        for (addr, op) in self.ops.iter().enumerate() {
            let line = format!("  {addr:4}  {op}");
            match self.fused[addr] {
                Some(sup) => {
                    let _ = writeln!(out, "{line:<40}; fused: {} with @{}", sup.kind(), addr + 1);
                }
                None => {
                    let _ = writeln!(out, "{line}");
                }
            }
        }
        out
    }
}

impl fmt::Display for DecodedProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.listing())
    }
}

/// Lowers one AST instruction (see the module docs: structural and 1:1).
fn lower<'a>(
    instr: &'a Instr,
    strings: &mut Vec<Arc<str>>,
    pool: &mut BTreeMap<&'a str, u32>,
) -> DecodedOp {
    match instr {
        Instr::Bin { op, rd, rs, src } => match *src {
            Operand::Imm(imm) => DecodedOp::BinImm {
                op: *op,
                rd: *rd,
                rs: *rs,
                imm,
            },
            Operand::Reg(rt) => DecodedOp::BinReg {
                op: *op,
                rd: *rd,
                rs: *rs,
                rt,
            },
        },
        Instr::Mov { rd, src } => match *src {
            Operand::Imm(imm) => DecodedOp::MovImm { rd: *rd, imm },
            Operand::Reg(rs) => DecodedOp::MovReg { rd: *rd, rs },
        },
        Instr::Set { cmp, rd, rs, src } => match *src {
            Operand::Imm(imm) => DecodedOp::SetImm {
                cmp: *cmp,
                rd: *rd,
                rs: *rs,
                imm,
            },
            Operand::Reg(rt) => DecodedOp::SetReg {
                cmp: *cmp,
                rd: *rd,
                rs: *rs,
                rt,
            },
        },
        Instr::Branch {
            cmp,
            rs,
            src,
            target,
        } => {
            let target = to_target(*target);
            match *src {
                Operand::Imm(imm) => DecodedOp::BranchImm {
                    cmp: *cmp,
                    rs: *rs,
                    imm,
                    target,
                },
                Operand::Reg(rt) => DecodedOp::BranchReg {
                    cmp: *cmp,
                    rs: *rs,
                    rt,
                    target,
                },
            }
        }
        Instr::Jmp { target } => DecodedOp::Jmp {
            target: to_target(*target),
        },
        Instr::Jal { target } => DecodedOp::Jal {
            target: to_target(*target),
        },
        Instr::Jr { rs } => DecodedOp::Jr { rs: *rs },
        Instr::Load { rt, rs, offset } => DecodedOp::Load {
            rt: *rt,
            rs: *rs,
            offset: *offset,
        },
        Instr::Store { rt, rs, offset } => DecodedOp::Store {
            rt: *rt,
            rs: *rs,
            offset: *offset,
        },
        Instr::Read { rd } => DecodedOp::Read { rd: *rd },
        Instr::Print { rs } => DecodedOp::Print { rs: *rs },
        Instr::PrintS { text } => {
            // Dedup by content so repeated literals share one pool slot;
            // BTreeMap keeps the pool order deterministic.
            let key: &'a str = text.as_ref();
            let idx = match pool.get(key) {
                Some(&idx) => idx,
                None => {
                    let idx = u32::try_from(strings.len()).expect("string pool fits in u32");
                    strings.push(Arc::clone(text));
                    pool.insert(key, idx);
                    idx
                }
            };
            DecodedOp::PrintS { text: idx }
        }
        Instr::Check { id } => DecodedOp::Check { id: *id },
        Instr::Nop => DecodedOp::Nop,
        Instr::Halt => DecodedOp::Halt,
    }
}

fn to_target(target: usize) -> u32 {
    u32::try_from(target).expect("validated targets fit in u32")
}

/// Recognises a fusable adjacent pair. Purely syntactic on the AST pair;
/// the conditions guarantee the second op consumes the first's result so
/// the fused execution is a straight-line composition.
fn fuse_pair(first: &Instr, second: &Instr) -> Option<SuperOp> {
    match (first, second) {
        (
            Instr::Set { cmp, rd, rs, src },
            Instr::Branch {
                cmp: bcmp,
                rs: brs,
                src: Operand::Imm(bimm),
                target,
            },
        ) if brs == rd => Some(SuperOp::CmpBranch {
            cmp: *cmp,
            rd: *rd,
            rs: *rs,
            src: *src,
            bcmp: *bcmp,
            bimm: *bimm,
            target: to_target(*target),
        }),
        (
            Instr::Load { rt, rs, offset },
            Instr::Bin {
                op,
                rd,
                rs: rs2,
                src: src2,
            },
        ) if rs2 == rt || src2.as_reg() == Some(*rt) => Some(SuperOp::LoadOp {
            rt: *rt,
            rs: *rs,
            offset: *offset,
            op: *op,
            rd: *rd,
            rs2: *rs2,
            src2: *src2,
        }),
        (
            Instr::Bin { op, rd, rs, src },
            Instr::Store {
                rt: srt,
                rs: bs,
                offset,
            },
        ) if srt == rd || bs == rd => Some(SuperOp::OpStore {
            op: *op,
            rd: *rd,
            rs: *rs,
            src: *src,
            rt: *srt,
            bs: *bs,
            offset: *offset,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    const FACTORIAL: &str = r#"
        mov $2, 1
        read $1
        mov $3, $1
    loop:
        setgt $5, $3, 1
        beq $5, 0, exit
        mult $2, $2, $3
        subi $3, $3, 1
        jmp loop
    exit:
        prints "Factorial = "
        print $2
        halt
    "#;

    #[test]
    fn lowering_is_one_to_one_and_pools_strings() {
        let program = parse_program(FACTORIAL).unwrap();
        let d = program.decoded();
        assert_eq!(d.len(), program.len());
        assert_eq!(d.stats().ops, program.len());
        assert_eq!(d.stats().pooled_strings, 1);
        assert_eq!(d.text(0).as_ref(), "Factorial = ");
        assert_eq!(
            d.op(3),
            Some(DecodedOp::SetImm {
                cmp: Cmp::Gt,
                rd: Reg::r(5),
                rs: Reg::r(3),
                imm: 1
            })
        );
        assert_eq!(d.op(7), Some(DecodedOp::Jmp { target: 3 }));
        assert_eq!(d.op(program.len()), None);
    }

    #[test]
    fn fuses_the_setgt_beq_loop_exit_idiom() {
        let program = parse_program(FACTORIAL).unwrap();
        let d = program.decoded();
        let exit = program.label_address("exit").unwrap() as u32;
        assert_eq!(
            d.fused_at(3),
            Some(SuperOp::CmpBranch {
                cmp: Cmp::Gt,
                rd: Reg::r(5),
                rs: Reg::r(3),
                src: Operand::Imm(1),
                bcmp: Cmp::Eq,
                bimm: 0,
                target: exit,
            })
        );
        // The branch itself is not the start of another pair.
        assert_eq!(d.fused_at(4), None);
        assert!(d.stats().superinstructions >= 1);
    }

    #[test]
    fn fuses_load_op_and_op_store_pairs() {
        let program = parse_program(
            r#"
            ld $2, 0($1)
            add $3, $2, 4
            add $4, $4, 1
            st $4, 8($1)
            halt
            "#,
        )
        .unwrap();
        let d = program.decoded();
        assert!(matches!(d.fused_at(0), Some(SuperOp::LoadOp { .. })));
        assert!(matches!(d.fused_at(2), Some(SuperOp::OpStore { .. })));
        assert_eq!(d.stats().superinstructions, 2);
    }

    #[test]
    fn fusion_is_greedy_and_non_overlapping() {
        // ld; add-consuming; st-of-add-result: the ld/add pair wins, the
        // add/st pair must not also be recorded (add is already consumed).
        let program = parse_program(
            r#"
            ld $2, 0($1)
            add $3, $2, 4
            st $3, 8($1)
            halt
            "#,
        )
        .unwrap();
        let d = program.decoded();
        assert!(matches!(d.fused_at(0), Some(SuperOp::LoadOp { .. })));
        assert_eq!(d.fused_at(1), None);
        assert_eq!(d.stats().superinstructions, 1);
    }

    #[test]
    fn decode_is_deterministic_and_shared_across_clones() {
        let program = parse_program(FACTORIAL).unwrap();
        let again = DecodedProgram::decode(&program);
        assert_eq!(*program.decoded(), again);
        let clone = program.clone();
        // Clones share the cached decode (same allocation).
        assert!(std::ptr::eq(program.decoded(), clone.decoded()));
    }

    #[test]
    fn listing_mentions_fusion_and_strings() {
        let program = parse_program(FACTORIAL).unwrap();
        let listing = program.decoded().listing();
        assert!(listing.contains("; decoded program: 11 ops"));
        assert!(listing.contains("s0 = \"Factorial = \""));
        assert!(listing.contains("fused: cmp-branch with @4"));
        assert!(listing.lines().count() > 11);
    }
}
