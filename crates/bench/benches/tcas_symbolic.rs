//! §6.2 benchmark: the catastrophic-outcome search on tcas.
//!
//! Measures one campaign unit — the `$31` return-address injection at the
//! `Non_Crossing_Biased_Climb` return, searched for the exact catastrophic
//! output `2` — and a representative data-register injection for contrast.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use sympl_asm::{Instr, Reg};
use sympl_check::{Predicate, SearchLimits};
use sympl_inject::{run_point, InjectTarget, InjectionPoint};
use sympl_machine::ExecLimits;

/// The per-point limits of the tcas campaign (`symplfied campaign`).
fn limits(max_steps: u64) -> SearchLimits {
    SearchLimits {
        exec: ExecLimits::with_max_steps(max_steps),
        max_states: 300_000,
        max_solutions: 10,
        max_time: Some(std::time::Duration::from_secs(60)),
        ..SearchLimits::default()
    }
}

fn ncbc_return(program: &sympl_asm::Program) -> usize {
    let epilogue = program.label_address("ncbc_done").expect("tcas label");
    let jr = epilogue + 2;
    assert!(matches!(program.fetch(jr), Some(Instr::Jr { .. })));
    jr
}

fn bench_catastrophic(c: &mut Criterion) {
    let w = sympl_apps::tcas();
    let point = InjectionPoint::new(ncbc_return(&w.program), InjectTarget::Register(Reg::r(31)));
    c.bench_function("tcas_catastrophic_search", |b| {
        b.iter(|| {
            let out = run_point(
                &w.program,
                &w.detectors,
                &w.input,
                black_box(&point),
                &Predicate::ExactOutput { output: vec![2] },
                &limits(w.max_steps),
            );
            assert!(out.found_errors());
            black_box(out.report.states_explored)
        });
    });
}

fn bench_data_register(c: &mut Criterion) {
    let w = sympl_apps::tcas();
    // An instruction inside alt_sep_test that uses $8 (the enabled
    // computation): a plain data-register error for contrast with the
    // control error above.
    let ast = w.program.label_address("alt_sep_test").expect("tcas label");
    let point = InjectionPoint::new(ast + 3, InjectTarget::Register(Reg::r(8)));
    c.bench_function("tcas_data_register_search", |b| {
        b.iter(|| {
            let out = run_point(
                &w.program,
                &w.detectors,
                &w.input,
                black_box(&point),
                &Predicate::WrongOutput { expected: vec![1] },
                &limits(w.max_steps),
            );
            black_box(out.report.states_explored)
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_catastrophic, bench_data_register
}
criterion_main!(benches);
