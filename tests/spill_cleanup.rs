//! A search that panics after it has spilled leaves no spill directory or
//! file behind: unwinding drops its frontier, which removes them.
//!
//! This is its own test binary, so no other spilling search in this
//! process can create or remove a `symplfied-spill-<pid>-*` entry while
//! the test looks for them.
//!
//! ```text
//! cargo test --release --test spill_cleanup
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use symplfied::check::{Explorer, Predicate, SearchLimits};
use symplfied::inject::{prepare, InjectTarget, InjectionPoint};
use symplfied::machine::ExecLimits;
use symplfied::prelude::*;

/// The entries this process's spilling frontiers have in the temp
/// directory.
fn spill_entries() -> Vec<PathBuf> {
    let prefix = format!("symplfied-spill-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .expect("the temp directory")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| {
            path.file_name()
                .is_some_and(|name| name.to_string_lossy().starts_with(&prefix))
        })
        .collect()
}

#[test]
fn a_search_that_panics_after_spilling_leaves_no_spill_files() {
    assert!(spill_entries().is_empty(), "no spill before the search");
    let w = symplfied::apps::tcas();
    let limits = SearchLimits {
        exec: ExecLimits::with_max_steps(w.max_steps),
        max_states: 60_000,
        max_solutions: usize::MAX,
        max_time: None,
        max_frontier_bytes: Some(4 << 10),
        ..SearchLimits::default()
    };
    let point = InjectionPoint::new(20, InjectTarget::Register(Reg::r(8)));
    let prep = prepare(&w.program, &w.detectors, &w.input, &point, &limits.exec);
    assert!(prep.activated);

    // The predicate panics at the first state it sees once a spill file
    // is on disk, with the search's frontier still live.
    let predicate = Predicate::custom(|_| {
        let spilled = spill_entries()
            .iter()
            .any(|dir| std::fs::read_dir(dir).is_ok_and(|mut files| files.next().is_some()));
        assert!(!spilled, "a predicate failing mid-search");
        false
    });
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        Explorer::new(&w.program, &w.detectors)
            .with_limits(limits)
            .explore(prep.seeds, &predicate)
    }));
    std::panic::set_hook(hook);

    assert!(outcome.is_err(), "the search must have panicked mid-spill");
    assert_eq!(spill_entries(), Vec::<PathBuf>::new(), "spill left behind");
}
