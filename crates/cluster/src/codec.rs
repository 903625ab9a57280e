//! Wire records for the campaign types a network worker ships: the task
//! shard it runs, the per-task statistics it reports, and each finding.
//! The `TaskDone` frame and every `SYCP` checkpoint record are a
//! [`TaskResult`] plus its findings in these encodings.

use sympl_symbolic::codec_record;

use crate::{Finding, TaskResult, TaskSpec};

codec_record! {
    struct TaskSpec { id, points }
}

// The cache statistics describe one process's local caches, not the
// task's outcome: they stay off the wire, and a decoded result reports
// that it answered nothing from them.
codec_record! {
    struct TaskResult {
        id, points_examined, points_total, activated, findings, completed, elapsed,
        states_explored, point_workers, steals, peak_frontier_len, peak_frontier_bytes,
        spilled_states,
    }
    off_wire { memo_hits: 0, memo_states_skipped: 0, prefix_steps_saved: 0 }
}

codec_record! {
    struct Finding { task_id, point, solution }
}
