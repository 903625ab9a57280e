//! The metric tables: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` at the repo root lists the same names (a
//! test keeps them in step); `README.md` is the glossary.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

/// What a user of the system sees. Measured with tracing off.
///
/// A bound holds for all seven workloads at once, so the noisiest sets
/// it: each is three times the widest run-to-run spread (interquartile
/// range ÷ median over ten seeds) seen on the 2-CPU shared host the
/// benchmark was written on, capped at the contract's 0.25 — see README.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("points_per_s", "1/s", "higher", 0.25),
    e2e("states_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
    e2e("task_turnaround_p50_ms", "ms", "lower", 0.25),
];

/// Single layers, from the traced run. No bounds: they explain a move in
/// an end-to-end metric, they are not themselves judged.
pub const PER_LAYER: [MetricDef; 57] = [
    layer("apps.build_us", "us", "lower"),
    layer("asm.decode_us", "us", "lower"),
    layer("asm.decoded_ops", "count", "lower"),
    layer("machine.concrete_steps_per_s", "1/s", "higher"),
    layer("machine.step_ns", "ns", "lower"),
    layer("machine.successors_per_step", "ratio", "lower"),
    layer("machine.fingerprint_ns", "ns", "lower"),
    layer("machine.visited_insert_ns", "ns", "lower"),
    layer("machine.visited_insert_last_decile_ns", "ns", "lower"),
    layer("machine.encode_state_ns", "ns", "lower"),
    layer("machine.decode_state_ns", "ns", "lower"),
    layer("machine.state_bytes", "bytes", "lower"),
    layer("checker.frontier_push_ns", "ns", "lower"),
    layer("checker.frontier_pop_ns", "ns", "lower"),
    layer("checker.predicate_ns", "ns", "lower"),
    layer("checker.states_explored", "count", "lower"),
    layer("checker.duplicate_ratio", "ratio", "lower"),
    layer("checker.peak_frontier_len", "count", "lower"),
    layer("checker.peak_frontier_bytes", "bytes", "lower"),
    layer("checker.spilled_states", "count", "lower"),
    layer("checker.explore_ns_per_state", "ns", "lower"),
    layer("checker.replay_ns_per_state", "ns", "lower"),
    layer("checker.loop_self_ns_per_state", "ns", "lower"),
    layer("checker.steals", "count", "lower"),
    layer("checker.parallel_cpu_util", "ratio", "higher"),
    layer("inject.enumerate_us", "us", "lower"),
    layer("inject.prepare_us", "us", "lower"),
    layer("inject.prepare_share", "ratio", "lower"),
    layer("inject.seeds_per_point", "ratio", "lower"),
    layer("inject.points_activated", "count", "higher"),
    layer("inject.prefix_steps_saved", "count", "higher"),
    layer("cluster.shard_us", "us", "lower"),
    layer("cluster.pool_us", "us", "lower"),
    layer("cluster.digest_us", "us", "lower"),
    layer("cluster.task_ms_p50", "ms", "lower"),
    layer("cluster.task_ms_max", "ms", "lower"),
    layer("cluster.imbalance", "ratio", "lower"),
    layer("cluster.pool_efficiency", "ratio", "higher"),
    layer("cluster.first_rep_s", "s", "lower"),
    layer("wire.encode_task_us", "us", "lower"),
    layer("wire.decode_task_us", "us", "lower"),
    layer("wire.task_frame_bytes", "bytes", "lower"),
    layer("wire.encode_done_us", "us", "lower"),
    layer("wire.decode_done_us", "us", "lower"),
    layer("wire.done_frame_bytes", "bytes", "lower"),
    layer("wire.frame_echo_us", "us", "lower"),
    layer("wire.session_open_us", "us", "lower"),
    layer("wire.turnaround_p90_ms", "ms", "lower"),
    layer("wire.turnaround_max_ms", "ms", "lower"),
    layer("wire.service_overhead_ms", "ms", "lower"),
    layer("wire.heartbeats_per_task", "ratio", "lower"),
    layer("wire.coordinator_overhead_s", "s", "lower"),
    layer("wire.sched_pick_ns", "ns", "lower"),
    layer("wire.fairness_ratio", "ratio", "lower"),
    layer("wire.tasks_retried", "count", "lower"),
    layer("wire.workers_lost", "count", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
];

/// One measured value: the metric's name, the value, and how many samples
/// stand behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
    /// Quartiles of the samples behind `value`, in the metric's unit
    /// (both equal to `value` for a single reading).
    pub q1: f64,
    pub q3: f64,
}

/// A full set of values for one table, every name present. Metrics that
/// do not apply to a workload (no wire on an in-process campaign, no
/// replay of the parallel engine) stay 0 with 0 samples.
pub struct MetricSet {
    defs: &'static [MetricDef],
    values: Vec<Measured>,
}

impl MetricSet {
    pub fn new(defs: &'static [MetricDef]) -> MetricSet {
        MetricSet {
            defs,
            values: defs
                .iter()
                .map(|d| Measured {
                    name: d.name,
                    value: 0.0,
                    samples: 0,
                    q1: 0.0,
                    q3: 0.0,
                })
                .collect(),
        }
    }

    /// # Panics
    ///
    /// On a name the table does not list: a metric nobody declared must
    /// not be reported.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.set_spread(name, value, samples, value, value);
    }

    /// [`MetricSet::set`] with the quartiles of the samples behind it.
    pub fn set_spread(&mut self, name: &str, value: f64, samples: usize, q1: f64, q3: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the table"));
        (slot.value, slot.samples, slot.q1, slot.q3) = (value, samples, q1, q3);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, &Measured)> {
        self.defs.iter().zip(&self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_obey_the_naming_rules() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                d.unit
            );
            assert!(["lower", "higher"].contains(&d.better));
            assert!((0.0..=0.25).contains(&d.bound));
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let rows = |key: &str| spec.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let field = |row: &Json, k: &str| row.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads = rows("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (row, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(
                (field(row, "name"), field(row, "why")),
                (w.name.into(), w.why.into())
            );
        }
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = rows(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (row, d) in listed.iter().zip(defs) {
                assert_eq!(field(row, "name"), d.name);
                assert_eq!(field(row, "unit"), d.unit, "{}", d.name);
                assert_eq!(field(row, "better"), d.better, "{}", d.name);
                if key == "end_to_end" {
                    assert_eq!(
                        row.get("bound").and_then(Json::as_f64),
                        Some(d.bound),
                        "{}",
                        d.name
                    );
                }
            }
        }
        assert_eq!(
            spec.get("paths").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn metric_set_holds_every_name_and_refuses_strangers() {
        let mut set = MetricSet::new(&END_TO_END);
        set.set("setup_s", 0.5, 7);
        assert_eq!(set.get("setup_s"), 0.5);
        assert_eq!(set.iter().count(), END_TO_END.len());
        assert!(std::panic::catch_unwind(move || set.set("nope", 1.0, 1)).is_err());
    }
}
