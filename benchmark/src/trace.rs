//! Benchmark-side tracing: spans around calls into each layer, kept in
//! memory and flushed once at exit. Hot-loop calls (millions per search)
//! are not spans: they are aggregated into an [`Agg`] attached to the span
//! that encloses the loop.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// Count and total time of one kind of hot-loop call. Time is also kept
/// per fixed-size block of calls, so the cost of the *last tenth* of the
/// calls — where a growing structure is largest — can be told apart from
/// the run's average.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    /// Timed calls, and their total time.
    pub count: u64,
    pub total_ns: u64,
    /// Calls made with the clock off (see [`Agg::skip`]).
    pub untimed: u64,
    blocks: Vec<u64>,
    in_block: u64,
    block_ns: u64,
}

const AGG_BLOCK: u64 = 1024;

impl Agg {
    #[inline]
    pub fn add(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.block_ns += ns;
        self.in_block += 1;
        if self.in_block == AGG_BLOCK {
            self.blocks.push(self.block_ns);
            self.in_block = 0;
            self.block_ns = 0;
        }
    }

    /// Counts a call that was deliberately not timed (a sampled loop).
    #[inline]
    pub fn skip(&mut self) {
        self.untimed += 1;
    }

    /// Every call, timed or not.
    pub fn calls(&self) -> u64 {
        self.count + self.untimed
    }

    /// Total time of every call, taking the timed ones as representative.
    pub fn estimated_total_ns(&self) -> f64 {
        self.mean_ns() * self.calls() as f64
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Mean cost over the last 10 % of calls (block granularity; the
    /// whole-run mean when there are too few calls to tell).
    pub fn last_decile_mean_ns(&self) -> f64 {
        let tail_blocks = self.blocks.len() / 10;
        if tail_blocks == 0 {
            return self.mean_ns();
        }
        let tail: u64 = self.blocks[self.blocks.len() - tail_blocks..].iter().sum();
        tail as f64 / (tail_blocks as u64 * AGG_BLOCK) as f64
    }

    fn to_json(&self, name: &str) -> Json {
        Json::obj([
            ("name", Json::str(name)),
            ("count", Json::Num(self.calls() as f64)),
            ("timed", Json::Num(self.count as f64)),
            ("total_ns", Json::Num(self.total_ns as f64)),
            ("last_decile_ns", Json::Num(self.last_decile_mean_ns())),
        ])
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 = root).
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub rep: u32,
    pub aggs: Vec<(&'static str, Agg)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span sink. Shared by reference across the benchmark's
/// own threads; recording is one short lock per *span*, never per
/// hot-loop call.
#[derive(Debug)]
pub struct Tracer {
    /// Off for the end-to-end runs: nothing is stamped or stored.
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; [`Tracer::close`] stamps its end and stores it.
#[derive(Debug)]
pub struct Open {
    pub id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    rep: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&self, name: &'static str, parent: u64, rep: u32) -> Open {
        let (id, start_ns) = if self.enabled {
            (self.next_id.fetch_add(1, Ordering::Relaxed), self.now_ns())
        } else {
            (0, 0)
        };
        Open {
            id,
            parent,
            name,
            start_ns,
            rep,
        }
    }

    /// Closes `open`, returning its duration in nanoseconds.
    pub fn close(&self, open: Open) -> u64 {
        self.close_with(open, Vec::new())
    }

    pub fn close_with(&self, open: Open, aggs: Vec<(&'static str, Agg)>) -> u64 {
        if !self.enabled {
            return 0;
        }
        let end_ns = self.now_ns();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            rep: open.rep,
            aggs,
        };
        let dur = span.dur_ns();
        self.spans
            .lock()
            .expect("a benchmark thread panicked while recording a span")
            .push(span);
        dur
    }

    /// Runs one call as a span, returning its result and duration (0 with
    /// tracing off).
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: u64,
        rep: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let open = self.open(name, parent, rep);
        let out = f();
        (out, self.close(open))
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }

    /// Durations (ns) of every recorded span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// A span's self time: its duration minus the part of it its direct
    /// children cover (children on other threads may overlap each other,
    /// so the covered part is the union of their intervals).
    pub fn self_ns(&self, id: u64) -> u64 {
        let spans = self.spans.lock().expect("span lock");
        let Some(me) = spans.iter().find(|s| s.id == id) else {
            return 0;
        };
        let mut kids: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.parent == id)
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = me.start_ns;
        for (a, b) in kids {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        me.dur_ns() - covered
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self.spans.lock().expect("span lock");
        Json::obj([
            ("workload", Json::str(workload)),
            (
                "spans",
                Json::Arr(
                    spans
                        .iter()
                        .map(|s| {
                            let mut pairs = vec![
                                ("id".to_string(), Json::Num(s.id as f64)),
                                ("parent".to_string(), Json::Num(s.parent as f64)),
                                ("name".to_string(), Json::str(s.name)),
                                ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                                ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                                ("rep".to_string(), Json::Num(f64::from(s.rep))),
                            ];
                            if !s.aggs.is_empty() {
                                pairs.push((
                                    "calls".to_string(),
                                    Json::Arr(s.aggs.iter().map(|(n, a)| a.to_json(n)).collect()),
                                ));
                            }
                            Json::Obj(pairs)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_tracks_the_last_decile_separately() {
        let mut a = Agg::default();
        for i in 0..(AGG_BLOCK * 20) {
            // The last tenth of the calls costs ten times the rest.
            a.add(if i >= AGG_BLOCK * 18 { 1000 } else { 100 });
        }
        assert_eq!(a.count, AGG_BLOCK * 20);
        assert_eq!(a.last_decile_mean_ns(), 1000.0);
        assert_eq!(a.mean_ns(), 190.0);
        let mut few = Agg::default();
        few.add(10);
        few.add(30);
        assert_eq!(
            few.last_decile_mean_ns(),
            20.0,
            "too few calls: whole-run mean"
        );
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new(true);
        let push = |id, parent, start_ns, end_ns| {
            t.spans.lock().unwrap().push(Span {
                id,
                parent,
                name: "s",
                start_ns,
                end_ns,
                rep: 0,
                aggs: Vec::new(),
            });
        };
        push(1, 0, 0, 100);
        push(2, 1, 10, 40);
        push(3, 1, 30, 60); // overlaps span 2 (another thread)
        push(4, 1, 90, 120); // runs past its parent
        push(5, 2, 15, 20); // grandchild: not subtracted from 1
        assert_eq!(t.self_ns(1), 100 - 50 - 10);
        assert_eq!(t.self_ns(2), 25);
        assert_eq!(t.self_ns(99), 0);
    }

    #[test]
    fn spans_flush_as_well_formed_json() {
        let t = Tracer::new(true);
        let root = t.open("rep", 0, 3);
        let child = t.open("cluster.task", root.id, 3);
        let mut agg = Agg::default();
        agg.add(5);
        t.close_with(child, vec![("machine.step", agg)]);
        t.close(root);
        let parsed = Json::parse(&t.to_json("w").pretty()).unwrap();
        let spans = parsed.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent").and_then(Json::as_f64), Some(1.0));
        assert_eq!(spans[0].get("rep").and_then(Json::as_f64), Some(3.0));
        let calls = spans[0].get("calls").and_then(Json::as_arr).unwrap();
        assert_eq!(calls[0].get("count").and_then(Json::as_f64), Some(1.0));
    }
}
