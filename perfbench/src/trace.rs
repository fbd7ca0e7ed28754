//! The traced run's instruments: a benchmark-owned [`Recorder`] that
//! keeps the program's own counters and timers in memory, a span log
//! for the public calls the benchmark makes, and the analysis that
//! turns both into a span tree, a critical path, and per-layer metrics.
//!
//! Nothing here is compiled into the library crates: the recorder is
//! attached through `Study::with_recorder` / `Engine::with_recorder`,
//! and the spans wrap calls made from the benchmark's own code.

use mpr_obs::{Event, Metric, Recorder};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// An in-memory recorder on a shared clock, so the program's timer
/// events and the benchmark's spans land on one time axis.
#[derive(Debug)]
pub struct BenchRecorder {
    origin: Instant,
    events: Mutex<Vec<Event>>,
}

impl BenchRecorder {
    /// A recorder whose clock starts now.
    pub fn new() -> BenchRecorder {
        BenchRecorder {
            origin: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Removes and returns every event recorded so far.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("event lock"))
    }
}

impl Recorder for BenchRecorder {
    fn record(&self, name: &str, scope: &str, metric: Metric) {
        let ev = Event {
            t_us: self.origin.elapsed().as_micros() as u64,
            name: name.to_string(),
            scope: scope.to_string(),
            metric,
        };
        self.events.lock().expect("event lock").push(ev);
    }
}

/// A span the benchmark opened around one public call.
#[derive(Debug, Clone)]
struct CallSpan {
    layer: &'static str,
    name: String,
    start: f64,
    end: f64,
}

/// The benchmark-side spans of one traced iteration.
#[derive(Debug)]
pub struct SpanLog<'r> {
    rec: &'r BenchRecorder,
    calls: Mutex<Vec<CallSpan>>,
}

impl<'r> SpanLog<'r> {
    /// An empty log on `rec`'s clock.
    pub fn new(rec: &'r BenchRecorder) -> SpanLog<'r> {
        SpanLog {
            rec,
            calls: Mutex::new(Vec::new()),
        }
    }
}

/// Runs `f`, recording it as a `layer` span named `name` when a span
/// log is attached.
pub fn timed<T>(
    spans: Option<&SpanLog>,
    layer: &'static str,
    name: &str,
    f: impl FnOnce() -> T,
) -> T {
    let Some(log) = spans else { return f() };
    let start = log.rec.now();
    let out = f();
    let end = log.rec.now();
    log.calls.lock().expect("span lock").push(CallSpan {
        layer,
        name: name.to_string(),
        start,
        end,
    });
    out
}

/// One node of an iteration's span tree.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index in the iteration's span list.
    pub id: usize,
    /// Index of the parent span (`None` for the iteration root).
    pub parent: Option<usize>,
    /// What ran: a call name, `plan`, or a cell key.
    pub name: String,
    /// The crate (or crate pair for campaigns: driver/strike replay)
    /// the span's self time is charged to.
    pub layer: String,
    /// Start, seconds on the recorder clock.
    pub start: f64,
    /// End, seconds on the recorder clock.
    pub end: f64,
}

impl Span {
    fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// The crate that replays a cell's strikes, from its canonical key.
fn strike_crate(scope: &str) -> &'static str {
    if scope.contains(";wl=yolo") || scope.contains(";wl=mnist") {
        "nn"
    } else {
        "kernels"
    }
}

/// The campaign driver crate of a cell, from its canonical key.
fn driver_crate(scope: &str) -> Option<&'static str> {
    if scope.contains(";k=beam:") {
        Some("beam")
    } else if scope.contains(";k=inj:") {
        Some("fault")
    } else {
        None
    }
}

/// Tolerance for nesting tests: timer events are stamped when they
/// arrive, a few microseconds after the clock read that ended them.
const SLACK: f64 = 1e-3;

fn contains(outer: &Span, start: f64, end: f64) -> bool {
    start >= outer.start - SLACK && end <= outer.end + SLACK
}

/// Builds an iteration's span tree: the root covers the iteration, the
/// benchmark's call spans sit under it, and the program's timers
/// (`plan.wall`, `cell.exec`, `campaign.wall`) nest by time and scope.
pub fn build_tree(root: (f64, f64), spans: &SpanLog, events: &[Event]) -> Vec<Span> {
    let mut tree = vec![Span {
        id: 0,
        parent: None,
        name: "iteration".to_string(),
        layer: "bench".to_string(),
        start: root.0,
        end: root.1,
    }];
    let push =
        |tree: &mut Vec<Span>, parent: usize, name: String, layer: String, s: f64, e: f64| {
            let id = tree.len();
            tree.push(Span {
                id,
                parent: Some(parent),
                name,
                layer,
                start: s,
                end: e,
            });
            id
        };
    let calls = spans.calls.lock().expect("span lock").clone();
    let mut call_ids = Vec::new();
    for c in calls {
        call_ids.push(push(
            &mut tree,
            0,
            c.name,
            c.layer.to_string(),
            c.start,
            c.end,
        ));
    }
    let timer = |name: &str| -> Vec<(String, f64, f64)> {
        events
            .iter()
            .filter_map(|ev| match ev.metric {
                Metric::Time(d) if ev.name == name => {
                    let t = ev.t_us as f64 / 1e6;
                    Some((ev.scope.clone(), t - d, t))
                }
                _ => None,
            })
            .collect()
    };
    let innermost = |tree: &Vec<Span>, ids: &[usize], s: f64, e: f64| {
        ids.iter()
            .copied()
            .filter(|&i| contains(&tree[i], s, e))
            .max_by(|&a, &b| tree[a].start.total_cmp(&tree[b].start))
            .unwrap_or(0)
    };
    let mut plan_ids = Vec::new();
    for (_, s, e) in timer("plan.wall") {
        let parent = innermost(&tree, &call_ids, s, e);
        plan_ids.push(push(
            &mut tree,
            parent,
            "plan".to_string(),
            "exp".to_string(),
            s,
            e,
        ));
    }
    let mut cell_ids: Vec<(usize, String)> = Vec::new();
    for (scope, s, e) in timer("cell.exec") {
        let parent = innermost(&tree, &plan_ids, s, e);
        let id = push(&mut tree, parent, scope.clone(), "exp".to_string(), s, e);
        cell_ids.push((id, scope));
    }
    for (scope, s, e) in timer("campaign.wall") {
        let Some(driver) = driver_crate(&scope) else {
            continue;
        };
        let parent = cell_ids
            .iter()
            .filter(|(id, sc)| *sc == scope && contains(&tree[*id], s, e))
            .map(|(id, _)| *id)
            .next_back()
            .unwrap_or(0);
        let layer = format!("{driver}/{}", strike_crate(&scope));
        push(&mut tree, parent, format!("campaign {scope}"), layer, s, e);
    }
    tree
}

fn children(tree: &[Span], id: usize) -> Vec<usize> {
    tree.iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| s.id)
        .collect()
}

/// The children of `id` that block it: the chain of non-overlapping
/// children ending with the last one to finish. Sequential children
/// all block; of children running in parallel on the engine's workers
/// only the chain on the worker that finished last does.
fn blocking_chain(tree: &[Span], id: usize) -> Vec<usize> {
    let mut kids = children(tree, id);
    kids.sort_by(|&a, &b| tree[a].end.total_cmp(&tree[b].end));
    let mut chain = Vec::new();
    let mut bound = f64::INFINITY;
    for &k in kids.iter().rev() {
        if tree[k].end <= bound + 1e-6 {
            chain.push(k);
            bound = tree[k].start;
        }
    }
    chain.reverse();
    chain
}

/// Self time charged to each layer along the critical path of the
/// tree. The values sum to the root's duration: each node's self time
/// is its duration minus its blocking children's.
pub fn critical_self_times(tree: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut stack = vec![0usize];
    while let Some(id) = stack.pop() {
        let chain = blocking_chain(tree, id);
        let blocked: f64 = chain.iter().map(|&c| tree[c].dur()).sum();
        *out.entry(tree[id].layer.clone()).or_insert(0.0) += tree[id].dur() - blocked;
        stack.extend(chain);
    }
    out
}

/// Time spent in the `core` calls accepted by `keep` themselves: each
/// span minus the engine plans it ran (its children run sequentially on
/// the caller).
pub fn core_self_s(tree: &[Span], keep: impl Fn(&str) -> bool) -> f64 {
    tree.iter()
        .filter(|s| s.layer == "core" && keep(&s.name))
        .map(|s| {
            s.dur()
                - children(tree, s.id)
                    .iter()
                    .map(|&c| tree[c].dur())
                    .sum::<f64>()
        })
        .sum()
}

/// Appends the tree as JSON lines: one span per line with name, layer,
/// start and end (µs on the recorder clock), parent, and the
/// workload/iteration id.
pub fn write_jsonl(out: &mut String, workload: &str, iter: usize, tree: &[Span]) {
    for s in tree {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"workload\":{},\"iter\":{iter},\"id\":{},\"parent\":{parent},\"name\":{},\"layer\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
            crate::stats::json_str(workload),
            s.id,
            crate::stats::json_str(&s.name),
            crate::stats::json_str(&s.layer),
            s.start * 1e6,
            s.end * 1e6
        );
    }
}

/// Whether a campaign scope belongs to the beam (`beam`) or the
/// injection (`fault`) driver.
pub fn is_driver(scope: &str, driver: &str) -> bool {
    driver_crate(scope) == Some(driver)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, layer: &str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            layer: layer.to_string(),
            start,
            end,
        }
    }

    #[test]
    fn critical_path_follows_the_last_worker_and_sums_to_the_root() {
        // Root 0..10; a plan 1..9 with two workers: A 1..5 then B 5..9
        // on one, C 1..6 on the other. The chain is A, B.
        let tree = vec![
            span(0, None, "bench", 0.0, 10.0),
            span(1, Some(0), "exp", 1.0, 9.0),
            span(2, Some(1), "beam/nn", 1.0, 5.0),
            span(3, Some(1), "fault/kernels", 1.0, 6.0),
            span(4, Some(1), "beam/nn", 5.0, 9.0),
        ];
        assert_eq!(blocking_chain(&tree, 1), vec![2, 4]);
        let self_times = critical_self_times(&tree);
        let total: f64 = self_times.values().sum();
        assert!((total - 10.0).abs() < 1e-12);
        assert!((self_times["beam/nn"] - 8.0).abs() < 1e-12);
        assert!(!self_times.contains_key("fault/kernels"));
    }

    #[test]
    fn crates_are_read_from_cell_keys() {
        let yolo = "v2;dev=titan-v;wl=yolo;p=half;k=beam:h=1,n=4000,c=yolo";
        let lud = "v2;dev=knc-3120a;wl=lud:28;p=single;k=inj:n=2400,m=sb,lf=0";
        assert_eq!(strike_crate(yolo), "nn");
        assert_eq!(driver_crate(yolo), Some("beam"));
        assert_eq!(strike_crate(lud), "kernels");
        assert_eq!(driver_crate(lud), Some("fault"));
    }
}
