//! The benchmark's own span recorder. Spans are kept in memory while the
//! workload runs (one [`Lane`] per thread, merged into the shared
//! [`SpanLog`] when the lane is dropped) and exported when it ends: as a
//! Chrome/Perfetto document and as a per-name self-time table.
//!
//! Spans wrap calls into each crate's public functions from outside; the
//! program itself is not instrumented here.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sunway_sim::Json;

/// One closed span. `parent` indexes the same span list; `req` is the
/// request ID shared by every span of one served query (0 = none).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub lane: u32,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// All spans of one run. Disabled logs record nothing, and their lanes cost
/// one branch per call.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Arc<Self> {
        Arc::new(SpanLog {
            epoch: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        })
    }

    /// A recorder for the calling thread, shown as Chrome thread `lane`.
    pub fn lane(self: &Arc<Self>, lane: u32) -> Lane {
        Lane {
            log: Arc::clone(self),
            lane,
            local: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Every span merged so far (all lanes dropped ⇒ all spans).
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

/// Per-thread span recorder: nests spans by call order and hands them to
/// the log when dropped.
pub struct Lane {
    log: Arc<SpanLog>,
    lane: u32,
    local: Vec<Span>,
    stack: Vec<usize>,
}

impl Lane {
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.log.enabled {
            return Open(usize::MAX);
        }
        let idx = self.local.len();
        self.local.push(Span {
            name,
            start_ns: self.log.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            lane: self.lane,
            req,
        });
        self.stack.push(idx);
        Open(idx)
    }

    pub fn end(&mut self, open: Open) {
        if open.0 == usize::MAX {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.local[open.0].end_ns = self.log.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, 0);
        let out = f();
        self.end(open);
        out
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        if self.local.is_empty() {
            return;
        }
        // Spans still open (a panic unwound through them) end now.
        let now = self.log.now_ns();
        for &i in &self.stack {
            self.local[i].end_ns = now;
        }
        if let Ok(mut all) = self.log.spans.lock() {
            let base = all.len();
            all.extend(self.local.drain(..).map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
    }
}

/// Total and self time of every span with one name. Self time is a span's
/// duration minus the part of it that its child spans cover.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut kids: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                let c = &spans[c];
                (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
            })
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in kids {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                _ => {
                    if let Some((ca, cb)) = cur {
                        covered += cb - ca;
                    }
                    cur = Some((a, b));
                }
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns() - covered;
    }
    out
}

/// Chrome/Perfetto `trace_event` document: one process, one thread per
/// lane, balanced `B`/`E` pairs in time order, the request ID in `args`.
pub fn to_chrome(spans: &[Span]) -> Json {
    let mut lanes: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        lanes.entry(s.lane).or_default().push(i);
    }
    let num = |x: f64| Json::Num(x);
    let mut events = vec![Json::Obj(vec![
        ("ph".into(), Json::Str("M".into())),
        ("pid".into(), num(0.0)),
        ("tid".into(), num(0.0)),
        ("name".into(), Json::Str("process_name".into())),
        (
            "args".into(),
            Json::Obj(vec![("name".into(), Json::Str("perfbench".into()))]),
        ),
    ])];
    let event = |ph: &str, s: &Span, ts_ns: u64| {
        let mut fields = vec![
            ("ph".into(), Json::Str(ph.into())),
            ("pid".into(), num(0.0)),
            ("tid".into(), num(s.lane as f64)),
            ("ts".into(), num(ts_ns as f64 / 1e3)),
            ("name".into(), Json::Str(s.name.into())),
        ];
        if ph == "B" && s.req != 0 {
            fields.push((
                "args".into(),
                Json::Obj(vec![("req".into(), num(s.req as f64))]),
            ));
        }
        Json::Obj(fields)
    };
    for idxs in lanes.values_mut() {
        // Parents before children: start ascending, longer span first.
        idxs.sort_by_key(|&i| (spans[i].start_ns, std::cmp::Reverse(spans[i].end_ns)));
        let mut open: Vec<usize> = Vec::new();
        for &i in idxs.iter() {
            let s = &spans[i];
            while let Some(&top) = open.last() {
                if spans[top].end_ns <= s.start_ns {
                    events.push(event("E", &spans[top], spans[top].end_ns));
                    open.pop();
                } else {
                    break;
                }
            }
            events.push(event("B", s, s.start_ns));
            open.push(i);
        }
        while let Some(top) = open.pop() {
            events.push(event("E", &spans[top], spans[top].end_ns));
        }
    }
    Json::Obj(vec![
        ("displayTimeUnit".into(), Json::Str("ms".into())),
        ("traceEvents".into(), Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            lane: 1,
            req: 0,
        }
    }

    /// root [0,100) ← a [10,40) ← a1 [15,20)
    ///              ← b [30,60)   (overlaps a: covered once)
    ///              ← c [90,120)  (clipped to the root's end)
    #[test]
    fn self_time_on_a_hand_built_tree() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 20, Some(1)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        let t = self_times(&spans);
        // Children cover [10,60) ∪ [90,100) = 60 of the root's 100.
        assert_eq!(t["root"].self_ns, 40);
        assert_eq!(t["root"].total_ns, 100);
        assert_eq!(t["a"].self_ns, 25);
        assert_eq!(t["a1"].self_ns, 5);
        assert_eq!(t["b"].self_ns, 30);
        assert_eq!(t["c"].self_ns, 30);
    }

    #[test]
    fn repeated_names_accumulate() {
        let spans = vec![
            span("step", 0, 10, None),
            span("k", 2, 4, Some(0)),
            span("step", 10, 30, None),
            span("k", 12, 22, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["step"],
            SelfTime {
                count: 2,
                total_ns: 30,
                self_ns: 18
            }
        );
        assert_eq!(t["k"].self_ns, 12);
    }

    #[test]
    fn lanes_nest_and_export_valid_chrome() {
        let log = SpanLog::new(true);
        let spans = {
            let mut a = log.lane(1);
            let mut b = log.lane(2);
            let outer = a.begin("outer", 0);
            a.time("inner", || b.time("other", || ()));
            let q = b.begin("query", 42);
            b.end(q);
            a.end(outer);
            drop((a, b));
            log.spans()
        };
        assert_eq!(spans.len(), 4);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(spans[inner.parent.unwrap()].name, "outer");
        assert!(spans.iter().any(|s| s.req == 42));
        let doc = to_chrome(&spans);
        let stats = sunway_sim::validate_chrome(&doc).expect("valid chrome trace");
        assert_eq!((stats.begins, stats.ends, stats.lanes), (4, 4, 2));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = SpanLog::new(false);
        let mut l = log.lane(0);
        l.time("x", || ());
        drop(l);
        assert!(log.spans().is_empty());
    }
}
