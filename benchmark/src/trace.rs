//! Spans recorded from outside the program: one around every call the
//! benchmark makes into a public function of the stack.
//!
//! The tracer lives in the benchmark's own memory and is written out once,
//! when the run ends.  A span is named `<layer>:<function>`; the layer is
//! the module path the README's layer table uses, so self time can be
//! summed per layer.  When the tracer is disabled (every end-to-end run)
//! `timed` is just an `Instant` pair around the call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::Json;

/// Op id of spans recorded during set-up (timed ops count from 1).
pub const SETUP_OP: u64 = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The op this span belongs to; spans of one op share it.
    pub op: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split(':').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn disabled() -> Self {
        Self::new(false)
    }

    pub fn enabled() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            op: Cell::new(SETUP_OP),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Sets the op id that subsequent spans carry.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    /// Runs `f`, returning its result and wall time; records a span around
    /// it when tracing is on.  Every timing the benchmark reports comes
    /// from here, so traced and untraced runs time the same regions.
    pub fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        if !self.enabled {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed());
        }
        let parent = self.open.borrow().last().copied();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start: Duration::ZERO,
                end: Duration::ZERO,
                parent,
                op: self.op.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx].start = start;
        spans[idx].end = end;
        (out, end - start)
    }

    /// [`Tracer::timed`] for callers that only want the span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, f).0
    }

    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Self time per layer: each span's duration minus the part of it its
    /// child spans cover, summed over the spans of the layer.  `ops`
    /// selects which op ids count (set-up and warm-up are usually left out).
    pub fn self_time_by_layer(
        &self,
        ops: impl Fn(u64) -> bool,
    ) -> BTreeMap<&'static str, Duration> {
        let spans = self.spans.borrow();
        let mut children = vec![Duration::ZERO; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p] += s.end - s.start;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, covered) in spans.iter().zip(&children) {
            if ops(s.op) {
                *by_layer.entry(s.layer()).or_insert(Duration::ZERO) +=
                    (s.end - s.start).saturating_sub(*covered);
            }
        }
        by_layer
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .borrow()
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::from(id)),
                        ("name", Json::str(s.name)),
                        ("layer", Json::str(s.layer())),
                        ("start_us", Json::Num(s.start.as_secs_f64() * 1e6)),
                        ("end_us", Json::Num(s.end.as_secs_f64() * 1e6)),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("op", Json::from(s.op)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_ops_share_an_id() {
        let t = Tracer::enabled();
        t.set_op(1);
        t.span("workload:op", || {
            spin(Duration::from_millis(2));
            t.span("core.engine:prepare", || spin(Duration::from_millis(3)));
            t.span("core.engine:run", || spin(Duration::from_millis(4)));
        });
        t.set_op(2);
        t.span("workload:op", || spin(Duration::from_millis(1)));

        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!((spans[0].op, spans[1].op, spans[3].op), (1, 1, 2));
        assert_eq!(spans[1].layer(), "core.engine");

        let own = t.self_time_by_layer(|op| op == 1);
        let ms = |layer: &str| own[layer].as_secs_f64() * 1e3;
        assert!(
            (6.9..9.0).contains(&ms("core.engine")),
            "{}",
            ms("core.engine")
        );
        // The op's own 2 ms, not its 9 ms extent.
        assert!((1.9..4.0).contains(&ms("workload")), "{}", ms("workload"));
        assert!(t.self_time_by_layer(|op| op == 2)["workload"] >= Duration::from_millis(1));
    }

    #[test]
    fn a_disabled_tracer_times_but_records_nothing() {
        let t = Tracer::disabled();
        let (v, d) = t.timed("graph.store:apply", || {
            spin(Duration::from_millis(1));
            7
        });
        assert_eq!(v, 7);
        assert!(d >= Duration::from_millis(1));
        assert!(t.spans().is_empty());
    }
}
