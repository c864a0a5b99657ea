//! In-memory spans for the traced run: name, start, end, parent. Recorded
//! from the harness's own code around the calls into each layer, held in
//! memory, and written out once when the benchmark ends.

use crate::json::Value;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Spans {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; its id is the handle for [`Spans::close`] and for
    /// children's `parent`.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close a span and return its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end;
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Time `f` under a span.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent);
        let r = f();
        (r, self.close(id))
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::obj([
                        ("id", Value::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("name", Value::Str(s.name.clone())),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}
