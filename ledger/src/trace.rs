//! Harness-side spans around every call into a layer, and the self-time
//! arithmetic that turns them into a ledger row.
//!
//! Spans are recorded from here, around public entry points; spans
//! *inside* the program are a later issue. A request is decomposed by
//! executing it through each nested entry point in turn (`NetClient::call`,
//! then `Server::submit_wait`, then `Runtime::eval`, …), so a child span is
//! a re-execution of the inner entry point on the same request, not a
//! slice of its parent's wall-clock interval. A span's self time is
//! therefore its duration minus its children's *durations* — a
//! subtraction, and labelled as one wherever it is printed.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// The crate a span's time is booked to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Net,
    Serve,
    Runtime,
    Opt,
    Ir,
    Vm,
}

pub const LAYERS: [Layer; 6] = [
    Layer::Net,
    Layer::Serve,
    Layer::Runtime,
    Layer::Opt,
    Layer::Ir,
    Layer::Vm,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Net => "net",
            Layer::Serve => "serve",
            Layer::Runtime => "runtime",
            Layer::Opt => "opt",
            Layer::Ir => "ir",
            Layer::Vm => "vm",
        }
    }
}

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub parent: Option<SpanId>,
    /// Index of the request in the traced sample.
    pub request: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store; written out once, when the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span and return its result with the span's id.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        parent: Option<SpanId>,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let nanos = |t: Instant| u64::try_from((t - self.epoch).as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(Span {
            name,
            layer,
            parent,
            request,
            start_ns: nanos(start),
            end_ns: nanos(end),
        });
        (out, self.spans.len() - 1)
    }

    /// One JSON object per line: name, layer, start, end, parent, request.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = obj([
                ("id", Json::from(id)),
                ("name", s.name.into()),
                ("layer", s.layer.name().into()),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("request", s.request.into()),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// The ledger row of a traced sample: total self time per layer and the
/// total of the top spans, in nanoseconds. Signed: on a single request
/// noise can make a re-executed child outlast its parent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerRow {
    pub self_ns: BTreeMap<Layer, i128>,
    pub top_ns: i128,
    pub requests: usize,
}

impl LedgerRow {
    /// The invariant the ledger is built on: the layers account for the
    /// top spans exactly, because every child is subtracted from exactly
    /// one parent and added to exactly one layer.
    pub fn balances(&self) -> bool {
        self.self_ns.values().sum::<i128>() == self.top_ns
    }

    /// Mean self time of `layer` per request, µs.
    pub fn self_us(&self, layer: Layer) -> f64 {
        self.self_ns.get(&layer).copied().unwrap_or(0) as f64 / 1e3 / self.requests.max(1) as f64
    }

    pub fn top_us(&self) -> f64 {
        self.top_ns as f64 / 1e3 / self.requests.max(1) as f64
    }

    pub fn share(&self, layer: Layer) -> f64 {
        self.self_ns.get(&layer).copied().unwrap_or(0) as f64 / self.top_ns.max(1) as f64
    }
}

pub fn ledger_row(spans: &[Span]) -> LedgerRow {
    let mut self_ns: Vec<i128> = spans.iter().map(|s| i128::from(s.nanos())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p] -= i128::from(s.nanos());
        }
    }
    let mut by_layer: BTreeMap<Layer, i128> = LAYERS.iter().map(|l| (*l, 0)).collect();
    for (s, own) in spans.iter().zip(&self_ns) {
        *by_layer.entry(s.layer).or_insert(0) += own;
    }
    let tops = spans.iter().filter(|s| s.parent.is_none());
    LedgerRow {
        self_ns: by_layer,
        top_ns: tops.clone().map(|s| i128::from(s.nanos())).sum(),
        requests: tops.count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        layer: Layer,
        parent: Option<SpanId>,
        start: u64,
        end: u64,
    ) -> Span {
        Span {
            name,
            layer,
            parent,
            request: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_sums_to_the_top() {
        let spans = vec![
            span("net.call", Layer::Net, None, 0, 100),
            span("serve.submit_wait", Layer::Serve, Some(0), 200, 260),
            span("runtime.eval", Layer::Runtime, Some(1), 300, 330),
            span("ir.digest", Layer::Ir, Some(2), 400, 405),
            span("vm.run_verified", Layer::Vm, Some(2), 500, 510),
            // A second request whose re-executed child outlasts its parent.
            span("net.call", Layer::Net, None, 1000, 1010),
            span("serve.submit_wait", Layer::Serve, Some(5), 1100, 1115),
        ];
        let row = ledger_row(&spans);
        assert_eq!(row.requests, 2);
        assert_eq!(row.top_ns, 110);
        assert_eq!(row.self_ns[&Layer::Net], 40 - 5);
        assert_eq!(row.self_ns[&Layer::Serve], 30 + 15);
        assert_eq!(row.self_ns[&Layer::Runtime], 15);
        assert_eq!(row.self_ns[&Layer::Ir], 5);
        assert_eq!(row.self_ns[&Layer::Vm], 10);
        assert_eq!(row.self_ns[&Layer::Opt], 0);
        assert!(row.balances());
        assert_eq!(row.top_us(), 0.055);
    }

    #[test]
    fn recorder_nests_and_writes_one_line_per_span() {
        let mut rec = Recorder::new();
        let ((), top) = rec.span("runtime.eval", Layer::Runtime, None, 3, || {});
        let (x, child) = rec.span("vm.run_verified", Layer::Vm, Some(top), 3, || 7);
        assert_eq!((x, top, child), (7, 0, 1));
        assert!(rec.spans[1].start_ns >= rec.spans[0].end_ns);
        let path =
            crate::stamp::artifact_dir().join(format!("trace-test-{}.jsonl", std::process::id()));
        rec.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("request").and_then(Json::as_f64), Some(3.0));
    }
}
