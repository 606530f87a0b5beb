//! Benchmark-owned tracing. [`Traced`] wraps any [`Transport`] and records
//! one span per call at the layer boundary it sits on; the benchmark adds
//! op spans and write-stage spans around its own calls into the library.
//! Spans stay in memory until the run ends, then [`Recorder::write_json`]
//! dumps them and [`Recorder::layer_times`] turns them into busy and self
//! times (a span's self time is its duration minus the part of it that its
//! children cover).

use ssx_core::protocol::{Request, Response, ResponseView};
use ssx_core::transport::{PendingCall, Transport, TransportStats};
use ssx_core::CoreError;
use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The boundaries a span can sit on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One benchmark op (query, aggregate or write), recorded by the run loop.
    Op,
    /// A call into the client's top transport: the router boundary.
    Router,
    /// A call into one per-shard (or per-party) transport below the router.
    Leg,
    /// `encode_document_at` inside a write op.
    Encode,
    /// `insert_rows` / `delete_pres` inside a write op: the store waves.
    Apply,
    /// The WAL append inside a write op.
    Wal,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Router => "router",
            Layer::Leg => "leg",
            Layer::Encode => "encode",
            Layer::Apply => "store.apply",
            Layer::Wal => "store.wal",
        }
    }
}

/// One recorded interval, in nanoseconds since the recorder was created.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Id of the benchmark op the span belongs to (0 = set-up/warm-up).
    pub op: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    op: u64,
    open_op: Option<usize>,
    open_router: Option<usize>,
}

/// In-memory span store shared by every [`Traced`] wrapper of one stack.
pub struct Recorder {
    epoch: Instant,
    state: Mutex<State>,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("span recorder poisoned by a panic")
    }

    /// Opens a span; the parent is the open op for router and write-stage
    /// spans, and the open router call for leg spans (legs of one wave may
    /// run on several threads at once).
    pub fn begin(&self, layer: Layer) -> usize {
        let start = self.now();
        let mut st = self.lock();
        let parent = match layer {
            Layer::Op => None,
            Layer::Leg => st.open_router.or(st.open_op),
            _ => st.open_op,
        };
        if layer == Layer::Op {
            st.op += 1;
        }
        let id = st.spans.len();
        let op = st.op;
        st.spans.push(Span {
            layer,
            start,
            end: start,
            parent,
            op,
        });
        match layer {
            Layer::Op => st.open_op = Some(id),
            Layer::Router => st.open_router = Some(id),
            _ => {}
        }
        id
    }

    pub fn end(&self, id: usize) {
        let end = self.now();
        let mut st = self.lock();
        st.spans[id].end = end;
        match st.spans[id].layer {
            Layer::Op => st.open_op = None,
            Layer::Router => st.open_router = None,
            _ => {}
        }
    }

    /// Forgets every span recorded so far (set-up and warm-up traffic).
    pub fn clear(&self) {
        *self.lock() = State::default();
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{sep}",
                s.layer.name(),
                s.start,
                s.end,
                s.op
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }

    /// Busy and self time per layer, summed over all spans.
    pub fn layer_times(&self) -> LayerTimes {
        let spans = self.spans();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut t = LayerTimes::default();
        for (i, s) in spans.iter().enumerate() {
            let busy = s.end - s.start;
            match s.layer {
                Layer::Op => {
                    // Client self time: the op minus its router calls. Write
                    // ops are left out; their stages have spans of their own.
                    let write = children[i].iter().any(|&c| spans[c].layer == Layer::Apply);
                    if !write {
                        let routed = covered(&spans, &children[i], Layer::Router);
                        t.read_op_self_ns += busy - routed;
                        t.read_ops += 1;
                    }
                }
                Layer::Router => {
                    let legs = covered(&spans, &children[i], Layer::Leg);
                    t.router_ns += busy;
                    t.router_calls += 1;
                    t.router_self_ns += busy - legs;
                    t.leg_ns += legs;
                }
                Layer::Leg => {}
                Layer::Encode => t.encode_ns += busy,
                Layer::Apply => t.apply_ns += busy,
                Layer::Wal => t.wal_ns += busy,
            }
        }
        t
    }
}

/// Length of the union of the `layer` children's intervals.
fn covered(spans: &[Span], children: &[usize], layer: Layer) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&c| spans[c])
        .filter(|s| s.layer == layer)
        .map(|s| (s.start, s.end))
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Per-layer sums derived from the spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTimes {
    pub read_ops: u64,
    pub read_op_self_ns: u64,
    pub router_calls: u64,
    pub router_ns: u64,
    pub router_self_ns: u64,
    /// Time inside router calls during which at least one leg was in
    /// flight (legs of one wave may overlap).
    pub leg_ns: u64,
    pub encode_ns: u64,
    pub apply_ns: u64,
    pub wal_ns: u64,
}

/// Runs `f` inside a span when a recorder is attached.
pub fn span<R>(rec: Option<&Recorder>, layer: Layer, f: impl FnOnce() -> R) -> R {
    match rec {
        None => f(),
        Some(rec) => {
            let id = rec.begin(layer);
            let out = f();
            rec.end(id);
            out
        }
    }
}

/// A [`Transport`] that forwards every trait method to `inner` and, when a
/// recorder is attached, records a span per call on its layer.
pub struct Traced<T> {
    inner: T,
    layer: Layer,
    rec: Option<Arc<Recorder>>,
    /// Spans of pipelined calls still in flight, oldest first.
    in_flight: VecDeque<usize>,
}

impl<T> Traced<T> {
    pub fn new(inner: T, layer: Layer, rec: Option<Arc<Recorder>>) -> Self {
        Traced {
            inner,
            layer,
            rec,
            in_flight: VecDeque::new(),
        }
    }

    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Transport> Transport for Traced<T> {
    fn call(&mut self, req: &Request) -> Result<Response, CoreError> {
        span(self.rec.as_deref(), self.layer, || self.inner.call(req))
    }

    fn call_batch(&mut self, reqs: &[Request]) -> Result<Vec<Response>, CoreError> {
        span(self.rec.as_deref(), self.layer, || {
            self.inner.call_batch(reqs)
        })
    }

    fn call_with(
        &mut self,
        req: &Request,
        sink: &mut dyn FnMut(ResponseView<'_>) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        span(self.rec.as_deref(), self.layer, || {
            self.inner.call_with(req, sink)
        })
    }

    fn pipelines(&self) -> bool {
        self.inner.pipelines()
    }

    fn call_pipelined(&mut self, req: &Request) -> Result<PendingCall, CoreError> {
        let id = self.rec.as_ref().map(|rec| rec.begin(self.layer));
        let out = self.inner.call_pipelined(req);
        match (&self.rec, id) {
            (Some(rec), Some(id)) if out.is_err() => rec.end(id),
            (_, Some(id)) => self.in_flight.push_back(id),
            _ => {}
        }
        out
    }

    fn finish_pipelined(&mut self, call: PendingCall) -> Result<Response, CoreError> {
        let out = self.inner.finish_pipelined(call);
        if let (Some(rec), Some(id)) = (&self.rec, self.in_flight.pop_front()) {
            rec.end(id);
        }
        out
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn set_call_budget(&mut self, budget: Option<Duration>) {
        self.inner.set_call_budget(budget);
    }
}
