//! The benchmark's own spans, recorded around calls into the program's
//! public functions (never inside the program).
//!
//! Each client thread owns one [`Tracer`]. A span records its name, start,
//! end, parent and the operation it belongs to; spans stay in memory and
//! are written out as JSON lines when the run ends. A span's self time is
//! its duration minus the time its children cover (children of one
//! thread never overlap).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;
use vdm_obs::util::json_string;

/// One finished span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has begun and not yet ended.
pub struct Open {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    start_ns: u64,
}

/// Per-thread span recorder. When off, [`Tracer::span`] only runs its
/// closure, so traced and untraced runs share one code path.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    lane: u64,
    next: u64,
    op: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for client thread `lane`; span ids are unique across
    /// lanes that share `epoch`.
    pub fn new(on: bool, epoch: Instant, lane: u64) -> Tracer {
        Tracer { on, epoch, lane, next: 0, op: 0, stack: Vec::new(), spans: Vec::new() }
    }

    /// Sets the operation later spans belong to (before a root span).
    pub fn set_op(&mut self, op: u64) {
        debug_assert!(self.stack.is_empty(), "operation changed inside a span");
        self.op = op;
    }

    /// Opens a span as a child of the innermost open one (a root when
    /// none is open); `None` when the tracer is off.
    pub fn begin(&mut self, name: &'static str) -> Option<Open> {
        if !self.on {
            return None;
        }
        let id = (self.lane << 40) | self.next;
        self.next += 1;
        let open = Open { name, id, parent: self.stack.last().copied(), start_ns: self.now() };
        self.stack.push(id);
        Some(open)
    }

    /// Closes the innermost open span, which must be `open`.
    pub fn end(&mut self, open: Option<Open>) {
        let Some(open) = open else { return };
        let end_ns = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.id), "span {} closed out of order", open.name);
        self.spans.push(Span {
            name: open.name,
            op: self.op,
            id: open.id,
            parent: open.parent,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let open = self.begin(name);
        let out = f(self);
        self.end(open);
        out
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *covered.entry(p).or_default() += s.nanos();
        }
    }
    spans
        .iter()
        .map(|s| (s.id, s.nanos().saturating_sub(covered.get(&s.id).copied().unwrap_or(0))))
        .collect()
}

/// Self times in microseconds of the spans named `name`.
pub fn self_us(spans: &[Span], selfs: &HashMap<u64, u64>, name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| selfs[&s.id] as f64 / 1e3).collect()
}

/// Root self time over root total time, summed over all root spans.
pub fn unattributed_frac(spans: &[Span], selfs: &HashMap<u64, u64>) -> f64 {
    let (mut own, mut total) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        own += selfs[&s.id];
        total += s.nanos();
    }
    if total == 0 {
        0.0
    } else {
        own as f64 / total as f64
    }
}

/// JSON lines, one span each, in start order.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut ordered: Vec<&Span> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = String::new();
    for s in ordered {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\": {}, \"op\": {}, \"id\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
            json_string(s.name),
            s.op,
            s.id,
            s.start_ns,
            s.end_ns
        );
    }
    out
}
