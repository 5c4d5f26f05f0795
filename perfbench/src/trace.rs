//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a layer, a start and end (nanoseconds since the tracer's
//! epoch), a parent and an op id shared by every span of one op. Spans are
//! kept in memory and analysed or written out when the run ends. While the
//! tracer is disabled, [`span`] costs one atomic load.
//!
//! A span's parent is the innermost open span on the same thread. Calls the
//! program makes on its own worker threads (the executor's pool, the probe
//! watchdog) have no open span on their thread; they take the *ambient*
//! parent, the op span the benchmark opened with [`open_op`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The layers spans are attributed to, named after the crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// The benchmark's own op span, outside every layer call it contains.
    Op,
    /// `trx-harness`: the pipeline's campaign stage (fuzzer, executor,
    /// checkpoint build) outside target calls and WAL appends.
    HarnessCampaign,
    /// `trx-harness`: the pipeline's reduction and dedup stage outside
    /// target calls and WAL appends.
    HarnessReduceStage,
    /// `trx-harness`: encoding and appending one WAL line.
    WalAppend,
    /// `trx-targets` + `trx-ir`: compiling and running a variant.
    TargetExecute,
    /// `trx-targets` + `trx-ir`: running a reference module.
    TargetReference,
    /// `trx-reducer` + `trx-core`: one reduction, outside its probes.
    Reducer,
    /// The interestingness probe closure, outside target calls.
    Probe,
    /// `trx-dedup`: keying one finding.
    DedupKey,
    /// `trx-dedup`: the recommendation over a round's keys.
    DedupRecommend,
    /// `trx-server`: a `Submit` round trip through the wire codec.
    WireSubmit,
    /// `trx-server`: a `Status` round trip.
    WireStatus,
    /// `trx-server`: a `Findings` round trip.
    WireFindings,
}

impl Layer {
    pub const ALL: [Layer; 13] = [
        Layer::Op,
        Layer::HarnessCampaign,
        Layer::HarnessReduceStage,
        Layer::WalAppend,
        Layer::TargetExecute,
        Layer::TargetReference,
        Layer::Reducer,
        Layer::Probe,
        Layer::DedupKey,
        Layer::DedupRecommend,
        Layer::WireSubmit,
        Layer::WireStatus,
        Layer::WireFindings,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "perfbench op",
            Layer::HarnessCampaign => "trx-harness campaign stage",
            Layer::HarnessReduceStage => "trx-harness reduce stage",
            Layer::WalAppend => "trx-harness wal append",
            Layer::TargetExecute => "trx-targets execute",
            Layer::TargetReference => "trx-targets reference",
            Layer::Reducer => "trx-reducer reduce",
            Layer::Probe => "trx-reducer probe",
            Layer::DedupKey => "trx-dedup key",
            Layer::DedupRecommend => "trx-dedup recommend",
            Layer::WireSubmit => "trx-server wire submit",
            Layer::WireStatus => "trx-server wire status",
            Layer::WireFindings => "trx-server wire findings",
        }
    }

    /// Position in [`Layer::ALL`], which lists the layers in declaration
    /// order.
    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span. Id 0 means "none" for `parent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    /// `(parent << 32) | op` for spans opened on threads with no open span.
    ambient: AtomicU64,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        next_id: AtomicU32::new(1),
        ambient: AtomicU64::new(0),
    })
}

thread_local! {
    /// Open spans on this thread, innermost last, as `(id, op)`.
    static STACK: RefCell<Vec<(u32, u32)>> = const { RefCell::new(Vec::new()) };
}

/// Turns recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    tracer().enabled.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    tracer().enabled.load(Ordering::Relaxed)
}

/// Nanoseconds since the tracer's epoch.
pub fn now_ns() -> u64 {
    u64::try_from(tracer().epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A fresh span id, for spans whose extent is known only later.
pub fn new_id() -> u32 {
    tracer().next_id.fetch_add(1, Ordering::Relaxed)
}

/// Adds a span whose start and end were taken elsewhere.
pub fn record(span: Span) {
    tracer()
        .spans
        .lock()
        .expect("span buffer poisoned")
        .push(span);
}

/// The `(parent, op)` a span opened on this thread now would get.
fn context() -> (u32, u32) {
    STACK
        .with(|stack| stack.borrow().last().copied())
        .unwrap_or_else(|| {
            let ambient = tracer().ambient.load(Ordering::Relaxed);
            ((ambient >> 32) as u32, ambient as u32)
        })
}

/// Closes its span when dropped, so a panic unwinding through a layer
/// call still leaves the thread's span stack balanced.
struct Open {
    id: u32,
    parent: u32,
    op: u32,
    layer: Layer,
    start: u64,
}

impl Drop for Open {
    fn drop(&mut self) {
        let end = now_ns();
        STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        record(Span {
            id: self.id,
            parent: self.parent,
            op: self.op,
            layer: self.layer,
            start: self.start,
            end,
        });
    }
}

fn open(layer: Layer, parent: u32, op: u32) -> Open {
    let id = new_id();
    let op = if op == 0 { id } else { op };
    STACK.with(|stack| stack.borrow_mut().push((id, op)));
    Open {
        id,
        parent,
        op,
        layer,
        start: now_ns(),
    }
}

/// Runs `f` inside a span of `layer` when tracing is on.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let (parent, op) = context();
    let _open = open(layer, parent, op);
    f()
}

/// Runs `f` inside a span of `layer` under an explicit parent and op, for
/// callers that interleave several ops on one thread.
pub fn span_under<R>(layer: Layer, parent: u32, op: u32, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let _open = open(layer, parent, op);
    f()
}

/// An op span that is also the ambient parent of spans on other threads
/// until it is dropped.
pub struct OpGuard {
    open: Option<Open>,
}

impl OpGuard {
    /// The op span's id (0 while tracing is off).
    pub fn id(&self) -> u32 {
        self.open.as_ref().map_or(0, |o| o.id)
    }
}

impl Drop for OpGuard {
    fn drop(&mut self) {
        if self.open.is_some() {
            tracer().ambient.store(0, Ordering::Relaxed);
        }
    }
}

/// Opens the root span of one op on this thread.
pub fn open_op() -> OpGuard {
    if !enabled() {
        return OpGuard { open: None };
    }
    let open = open(Layer::Op, 0, 0);
    tracer().ambient.store(
        (u64::from(open.id) << 32) | u64::from(open.id),
        Ordering::Relaxed,
    );
    OpGuard { open: Some(open) }
}

/// Takes every span recorded so far.
pub fn take_spans() -> Vec<Span> {
    std::mem::take(&mut *tracer().spans.lock().expect("span buffer poisoned"))
}

/// Moves every span whose parent is `parent` under whichever of `stages`
/// (spans that are themselves children of `parent`) contains its start.
pub fn nest(spans: &mut [Span], parent: u32, stages: &[Span]) {
    for span in spans.iter_mut() {
        if span.parent != parent || stages.iter().any(|s| s.id == span.id) {
            continue;
        }
        if let Some(stage) = stages
            .iter()
            .find(|s| s.start <= span.start && span.start < s.end)
        {
            span.parent = stage.id;
        }
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children's intervals cover. Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration() - covered.min(s.duration())
        })
        .collect()
}

/// Wall-clock seconds attributed to each layer, plus what no span covers.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTable {
    pub wall_s: f64,
    pub rows: Vec<(Layer, f64)>,
    pub unattributed_s: f64,
}

/// Splits the traced wall-clock `wall_ns` among layers. At each instant the
/// time goes to the innermost open spans (those with no open child),
/// shared equally when several run at once on different threads. On one
/// thread this is exactly each span's self time; with concurrent workers
/// a parent's share is still its duration minus the time its children
/// cover. Time inside no span is `unattributed`, so the rows and
/// `unattributed` sum to `wall_ns`.
pub fn layer_table(spans: &[Span], wall_ns: u64) -> LayerTable {
    let max_id = spans.iter().map(|s| s.id as usize).max().unwrap_or(0);
    let mut index = vec![usize::MAX; max_id + 1];
    for (i, s) in spans.iter().enumerate() {
        index[s.id as usize] = i;
    }
    let parent_of = |i: usize| -> Option<usize> {
        let p = spans[i].parent as usize;
        (p != 0 && p <= max_id && index[p] != usize::MAX).then(|| index[p])
    };
    // (time, 0 = start / 1 = end, span index); starts first at equal times.
    let mut events: Vec<(u64, u8, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        events.push((s.start, 0, i));
        events.push((s.end.max(s.start), 1, i));
    }
    events.sort_unstable();

    let layers = Layer::ALL.len();
    let mut leaves = vec![0u32; layers];
    let mut total_leaves = 0u32;
    let mut active = vec![false; spans.len()];
    let mut counted = vec![false; spans.len()];
    let mut open_children = vec![0u32; spans.len()];
    let mut attributed = vec![0f64; layers];
    let mut last = events.first().map_or(0, |e| e.0);
    for &(time, kind, i) in &events {
        if total_leaves > 0 && time > last {
            let dt = (time - last) as f64;
            for (layer, &n) in leaves.iter().enumerate() {
                if n > 0 {
                    attributed[layer] += dt * f64::from(n) / f64::from(total_leaves);
                }
            }
        }
        last = time;
        let layer = spans[i].layer.index();
        if kind == 0 {
            active[i] = true;
            if let Some(p) = parent_of(i).filter(|&p| active[p]) {
                if open_children[p] == 0 {
                    leaves[spans[p].layer.index()] -= 1;
                    total_leaves -= 1;
                }
                open_children[p] += 1;
                counted[i] = true;
            }
            leaves[layer] += 1;
            total_leaves += 1;
        } else {
            if open_children[i] == 0 {
                leaves[layer] -= 1;
                total_leaves -= 1;
            }
            active[i] = false;
            if let Some(p) = parent_of(i).filter(|&p| counted[i] && active[p]) {
                open_children[p] -= 1;
                if open_children[p] == 0 {
                    leaves[spans[p].layer.index()] += 1;
                    total_leaves += 1;
                }
            }
        }
    }
    let rows: Vec<(Layer, f64)> = Layer::ALL
        .iter()
        .map(|&l| (l, attributed[l.index()] / 1e9))
        .collect();
    let attributed_s: f64 = rows.iter().map(|r| r.1).sum();
    let wall_s = wall_ns as f64 / 1e9;
    LayerTable {
        wall_s,
        rows,
        unattributed_s: wall_s - attributed_s,
    }
}

/// Renders a layer table as aligned text, busiest layer first.
pub fn render_table(title: &str, table: &LayerTable) -> String {
    let mut rows: Vec<(String, f64)> = table
        .rows
        .iter()
        .filter(|r| r.1 > 0.0)
        .map(|(l, s)| (l.name().to_owned(), *s))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows.push(("unattributed".to_owned(), table.unattributed_s));
    let mut out = format!("{title}\n{:<30} {:>12} {:>8}\n", "layer", "self_s", "share");
    for (name, secs) in &rows {
        let share = if table.wall_s > 0.0 {
            100.0 * secs / table.wall_s
        } else {
            0.0
        };
        out.push_str(&format!("{name:<30} {secs:>12.6} {share:>7.2}%\n"));
    }
    out.push_str(&format!(
        "{:<30} {:>12.6} {:>7.2}%\n",
        "traced wall-clock", table.wall_s, 100.0
    ));
    out
}

/// Writes spans as CSV: `id,parent,op,layer,start_ns,end_ns,self_ns`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,op,layer,start_ns,end_ns,self_ns")?;
    for (s, self_ns) in spans.iter().zip(selfs) {
        writeln!(
            out,
            "{},{},{},{},{},{},{}",
            s.id,
            s.parent,
            s.op,
            s.layer.name(),
            s.start,
            s.end,
            self_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: Layer, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            layer,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, Layer::Op, 0, 100),
            span(2, 1, Layer::Reducer, 10, 60),
            span(3, 2, Layer::Probe, 20, 30),
            span(4, 2, Layer::Probe, 25, 40),
            span(5, 1, Layer::DedupKey, 70, 80),
        ];
        // Op: 100 - (50 + 10); reducer: 50 - union(20..40) = 30.
        assert_eq!(self_times(&spans), vec![40, 30, 10, 15, 10]);
    }

    #[test]
    fn single_thread_table_matches_self_times_and_sums_to_wall() {
        let spans = [
            span(1, 0, Layer::Op, 0, 100),
            span(2, 1, Layer::Reducer, 10, 60),
            span(3, 2, Layer::Probe, 20, 40),
            span(4, 1, Layer::DedupKey, 70, 80),
        ];
        let table = layer_table(&spans, 120);
        let get = |l: Layer| table.rows.iter().find(|r| r.0 == l).unwrap().1;
        assert!((get(Layer::Op) - 40e-9).abs() < 1e-15);
        assert!((get(Layer::Reducer) - 30e-9).abs() < 1e-15);
        assert!((get(Layer::Probe) - 20e-9).abs() < 1e-15);
        assert!((get(Layer::DedupKey) - 10e-9).abs() < 1e-15);
        assert!((table.unattributed_s - 20e-9).abs() < 1e-15);
        let sum: f64 = table.rows.iter().map(|r| r.1).sum::<f64>() + table.unattributed_s;
        assert!((sum - table.wall_s).abs() < 1e-15);
    }

    #[test]
    fn concurrent_children_share_the_wall_clock() {
        // Two worker-thread calls under one op overlap for 20 ns.
        let spans = [
            span(1, 0, Layer::Op, 0, 100),
            span(2, 1, Layer::TargetExecute, 10, 50),
            span(3, 1, Layer::TargetExecute, 30, 70),
        ];
        let table = layer_table(&spans, 100);
        let get = |l: Layer| table.rows.iter().find(|r| r.0 == l).unwrap().1;
        // The op keeps only the time no child covers: 100 - 60.
        assert!((get(Layer::Op) - 40e-9).abs() < 1e-15);
        assert!((get(Layer::TargetExecute) - 60e-9).abs() < 1e-15);
        assert!(table.unattributed_s.abs() < 1e-15);
    }

    #[test]
    fn nest_moves_children_into_the_stage_that_contains_them() {
        let mut spans = vec![
            span(1, 0, Layer::Op, 0, 100),
            span(2, 1, Layer::TargetExecute, 10, 20),
            span(3, 1, Layer::WalAppend, 60, 70),
        ];
        let stages = [
            span(4, 1, Layer::HarnessCampaign, 0, 50),
            span(5, 1, Layer::HarnessReduceStage, 50, 100),
        ];
        nest(&mut spans, 1, &stages);
        assert_eq!(spans[1].parent, 4);
        assert_eq!(spans[2].parent, 5);
        assert_eq!(spans[0].parent, 0);
    }
}
