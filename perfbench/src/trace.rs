//! Benchmark-side tracing: spans recorded around calls into the
//! program's public functions, a forwarding [`Backend`] that times
//! execution, and the self-time computation.
//!
//! Spans stay in memory until the run ends and are then written out
//! as JSON lines. Nothing here changes the program under test: the
//! spans sit at the boundaries the benchmark itself calls across.

use qcircuit::QuantumCircuit;
use qsim::{
    Backend, BackendKind, CompileOptions, CompiledProgram, ProgramCache, RunResult, SimError,
};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The layer or public call the span covers.
    pub name: &'static str,
    /// The job the call belongs to.
    pub job: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

/// An in-memory span store. Spans nest by call order, so one recorder
/// serves one thread.
pub struct Recorder {
    origin: Instant,
    state: Mutex<State>,
}

impl Recorder {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            state: Mutex::new(State {
                spans: Vec::new(),
                open: Vec::new(),
                job: 0,
            }),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("span store poisoned by a panicking job")
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans recorded from now on with `job`.
    pub fn set_job(&self, job: u64) {
        self.state().job = job;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut st = self.state();
            let id = st.spans.len();
            let span = Span {
                name,
                job: st.job,
                parent: st.open.last().copied(),
                start_ns: self.now_ns(),
                end_ns: 0,
            };
            st.spans.push(span);
            st.open.push(id);
            id
        };
        let out = f();
        let end = self.now_ns();
        let mut st = self.state();
        let top = st.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in the order they open");
        st.spans[id].end_ns = end;
        out
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }
}

/// `f` inside a span when tracing, plainly otherwise.
pub fn maybe_span<T>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(rec) => rec.span(name, f),
        None => f(),
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration_ns() - covered_ns(kids, span.start_ns, span.end_ns))
        .collect()
}

/// Self time summed per span name.
pub fn self_ns_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(span.name).or_insert(0) += own;
    }
    out
}

/// Writes `spans` as JSON lines (one span per line) to `path`,
/// creating its directory.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_spans(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.job, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Execution counters the forwarding backend keeps.
#[derive(Debug, Default)]
pub struct ExecCounters {
    /// Execution calls.
    pub calls: AtomicU64,
    /// Shots requested across those calls.
    pub shots: AtomicU64,
    /// Calls whose program carried a profitable hybrid plan.
    pub profitable: AtomicU64,
}

/// A forwarding [`Backend`]: every method goes to `inner`; execution
/// calls are additionally wrapped in an `execute` span and counted.
pub struct TracingBackend<'r, B> {
    inner: B,
    rec: &'r Recorder,
    counters: &'r ExecCounters,
}

impl<'r, B: Backend> TracingBackend<'r, B> {
    /// Wraps `inner`, recording into `rec` and counting into `counters`.
    pub fn new(inner: B, rec: &'r Recorder, counters: &'r ExecCounters) -> Self {
        TracingBackend {
            inner,
            rec,
            counters,
        }
    }

    fn execute(
        &self,
        program: &CompiledProgram,
        shots: u64,
        f: impl FnOnce() -> Result<RunResult, SimError>,
    ) -> Result<RunResult, SimError> {
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        self.counters.shots.fetch_add(shots, Ordering::Relaxed);
        if program.hybrid().map(|p| p.profitable()) == Some(true) {
            self.counters.profitable.fetch_add(1, Ordering::Relaxed);
        }
        self.rec.span("execute", f)
    }
}

impl<B: Backend> Backend for TracingBackend<'_, B> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn noise_model(&self) -> Option<&qnoise::NoiseModel> {
        self.inner.noise_model()
    }

    fn compile_options(&self) -> CompileOptions {
        self.inner.compile_options()
    }

    fn compile(&self, circuit: &QuantumCircuit) -> Result<CompiledProgram, SimError> {
        self.inner.compile(circuit)
    }

    fn compile_cached(
        &self,
        circuit: &QuantumCircuit,
        cache: &ProgramCache,
    ) -> Result<Arc<CompiledProgram>, SimError> {
        self.inner.compile_cached(circuit, cache)
    }

    fn run_compiled(&self, program: &CompiledProgram, shots: u64) -> Result<RunResult, SimError> {
        self.execute(program, shots, || self.inner.run_compiled(program, shots))
    }

    fn run_compiled_threaded(
        &self,
        program: &CompiledProgram,
        shots: u64,
        threads: Option<usize>,
    ) -> Result<RunResult, SimError> {
        self.execute(program, shots, || {
            self.inner.run_compiled_threaded(program, shots, threads)
        })
    }

    fn run_compiled_seeded(
        &self,
        program: &CompiledProgram,
        shots: u64,
        seed: Option<u64>,
        threads: Option<usize>,
    ) -> Result<RunResult, SimError> {
        self.execute(program, shots, || {
            self.inner
                .run_compiled_seeded(program, shots, seed, threads)
        })
    }

    fn effective_threads(&self, requested: Option<usize>) -> Option<usize> {
        self.inner.effective_threads(requested)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            job: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("job", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),  // overlaps a by 10
            span("c", Some(0), 90, 120), // runs past the parent's end
            span("d", Some(1), 15, 25),
        ];
        let own = self_times_ns(&spans);
        // job: 100 - |[10,60) ∪ [90,100)| = 100 - 60 = 40.
        assert_eq!(own, vec![40, 20, 30, 30, 10]);
        let by_name = self_ns_by_name(&spans);
        assert_eq!(by_name["job"], 40);
        assert_eq!(by_name["a"], 20);
    }

    #[test]
    fn covered_merges_nested_and_disjoint_intervals() {
        assert_eq!(covered_ns(&mut [(0, 10), (2, 5), (20, 30)], 0, 100), 20);
        assert_eq!(covered_ns(&mut [(20, 30), (0, 10)], 5, 25), 10);
        assert_eq!(covered_ns(&mut [], 0, 10), 0);
    }

    #[test]
    fn recorder_nests_spans_by_call_order() {
        let rec = Recorder::new();
        rec.set_job(7);
        let v = rec.span("outer", || {
            rec.span("inner", || 3) + rec.span("inner", || 4)
        });
        assert_eq!(v, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.job == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }
}
