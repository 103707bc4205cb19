//! The library workloads: one caller drives `AssertionSession` in a
//! closed loop (next job when the last returns), one job shape per
//! workload, `.threads(1)` and `SweepPolicy::Serial`.

use crate::host::{calibrate, probe_s};
use crate::report::{LayerTimes, Measured};
use crate::stats::{JobStatus, Tally};
use crate::trace::{maybe_span, ExecCounters, Recorder, TracingBackend};
use crate::{job_seed, Config};
use qassert::{
    AssertingCircuit, AssertionOutcome, AssertionSession, AssertionVerdict, ErrorReduction, Parity,
    SessionTelemetry, ShotPlan, StopReason, SuperpositionBasis, SweepPolicy,
};
use qcircuit::QuantumCircuit;
use qdevice::transpile::transpile;
use qdevice::Topology;
use qsim::{
    Backend, HybridBackend, PrefixRegistry, ProgramCache, StabilizerBackend, StatevectorBackend,
    TrajectoryBackend,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Program-cache capacity of the library workloads (the server's
/// default).
const CACHE_CAPACITY: usize = 512;

/// Shared state a workload's job sessions compile through.
pub struct Ctx {
    cache: ProgramCache,
    registry: Arc<PrefixRegistry>,
}

impl Ctx {
    fn new() -> Self {
        Ctx {
            cache: ProgramCache::new(CACHE_CAPACITY),
            registry: Arc::new(PrefixRegistry::new()),
        }
    }
}

/// A session configured as every library job configures it.
fn session<B: Backend>(
    backend: B,
    ctx: &Ctx,
    plan: ShotPlan,
    seed: u64,
) -> AssertionSession<'_, B> {
    AssertionSession::new(backend)
        .cache(&ctx.cache)
        .prefix_registry(Arc::clone(&ctx.registry))
        .shot_plan(plan)
        .threads(1)
        .sweep_policy(SweepPolicy::Serial)
        .seed(seed)
}

/// What one job returned.
pub type JobResult = Result<(Vec<AssertionOutcome>, SessionTelemetry), String>;

/// One library job shape.
pub trait Workload: Sized {
    /// The backend the jobs run on.
    type B: Backend;

    /// Builds the workload's inputs and backend (timed as set-up).
    fn new() -> Self;

    /// The backend jobs run on.
    fn backend(&self) -> &Self::B;

    /// Runs one job under `seed`.
    fn job<B: Backend>(
        &self,
        backend: &B,
        ctx: &Ctx,
        seed: u64,
        rec: Option<&Recorder>,
    ) -> JobResult;

    /// Computes the reference the output check compares against
    /// (benchmark work, not timed as set-up).
    fn prepare_check(&mut self) {}

    /// Whether a job's outcomes are correct.
    fn check(&self, outcomes: &[AssertionOutcome]) -> bool;

    /// Checks that must hold before anything is timed.
    fn precheck(&self, _ctx: &Ctx) -> Result<(), String> {
        Ok(())
    }

    /// Traced runs only: repeats, outside the job, the calls that a
    /// bundled public call (`AssertionSession::run`) makes internally,
    /// so its self time can be split into lower, plan and analyze.
    fn split<B: Backend>(
        &self,
        _backend: &B,
        _ctx: &Ctx,
        _seed: u64,
        _outcomes: &[AssertionOutcome],
        _rec: &Recorder,
    ) {
    }
}

/// Stable 64-bit FNV-1a digest of the outcomes' raw histograms.
fn counts_digest(outcomes: &[AssertionOutcome]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for o in outcomes {
        let mut pairs: Vec<(u64, u64)> = o.raw.counts.iter().collect();
        pairs.sort_unstable();
        eat(pairs.len() as u64);
        for (k, n) in pairs {
            eat(k);
            eat(n);
        }
    }
    h
}

/// The paper's pipeline on the `ibmqx4` model: Table 1, Table 2 and
/// Section 4.3 circuits, each transpiled, executed with sampled noise
/// for a fixed [`PAPER_SHOTS`] shots, and analyzed.
pub struct PaperNoisy {
    backend: TrajectoryBackend,
    topology: Topology,
    circuits: [AssertingCircuit; 3],
}

/// Shots per circuit. Table 1's filtering gain is small (exact model:
/// 5.7% raw, 4.7% filtered), so at 1024 shots sampling alone makes
/// "filtered below raw" fail in about 7 of 100,000 jobs; at 2048 the
/// chance is about 2 in 100,000,000, and the check stays strict.
const PAPER_SHOTS: u64 = 2048;

impl Workload for PaperNoisy {
    type B = TrajectoryBackend;

    fn new() -> Self {
        PaperNoisy {
            backend: TrajectoryBackend::new(qnoise::presets::ibmqx4()),
            topology: qdevice::presets::ibmqx4(),
            circuits: [
                qassert_bench::experiments::table1::circuit(),
                qassert_bench::experiments::table2::circuit(),
                qassert_bench::experiments::sec43::circuit(),
            ],
        }
    }

    fn backend(&self) -> &TrajectoryBackend {
        &self.backend
    }

    fn job<B: Backend>(
        &self,
        backend: &B,
        ctx: &Ctx,
        seed: u64,
        rec: Option<&Recorder>,
    ) -> JobResult {
        let session = session(backend, ctx, ShotPlan::Fixed(PAPER_SHOTS), seed);
        let mut outcomes = Vec::with_capacity(self.circuits.len());
        for ac in &self.circuits {
            let native = maybe_span(rec, "transpile", || transpile(ac.circuit(), &self.topology))
                .map_err(|e| e.to_string())?
                .circuit;
            let raw = maybe_span(rec, "run_circuit", || session.run_circuit(&native))
                .map_err(|e| e.to_string())?;
            let outcome = maybe_span(rec, "analyze", || session.analyze(raw, ac))
                .map_err(|e| e.to_string())?;
            outcomes.push(outcome);
        }
        Ok((outcomes, session.telemetry()))
    }

    /// The paper's claim per circuit: filtering on the assertion ancilla
    /// lowers the data error rate (Tables 1 and 2, checked as the
    /// `table1_filtering_reduces_error_rate` test checks it). The
    /// Section 4.3 data qubit is in `|+⟩`, so its readout has no error
    /// to filter; there the check is the Section 4.3 test's: the
    /// assertion fires at noise scale, above zero and far below the
    /// 50% a wrong state would give.
    fn check(&self, outcomes: &[AssertionOutcome]) -> bool {
        let [t1, t2, s43] = outcomes else {
            return false;
        };
        let reduces = |o: &AssertionOutcome, ac: &AssertingCircuit, ok: fn(u64) -> bool| {
            let r = ErrorReduction::compute(&o.raw.counts, &ac.assertion_clbits(), ok);
            r.filtered < r.raw
        };
        reduces(t1, &self.circuits[0], |key| (key >> 1) & 1 == 0)
            && reduces(t2, &self.circuits[1], |key| {
                (key >> 1) & 1 == (key >> 2) & 1
            })
            && s43.assertion_error_rate > 0.005
            && s43.assertion_error_rate < 0.35
    }
}

/// Width of the `clifford_wide` GHZ register.
pub const WIDE_QUBITS: usize = 256;

/// The `clifford_wide` plan: verdicts re-tested every 32 shots.
const WIDE_PLAN: ShotPlan = ShotPlan::Sequential {
    alpha: 0.05,
    min_shots: 32,
    max_shots: 1024,
    tranche: 32,
};

/// A wide ideal GHZ register on the stabilizer backend, with
/// entanglement assertions across the register ends and across a mid
/// pair, measuring the ancillas and three data qubits.
pub struct CliffordWide {
    backend: StabilizerBackend,
    circuit: AssertingCircuit,
}

fn wide_ghz(n: usize) -> AssertingCircuit {
    let mut base = QuantumCircuit::with_name("ghz_wide", n, 0);
    base.h(0).expect("valid qubit");
    for q in 0..n - 1 {
        base.cx(q, q + 1).expect("valid qubits");
    }
    let mut ac = AssertingCircuit::new(base);
    ac.assert_entangled([0, n - 1], Parity::Even)
        .expect("valid targets");
    ac.assert_entangled([n / 2 - 1, n / 2], Parity::Even)
        .expect("valid targets");
    for q in [0, n / 2, n - 1] {
        let c = ac.circuit_mut().add_clbit();
        ac.circuit_mut().measure(q, c).expect("valid measurement");
    }
    ac
}

/// Re-lowers (a cache hit) and re-analyzes one bundled run's inputs
/// in their own spans.
fn split_run<B: Backend>(
    backend: &B,
    ctx: &Ctx,
    plan: ShotPlan,
    seed: u64,
    ac: &AssertingCircuit,
    outcomes: &[AssertionOutcome],
    rec: &Recorder,
) {
    let session = session(backend, ctx, plan, seed);
    let _ = rec.span("lower", || session.lower(ac.circuit()));
    for o in outcomes {
        let raw = o.raw.clone();
        let _ = rec.span("analyze", || session.analyze(raw, ac));
    }
}

impl Workload for CliffordWide {
    type B = StabilizerBackend;

    fn new() -> Self {
        CliffordWide {
            backend: StabilizerBackend::ideal(),
            circuit: wide_ghz(WIDE_QUBITS),
        }
    }

    fn backend(&self) -> &StabilizerBackend {
        &self.backend
    }

    fn job<B: Backend>(
        &self,
        backend: &B,
        ctx: &Ctx,
        seed: u64,
        rec: Option<&Recorder>,
    ) -> JobResult {
        let session = session(backend, ctx, WIDE_PLAN, seed);
        let outcome =
            maybe_span(rec, "run", || session.run(&self.circuit)).map_err(|e| e.to_string())?;
        Ok((vec![outcome], session.telemetry()))
    }

    /// Ideal GHZ with even parity: the ancillas never fire, so every
    /// verdict is Holds.
    fn check(&self, outcomes: &[AssertionOutcome]) -> bool {
        outcomes.len() == 1
            && outcomes[0].verdicts.len() == 2
            && outcomes[0]
                .verdicts
                .iter()
                .all(|v| v.verdict == AssertionVerdict::Holds)
    }

    fn split<B: Backend>(
        &self,
        backend: &B,
        ctx: &Ctx,
        seed: u64,
        outcomes: &[AssertionOutcome],
        rec: &Recorder,
    ) {
        split_run(backend, ctx, WIDE_PLAN, seed, &self.circuit, outcomes, rec);
    }
}

/// Data qubits of the `hybrid_island` circuit scrambled by Clifford
/// layers (one more data qubit holds the asserted `|+⟩`).
const ISLAND_MIXED: usize = 11;
/// Clifford layer rounds before the island.
const ISLAND_ROUNDS: usize = 6;
/// Shots per `hybrid_island` job.
const ISLAND_SHOTS: u64 = 256;
/// Largest total-variation distance from the exact marginals a job's
/// counts may show. Sampling alone gives about 0.03 at 256 shots over
/// four outcomes.
const ISLAND_TVD_LIMIT: f64 = 0.15;

/// A Clifford-dominated instrumented circuit with a two-gate T island,
/// on the hybrid backend: tableau prefix, handoff to amplitudes,
/// amplitude suffix.
pub struct HybridIsland {
    backend: HybridBackend,
    circuit: AssertingCircuit,
    /// Exact probabilities of the two measured data bits.
    expected: Vec<f64>,
}

fn island_circuit() -> AssertingCircuit {
    let plus = ISLAND_MIXED;
    let mut base = QuantumCircuit::with_name("hybrid_island", ISLAND_MIXED + 1, 0);
    for _ in 0..ISLAND_ROUNDS {
        for q in 0..ISLAND_MIXED {
            base.h(q).expect("valid qubit");
        }
        for q in 0..ISLAND_MIXED - 1 {
            base.cx(q, q + 1).expect("valid qubits");
        }
        for q in 0..ISLAND_MIXED {
            base.s(q).expect("valid qubit");
        }
    }
    base.h(plus).expect("valid qubit");
    let mut ac = AssertingCircuit::new(base);
    ac.assert_superposition(plus, SuperpositionBasis::Plus)
        .expect("valid target");
    let c = ac.circuit_mut();
    c.t(0).expect("valid qubit");
    c.t(1).expect("valid qubit");
    c.h(0).expect("valid qubit");
    for q in 0..2 {
        let bit = c.add_clbit();
        c.measure(q, bit).expect("valid measurement");
    }
    ac
}

/// Exact distribution of qubits 0 and 1 of `circuit` with its
/// measurements stripped, from the full statevector (as the hybrid
/// equivalence suite computes it). Valid here because the only
/// mid-circuit measurement is of an ancilla that ends in `|0⟩`.
fn exact_two_bit_marginals(circuit: &QuantumCircuit) -> Vec<f64> {
    let mut unmeasured = QuantumCircuit::new(circuit.num_qubits(), 0);
    for instr in circuit.instructions() {
        if let qcircuit::OpKind::Gate(g) = instr.kind() {
            unmeasured
                .gate(*g, instr.qubits().iter().copied())
                .expect("gate copies onto the same width");
        }
    }
    let psi = StatevectorBackend::new()
        .statevector(&unmeasured)
        .expect("13 qubits fit the statevector");
    let mut probs = vec![0.0; 4];
    for (idx, amp) in psi.amplitudes().iter().enumerate() {
        probs[idx & 0b11] += amp.norm_sqr();
    }
    probs
}

impl Workload for HybridIsland {
    type B = HybridBackend;

    fn new() -> Self {
        HybridIsland {
            backend: HybridBackend::ideal(),
            circuit: island_circuit(),
            expected: Vec::new(),
        }
    }

    fn backend(&self) -> &HybridBackend {
        &self.backend
    }

    fn job<B: Backend>(
        &self,
        backend: &B,
        ctx: &Ctx,
        seed: u64,
        rec: Option<&Recorder>,
    ) -> JobResult {
        let session = session(backend, ctx, ShotPlan::Fixed(ISLAND_SHOTS), seed);
        let outcome =
            maybe_span(rec, "run", || session.run(&self.circuit)).map_err(|e| e.to_string())?;
        Ok((vec![outcome], session.telemetry()))
    }

    fn prepare_check(&mut self) {
        self.expected = exact_two_bit_marginals(self.circuit.circuit());
    }

    /// The ancilla never fires (`|+⟩` is exact) and the two data bits
    /// land within [`ISLAND_TVD_LIMIT`] of the exact marginals.
    fn check(&self, outcomes: &[AssertionOutcome]) -> bool {
        let [o] = outcomes else { return false };
        let total = o.raw.counts.total() as f64;
        let mut seen = [0.0f64; 4];
        for (key, n) in o.raw.counts.iter() {
            seen[((key >> 1) & 0b11) as usize] += n as f64 / total;
        }
        let tvd: f64 = seen
            .iter()
            .zip(&self.expected)
            .map(|(s, e)| (s - e).abs())
            .sum::<f64>()
            / 2.0;
        o.per_assertion.iter().all(|a| a.fired == 0) && tvd <= ISLAND_TVD_LIMIT
    }

    /// The handoff must actually run: the lowered program carries a
    /// hybrid plan the cost model judged profitable.
    fn precheck(&self, ctx: &Ctx) -> Result<(), String> {
        let program = session(&self.backend, ctx, ShotPlan::Fixed(ISLAND_SHOTS), 0)
            .lower(self.circuit.circuit())
            .map_err(|e| e.to_string())?;
        if program.hybrid().map(|p| p.profitable()) == Some(true) {
            Ok(())
        } else {
            Err("hybrid_island: the program has no profitable hybrid plan".to_string())
        }
    }

    fn split<B: Backend>(
        &self,
        backend: &B,
        ctx: &Ctx,
        seed: u64,
        outcomes: &[AssertionOutcome],
        rec: &Recorder,
    ) {
        let plan = ShotPlan::Fixed(ISLAND_SHOTS);
        split_run(backend, ctx, plan, seed, &self.circuit, outcomes, rec);
    }
}

/// Per-job figures every library workload reports.
#[derive(Default)]
struct JobFigures {
    shots: u64,
    verdicts: u64,
    tranches: u64,
    runs: u64,
    early_stops: u64,
    kept: u64,
    recorded: u64,
    telemetry: SessionTelemetry,
}

impl JobFigures {
    fn add(&mut self, outcomes: &[AssertionOutcome], telemetry: &SessionTelemetry) {
        for o in outcomes {
            self.shots += o.plan.shots_used;
            self.verdicts += o.verdicts.len() as u64;
            self.tranches += o.plan.tranches;
            self.runs += 1;
            self.early_stops += u64::from(o.plan.stop == StopReason::Decided);
            self.kept += o.shots_kept();
            self.recorded += o.raw.counts.total();
        }
        self.telemetry.merge(telemetry);
    }
}

fn status<W: Workload>(w: &W, result: &JobResult) -> JobStatus {
    match result {
        Err(_) => JobStatus::Error,
        Ok((outcomes, _)) if w.check(outcomes) => JobStatus::Ok,
        Ok(_) => JobStatus::Wrong,
    }
}

/// Runs workload `W` for one benchmark invocation.
pub fn run<W: Workload>(cfg: &Config, tail_cap: f64) -> Measured {
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let mut prepared = None;
    probe_s(); // first touch of the probe's buffer
    for rep in 0..crate::SETUP_REPS {
        let t0 = Instant::now();
        let w = W::new();
        let ctx = Ctx::new();
        let warm = w.job(w.backend(), &ctx, job_seed(cfg.seed, u64::MAX - rep), None);
        let took = t0.elapsed().as_secs_f64();
        raw_setups.push(took);
        setups.push(calibrate(took, probe_s()));
        if let Err(e) = warm {
            return Measured::broken(format!("warm-up job failed: {e}"));
        }
        prepared = Some((w, ctx));
    }
    let (mut w, ctx) = prepared.expect("at least one set-up");
    let setup_s = crate::stats::median(&setups);
    w.prepare_check();
    if let Err(why) = w.precheck(&ctx) {
        return Measured::broken(why);
    }

    // Reproducibility: one fixed seed gives one counts digest.
    let digest_of = || {
        w.job(w.backend(), &ctx, job_seed(cfg.seed, 0), None)
            .map(|(o, _)| counts_digest(&o))
    };
    let (first, again) = match (digest_of(), digest_of()) {
        (Ok(a), Ok(b)) => (a, b),
        _ => return Measured::broken("reproducibility job failed".to_string()),
    };
    if first != again {
        return Measured::broken(format!(
            "seeded job not reproducible: {first:x} vs {again:x}"
        ));
    }

    let mut m = Measured::new(setup_s, tail_cap);
    m.note(format!("counts_digest={first:016x}"));
    m.note(format!("raw_setup_s={}", crate::stats::median(&raw_setups)));
    if cfg.trace {
        traced_loop(&w, &ctx, cfg, &mut m);
    } else {
        untraced_loop(&w, &ctx, cfg, &mut m);
    }
    m
}

/// Closed loop for the end-to-end metrics. A host-speed probe runs
/// between consecutive jobs, and each job's latency is calibrated by
/// the mean of the probes either side of it (see [`crate::host`]); the
/// raw figures go to the context line.
fn untraced_loop<W: Workload>(w: &W, ctx: &Ctx, cfg: &Config, m: &mut Measured) {
    let mut figures = JobFigures::default();
    let mut tally = Tally::default();
    let (mut raw, mut latencies, mut probes) = (Vec::new(), Vec::new(), Vec::new());
    let window = Duration::from_secs_f64(cfg.seconds);
    let mut before = probe_s();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < window {
        let t0 = Instant::now();
        let result = w.job(w.backend(), ctx, job_seed(cfg.seed, i), None);
        let took = t0.elapsed().as_secs_f64();
        let after = probe_s();
        raw.push(took);
        probes.push(after);
        latencies.push(calibrate(took, (before + after) / 2.0));
        before = after;
        let st = status(w, &result);
        tally.record(st);
        if let (JobStatus::Ok, Ok((outcomes, telemetry))) = (st, &result) {
            figures.add(outcomes, telemetry);
        }
        i += 1;
    }
    let ok_jobs = (tally.attempted - tally.failed()) as f64;
    // The caller is busy exactly for the sum of the job latencies; the
    // calibrated sum is that busy time at reference speed.
    let busy: f64 = latencies.iter().sum();
    m.note(format!(
        "raw_jobs_per_s={} raw_latency_p50_ms={} probe_p50_us={}",
        ok_jobs / raw.iter().sum::<f64>(),
        crate::stats::median(&raw) * 1e3,
        crate::stats::median(&probes) * 1e6
    ));
    m.tally = tally;
    m.latencies = latencies;
    m.jobs_per_s = ok_jobs / busy;
    m.shots_per_s = figures.shots as f64 / busy;
    m.shots_per_verdict = figures.shots as f64 / figures.verdicts.max(1) as f64;
    // One closed-loop caller: an offered rate above its completion
    // rate builds an unbounded backlog, so the completion rate is the
    // highest rate the library sustains for that caller.
    m.max_rate_jobs_s = m.jobs_per_s;
}

/// Traced run: jobs alternate untraced and traced, so host drift hits
/// both halves alike and their latency ratio is the tracing overhead.
fn traced_loop<W: Workload>(w: &W, ctx: &Ctx, cfg: &Config, m: &mut Measured) {
    let rec = Recorder::new();
    let counters = ExecCounters::default();
    let traced = TracingBackend::new(w.backend(), &rec, &counters);
    let mut figures = JobFigures::default();
    let mut tally = Tally::default();
    let (mut plain_lat, mut traced_lat) = (Vec::new(), Vec::new());
    let window = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < window {
        let seed = job_seed(cfg.seed, i);
        let t0 = Instant::now();
        if i.is_multiple_of(2) {
            let result = w.job(w.backend(), ctx, seed, None);
            plain_lat.push(t0.elapsed().as_secs_f64());
            tally.record(status(w, &result));
        } else {
            rec.set_job(i);
            let result = rec.span("job", || w.job(&traced, ctx, seed, Some(&rec)));
            traced_lat.push(t0.elapsed().as_secs_f64());
            let st = status(w, &result);
            tally.record(st);
            if let (JobStatus::Ok, Ok((outcomes, telemetry))) = (st, &result) {
                figures.add(outcomes, telemetry);
                w.split(&traced, ctx, seed, outcomes, &rec);
            }
        }
        i += 1;
    }
    let spans = rec.spans();
    let jobs = traced_lat.len().max(1) as f64;
    let mut layers = LayerTimes::from_spans(&spans, jobs);
    let exec_shots = counters.shots.load(Ordering::Relaxed);
    let exec_calls = counters.calls.load(Ordering::Relaxed);
    let profitable = counters.profitable.load(Ordering::Relaxed);
    layers.exec_shots = exec_shots;
    layers.exec_calls_per_job = exec_calls as f64 / jobs;
    layers.profitable_frac = profitable as f64 / exec_calls.max(1) as f64;
    layers.busy_frac = layers.execute_ns_total / (traced_lat.iter().sum::<f64>() * 1e9);
    let t = &figures.telemetry;
    let lookups = (t.cache_hits + t.cache_misses).max(1) as f64;
    layers.cache_hit_frac = t.cache_hits as f64 / lookups;
    layers.prefix_hit_frac = t.prefix_hits as f64 / lookups;
    layers.tranches_per_job = figures.tranches as f64 / jobs;
    layers.early_stop_frac = figures.early_stops as f64 / figures.runs.max(1) as f64;
    layers.kept_frac = figures.kept as f64 / figures.recorded.max(1) as f64;
    layers.trace_overhead_frac =
        crate::stats::median(&traced_lat) / crate::stats::median(&plain_lat) - 1.0;
    m.tally = tally;
    m.spans = spans;
    m.layers = Some(layers);
}
