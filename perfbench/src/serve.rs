//! `serve_stream`: an in-process `qassert-serve` server driven open
//! loop. Jobs arrive on a seeded schedule at fixed offered rates; at
//! most [`SENDERS`] threads send them, each on a fresh connection as
//! the wire protocol requires. Latency runs from each job's *due*
//! time, so a stall is charged to every job it delays.
//!
//! Every job is the same GHZ-3 shape with an entanglement and a
//! superposition assertion under a sequential plan, plus a seeded `rz`
//! angle on `q[2]`. The angle leaves both assertions' outcome
//! distributions unchanged, so every job costs the same, but it changes
//! the circuit's structural hash, so every job misses the program
//! cache.

use crate::host::{calibrate, probe_s};
use crate::report::{LayerTimes, Measured};
use crate::stats::{self, open_loop_sample, JobStatus, Tally};
use crate::trace::{maybe_span, ExecCounters, Recorder, TracingBackend};
use crate::{job_seed, Config, Draws};
use qassert::{AssertionOutcome, AssertionSession, StopReason};
use qassert_serve::protocol::outcome_records;
use qassert_serve::{JobSpec, Server, ServerConfig, Value};
use qsim::{Backend, StatevectorBackend};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Sender threads (and so at most this many open connections).
const SENDERS: usize = 2;
/// Offered rate of the main window, in jobs/s: a third or less of the
/// capacity in every host phase, so queueing stays small.
const MAIN_RATE: f64 = 150.0;
/// Offered rates tried for `max_rate_jobs_s`, ascending. On a 2-vCPU
/// Xeon host the capacity moves with the host's speed phase: 300
/// jobs/s passed in fast phases (p95 13–19 ms) and failed in slow ones,
/// while 150 passed (p95 9–27 ms) and 600 failed in every phase seen.
/// Steps of 4× keep the capacity between two rungs in every phase, so
/// the result does not flip between neighbouring rungs from run to run.
const LADDER: [f64; 4] = [50.0, 150.0, 600.0, 2400.0];
/// Share of the run spent in the main window; the ladder splits the
/// rest evenly.
const MAIN_SHARE: f64 = 0.7;
/// Latency limit on a rung's p95 latency, in seconds.
const LATENCY_LIMIT: f64 = 0.050;
/// Main-window sends later than this behind their due time are
/// abandoned and count as failed: the backlog would only keep growing.
const GIVE_UP_AFTER: f64 = 2.0;
/// Sequential warm-up jobs in each set-up. Each waits for the accept
/// loop's next poll, so one job's set-up time is mostly that wait;
/// several average it.
const WARM_JOBS: u64 = 8;
/// Traced runs poll `/healthz` after every this many jobs of sender 0.
const HEALTH_EVERY: usize = 25;
/// Seconds between host-speed probes while senders run.
const PROBE_EVERY: f64 = 0.1;

const JOB_PLAN: &str =
    r#"{"sequential": {"alpha": 0.05, "min_shots": 64, "max_shots": 1024, "tranche": 64}}"#;

/// The job document of job `i` under workload seed `seed`.
fn job_body(seed: u64, i: u64) -> String {
    // Seeds cross the wire as JSON numbers: keep them exact in an f64.
    let job = job_seed(seed, i) >> 11;
    let angle = Draws::new(job).next_f64() * std::f64::consts::TAU;
    format!(
        concat!(
            r#"{{"qasm": "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\n"#,
            r#"h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\nrz({angle}) q[2];\nh q[3];\n", "#,
            r#""backend": "statevector", "plan": {plan}, "seed": {job}, "threads": 1, "#,
            r#""assertions": [{{"kind": "entangled", "qubits": [0, 1, 2], "parity": "even"}}, "#,
            r#"{{"kind": "superposition", "qubit": 3, "basis": "plus"}}]}}"#
        ),
        angle = angle,
        plan = JOB_PLAN,
        job = job,
    )
}

/// Offsets (seconds from the schedule start) of `n` arrivals over
/// `span` seconds: exponential gaps, rescaled so the schedule holds
/// exactly `n` jobs and ends at `span`.
fn schedule(draws: &mut Draws, n: usize, span: f64) -> Vec<f64> {
    let gaps: Vec<f64> = (0..n).map(|_| -(1.0 - draws.next_f64()).ln()).collect();
    let total: f64 = gaps.iter().sum();
    let mut t = 0.0;
    gaps.iter()
        .map(|g| {
            t += g * span / total;
            t
        })
        .collect()
}

/// One sent job, as the load generator saw it.
#[derive(Clone, Debug)]
struct Sample {
    job: u64,
    due: f64,
    sent: f64,
    done: f64,
    status: JobStatus,
    /// Whether the job was sent at all (see `abandon_after`).
    sent_at_all: bool,
    /// FNV-1a digest of the verdict, counts and plan records.
    digest: u64,
    cache_hits: u64,
    cache_misses: u64,
    prefix_hits: u64,
}

fn fnv(lines: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Sends one job, reads its whole response, and notes when it
/// completed.
fn send(addr: SocketAddr, body: &str) -> (JobStatus, u64, [u64; 3], Instant) {
    let resp = qassert_serve::post_job(addr, "bench", body);
    let done = Instant::now();
    let (status, digest, counters) = match resp {
        Ok(resp) => judge(&resp),
        Err(_) => (JobStatus::Error, 0, [0; 3]),
    };
    (status, digest, counters, done)
}

/// Status, records digest and lowering counters of one response.
fn judge(resp: &qassert_serve::HttpResponse) -> (JobStatus, u64, [u64; 3]) {
    match resp.status {
        200 => {}
        429 => return (JobStatus::Refused, 0, [0; 3]),
        _ => return (JobStatus::Error, 0, [0; 3]),
    }
    let lines = resp.ndjson_lines();
    let Some((trailer, records)) = lines.split_last() else {
        return (JobStatus::Error, 0, [0; 3]);
    };
    let telemetry = qassert_serve::json::parse(trailer).unwrap_or(Value::Null);
    let field = |name: &str| telemetry.get(name).and_then(Value::as_u64).unwrap_or(0);
    let counters = [
        field("cache_hits"),
        field("cache_misses"),
        field("prefix_hits"),
    ];
    // Verified against the in-process replay after the window.
    (JobStatus::Ok, fnv(records), counters)
}

/// Gauges polled from `/healthz`.
#[derive(Default)]
struct Health {
    queue_depth_max: u64,
}

/// Host-speed probe durations, each with the time (seconds since the
/// schedule start) it ran at.
type Probes = Vec<(f64, f64)>;

/// Drives the jobs `first_job ..` of `offsets` open loop from `start`.
/// A job whose send would run more than `abandon_after` seconds behind
/// its due time is not sent. Meanwhile the calling thread runs a
/// host-speed probe every [`PROBE_EVERY`] seconds.
fn drive(
    addr: SocketAddr,
    seed: u64,
    first_job: u64,
    offsets: &[f64],
    start: Instant,
    abandon_after: f64,
    health: Option<&Mutex<Health>>,
) -> (Vec<Sample>, Probes) {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(offsets.len()));
    let mut probes = Vec::new();
    std::thread::scope(|scope| {
        let senders: Vec<_> = (0..SENDERS)
            .map(|sender| {
                let (next, samples) = (&next, &samples);
                scope.spawn(move || {
                    let mut handled = 0usize;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&due) = offsets.get(i) else { break };
                        let job = first_job + i as u64;
                        let body = job_body(seed, job);
                        let now = start.elapsed().as_secs_f64();
                        if now < due {
                            std::thread::sleep(Duration::from_secs_f64(due - now));
                        }
                        let sent = start.elapsed().as_secs_f64();
                        let sent_at_all = sent - due <= abandon_after;
                        let (status, digest, [hits, misses, prefix], done) = if !sent_at_all {
                            (JobStatus::Error, 0, [0; 3], Instant::now())
                        } else {
                            send(addr, &body)
                        };
                        let done = done.duration_since(start).as_secs_f64();
                        samples.lock().expect("sample store").push(Sample {
                            job,
                            due,
                            sent,
                            done,
                            status,
                            sent_at_all,
                            digest,
                            cache_hits: hits,
                            cache_misses: misses,
                            prefix_hits: prefix,
                        });
                        handled += 1;
                        if let (0, Some(health)) = (sender, health) {
                            if handled.is_multiple_of(HEALTH_EVERY) {
                                poll_health(addr, health);
                            }
                        }
                    }
                })
            })
            .collect();
        let mut next_probe = 0.0;
        while !senders.iter().all(|s| s.is_finished()) {
            let now = start.elapsed().as_secs_f64();
            if now >= next_probe {
                probes.push((now, probe_s()));
                next_probe = now + PROBE_EVERY;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    });
    probes.push((start.elapsed().as_secs_f64(), probe_s()));
    let mut samples = samples.into_inner().expect("sample store");
    samples.sort_by_key(|s| s.job);
    (samples, probes)
}

/// A sample's latency from its due time, calibrated by the median of
/// the probes within half a second of the middle of its request (see
/// [`crate::host`]). The median keeps a probe that the server's own
/// threads preempted from skewing the scale.
fn calibrated_latency(s: &Sample, probes: &Probes) -> f64 {
    let mid = (s.sent + s.done) / 2.0;
    let lo = probes.partition_point(|&(t, _)| t < mid - 0.5);
    let hi = probes.partition_point(|&(t, _)| t <= mid + 0.5);
    let near: Vec<f64> = if lo < hi {
        probes[lo..hi].iter().map(|&(_, p)| p).collect()
    } else {
        vec![probes[lo.min(probes.len() - 1)].1]
    };
    calibrate(s.done - s.due, stats::median(&near))
}

fn poll_health(addr: SocketAddr, health: &Mutex<Health>) {
    if let Ok(resp) = qassert_serve::get(addr, "/healthz") {
        if let Ok(v) = qassert_serve::json::parse(&resp.body) {
            let depth = v.get("queue_depth").and_then(Value::as_u64).unwrap_or(0);
            let mut h = health.lock().expect("health gauges");
            h.queue_depth_max = h.queue_depth_max.max(depth);
        }
    }
}

fn start_server() -> std::io::Result<Server> {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
}

/// What an in-process replay of one job produced.
struct Replay {
    spec: JobSpec,
    circuit: qassert::AssertingCircuit,
    lines: Vec<String>,
    outcome: AssertionOutcome,
}

/// A session configured as the server configures one for `spec`, on a
/// private cache so every replay takes the job's cache-miss path.
fn job_session<B: Backend>(backend: B, spec: &JobSpec) -> AssertionSession<'static, B> {
    let mut session = AssertionSession::new(backend)
        .private_cache(16)
        .shot_plan(spec.plan)
        .filter_policy(spec.filter);
    if let Some(seed) = spec.seed {
        session = session.seed(seed);
    }
    if let Some(threads) = spec.threads {
        session = session.threads(threads);
    }
    session
}

/// Runs job `body` through the same public functions the server calls:
/// parse, build, run, render.
fn replay<B: Backend>(body: &str, backend: &B, rec: Option<&Recorder>) -> Result<Replay, String> {
    let spec = maybe_span(rec, "parse", || JobSpec::from_json(body)).map_err(|e| e.message)?;
    let circuit = maybe_span(rec, "build", || spec.build_circuit()).map_err(|e| e.message)?;
    let session = job_session(backend, &spec);
    let outcome = maybe_span(rec, "run", || session.run(&circuit)).map_err(|e| e.to_string())?;
    let lines = maybe_span(rec, "render", || {
        outcome_records(&outcome, circuit.records())
            .iter()
            .map(Value::render)
            .collect::<Vec<String>>()
    });
    Ok(Replay {
        spec,
        circuit,
        lines,
        outcome,
    })
}

/// Splits a replay's bundled `run` span: lowers the circuit again on a
/// fresh cache (the miss path the job took) and analyzes the same raw
/// counts, each in its own span.
fn split<B: Backend>(r: &Replay, backend: &B, rec: &Recorder) {
    let session = job_session(backend, &r.spec);
    let _ = rec.span("lower", || session.lower(r.circuit.circuit()));
    let raw = r.outcome.raw.clone();
    let _ = rec.span("analyze", || session.analyze(raw, &r.circuit));
}

/// Plan and filter figures summed over replayed jobs.
#[derive(Default)]
struct PlanTotals {
    jobs: u64,
    shots: u64,
    verdicts: u64,
    tranches: u64,
    early_stops: u64,
    kept: u64,
    recorded: u64,
}

/// Checks every completed job against its in-process replay: verdict,
/// counts and plan records must be bit-identical. Returns the plan
/// figures of the jobs that passed (the wire's, since they match).
fn verify(seed: u64, samples: &mut [Sample]) -> PlanTotals {
    let backend = StatevectorBackend::new();
    let mut totals = PlanTotals::default();
    for s in samples.iter_mut().filter(|s| s.status == JobStatus::Ok) {
        let Ok(r) = replay(&job_body(seed, s.job), &backend, None) else {
            s.status = JobStatus::Wrong;
            continue;
        };
        if fnv(&r.lines.iter().map(String::as_str).collect::<Vec<_>>()) != s.digest {
            s.status = JobStatus::Wrong;
            continue;
        }
        let plan = r.outcome.plan;
        totals.jobs += 1;
        totals.shots += plan.shots_used;
        totals.verdicts += r.outcome.verdicts.len() as u64;
        totals.tranches += plan.tranches;
        totals.early_stops += u64::from(plan.stop == StopReason::Decided);
        totals.kept += r.outcome.shots_kept();
        totals.recorded += r.outcome.raw.counts.total();
    }
    totals
}

/// The outcome of one ladder rung.
struct Rung {
    rate: f64,
    passed: bool,
    achieved: f64,
    tail_ms: f64,
}

fn run_rung(
    addr: SocketAddr,
    seed: u64,
    first_job: u64,
    rate: f64,
    secs: f64,
) -> (Rung, Vec<Sample>) {
    let mut draws = Draws::new(seed ^ first_job);
    let n = (rate * secs).round() as usize;
    let offsets = schedule(&mut draws, n, secs);
    // A send four latency limits behind has failed the rung for sure;
    // skipping it ends an overloaded rung quickly. (One limit would let
    // a single host stall fail a rung that keeps up.)
    let (samples, _) = drive(
        addr,
        seed,
        first_job,
        &offsets,
        Instant::now(),
        4.0 * LATENCY_LIMIT,
        None,
    );
    let ok = samples.iter().all(|s| s.status == JobStatus::Ok);
    let latencies: Vec<f64> = samples.iter().map(|s| s.done - s.due).collect();
    let tail = stats::tail(&latencies, 95.0).map_or(f64::INFINITY, |t| t.value);
    let last_quarter: Vec<f64> = samples[n - n / 4..]
        .iter()
        .map(|s| (s.sent - s.due).max(0.0))
        .collect();
    let backlog_lag = if last_quarter.is_empty() {
        0.0
    } else {
        stats::median(&last_quarter)
    };
    let finished = samples.iter().map(|s| s.done).fold(0.0, f64::max);
    let rung = Rung {
        rate,
        passed: ok && tail <= LATENCY_LIMIT && backlog_lag <= LATENCY_LIMIT / 4.0,
        achieved: n as f64 / finished,
        tail_ms: tail * 1e3,
    };
    (rung, samples)
}

/// Runs `serve_stream` for one benchmark invocation.
pub fn run(cfg: &Config, tail_cap: f64) -> Measured {
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let mut server = None;
    probe_s(); // first touch of the probe's buffer
    for rep in 0..crate::SETUP_REPS {
        if let Some(previous) = server.take() {
            Server::shutdown(previous);
        }
        let t0 = Instant::now();
        let started = match start_server() {
            Ok(s) => s,
            Err(e) => return Measured::broken(format!("server did not start: {e}")),
        };
        let warm_ok = (0..WARM_JOBS).all(|k| {
            let job = u64::MAX - rep * WARM_JOBS - k;
            send(started.addr(), &job_body(cfg.seed, job)).0 == JobStatus::Ok
        });
        let took = t0.elapsed().as_secs_f64();
        raw_setups.push(took);
        setups.push(calibrate(took, probe_s()));
        server = Some(started);
        if !warm_ok {
            return Measured::broken("warm-up job failed".to_string());
        }
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr();
    let setup_s = crate::stats::median(&setups);

    // Reproducibility: one fixed job gives one records digest.
    let (first, again) = (
        send(addr, &job_body(cfg.seed, 0)),
        send(addr, &job_body(cfg.seed, 0)),
    );
    if first.0 != JobStatus::Ok || first.1 != again.1 {
        return Measured::broken("seeded job not reproducible over the wire".to_string());
    }

    let mut m = Measured::new(setup_s, tail_cap);
    m.note(format!("counts_digest={:016x}", first.1));
    m.note(format!("raw_setup_s={}", crate::stats::median(&raw_setups)));
    let health = Mutex::new(Health::default());

    // Main window at MAIN_RATE.
    let main_secs = cfg.seconds * MAIN_SHARE;
    let n = (MAIN_RATE * main_secs).round() as usize;
    let offsets = schedule(&mut Draws::new(cfg.seed), n, main_secs);
    let start = Instant::now();
    let (mut main, probes) = drive(
        addr,
        cfg.seed,
        1,
        &offsets,
        start,
        GIVE_UP_AFTER,
        cfg.trace.then_some(&health),
    );

    // The ladder, ascending, stopping at the first rung that fails.
    let rung_secs = cfg.seconds * (1.0 - MAIN_SHARE) / LADDER.len() as f64;
    let mut rungs = Vec::new();
    let mut ladder_samples = Vec::new();
    let mut first_job = 1 + n as u64;
    for rate in LADDER {
        let (rung, samples) = run_rung(addr, cfg.seed, first_job, rate, rung_secs);
        first_job += samples.len() as u64;
        ladder_samples.extend(samples);
        let passed = rung.passed;
        rungs.push(rung);
        if !passed {
            break;
        }
    }
    server.shutdown();

    let totals = verify(cfg.seed, &mut main);
    verify(cfg.seed, &mut ladder_samples);

    // Jobs a failing rung skipped were never attempted; everything sent
    // counts, and so does every main-window job.
    let mut tally = Tally::default();
    for s in main
        .iter()
        .chain(ladder_samples.iter().filter(|s| s.sent_at_all))
    {
        tally.record(s.status);
    }
    let ok: Vec<&Sample> = main.iter().filter(|s| s.status == JobStatus::Ok).collect();
    let wall = main.iter().map(|s| s.done).fold(0.0, f64::max);
    let timing: Vec<_> = main
        .iter()
        .map(|s| open_loop_sample(s.due, s.sent, s.done))
        .collect();
    let raw_latencies: Vec<f64> = timing.iter().map(|t| t.latency).collect();
    m.latencies = main
        .iter()
        .map(|s| calibrated_latency(s, &probes))
        .collect();
    let probe_times: Vec<f64> = probes.iter().map(|&(_, p)| p).collect();
    m.note(format!(
        "raw_latency_p50_ms={} raw_latency_tail_ms={} probe_p50_us={}",
        stats::median(&raw_latencies) * 1e3,
        stats::tail(&raw_latencies, tail_cap).map_or(0.0, |t| t.value) * 1e3,
        stats::median(&probe_times) * 1e6
    ));
    m.jobs_per_s = ok.len() as f64 / wall;
    m.max_rate_jobs_s = rungs
        .iter()
        .take_while(|r| r.passed)
        .last()
        .map_or(0.0, |r| r.achieved);
    let ladder: Vec<String> = rungs
        .iter()
        .map(|r| {
            format!(
                "{}:{}:{:.3}ms",
                r.rate,
                if r.passed { "pass" } else { "fail" },
                r.tail_ms
            )
        })
        .collect();
    m.note(format!("ladder={}", ladder.join(",")));

    m.shots_per_s = totals.shots as f64 / wall;
    m.shots_per_verdict = totals.shots as f64 / totals.verdicts.max(1) as f64;
    m.tally = tally;

    if cfg.trace {
        let wire_service: Vec<f64> = timing.iter().map(|t| t.service).collect();
        let lag: Vec<f64> = timing.iter().map(|t| t.lag).collect();
        let (mut layers, in_process) = traced_replays(cfg.seed, &ok, &mut m);
        let wire = stats::median(&wire_service);
        let lookups = ok
            .iter()
            .map(|s| s.cache_hits + s.cache_misses)
            .sum::<u64>()
            .max(1) as f64;
        layers.cache_hit_frac = ok.iter().map(|s| s.cache_hits).sum::<u64>() as f64 / lookups;
        layers.prefix_hit_frac = ok.iter().map(|s| s.prefix_hits).sum::<u64>() as f64 / lookups;
        layers.serve_overhead_ms = (wire - in_process) * 1e3;
        layers.queue_depth_max = health.lock().expect("health gauges").queue_depth_max as f64;
        layers.refused = m.tally.refused as f64;
        layers.lag_ms = stats::median(&lag) * 1e3;
        let runs = totals.jobs.max(1) as f64;
        layers.tranches_per_job = totals.tranches as f64 / runs;
        layers.early_stop_frac = totals.early_stops as f64 / runs;
        layers.kept_frac = totals.kept as f64 / totals.recorded.max(1) as f64;
        m.note(format!(
            "wire_service_p50_ms={} in_process_p50_ms={}",
            wire * 1e3,
            in_process * 1e3
        ));
        m.layers = Some(layers);
    }
    m
}

/// Replays the main window's jobs in process, alternating untraced and
/// traced, for the per-layer self times and the tracing overhead.
/// Also returns the untraced replays' median time in seconds.
fn traced_replays(seed: u64, ok: &[&Sample], m: &mut Measured) -> (LayerTimes, f64) {
    let rec = Recorder::new();
    let counters = ExecCounters::default();
    let backend = StatevectorBackend::new();
    let traced = TracingBackend::new(&backend, &rec, &counters);
    let (mut plain, mut with_spans) = (Vec::new(), Vec::new());
    for s in ok {
        let body = job_body(seed, s.job);
        let t0 = Instant::now();
        let _ = replay(&body, &backend, None);
        plain.push(t0.elapsed().as_secs_f64());
        rec.set_job(s.job);
        let t0 = Instant::now();
        let result = rec.span("job", || replay(&body, &traced, Some(&rec)));
        with_spans.push(t0.elapsed().as_secs_f64());
        if let Ok(r) = result {
            split(&r, &traced, &rec);
        }
    }
    m.spans = rec.spans();
    let jobs = with_spans.len().max(1) as f64;
    let mut layers = LayerTimes::from_spans(&m.spans, jobs);
    let calls = counters.calls.load(Ordering::Relaxed);
    layers.exec_shots = counters.shots.load(Ordering::Relaxed);
    layers.exec_calls_per_job = calls as f64 / jobs;
    layers.profitable_frac =
        counters.profitable.load(Ordering::Relaxed) as f64 / calls.max(1) as f64;
    layers.busy_frac = layers.execute_ns_total / (with_spans.iter().sum::<f64>() * 1e9);
    layers.trace_overhead_frac = stats::median(&with_spans) / stats::median(&plain) - 1.0;
    (layers, stats::median(&plain))
}
