//! What one invocation measured, and how it prints: the end-to-end
//! metrics for an untraced run, the per-layer metrics for a traced one.

use crate::stats::{self, Tail, Tally};
use crate::trace::{self_ns_by_name, Span};

/// Per-layer figures from a traced run. Times are self times (a
/// span's duration minus its children's), per traced job.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    pub transpile_us: f64,
    /// `JobSpec::from_json` plus `build_circuit` (QASM parse and
    /// instrumentation).
    pub parse_us: f64,
    pub lower_us: f64,
    /// `AssertionSession::run` minus its execute spans and the
    /// separately timed lower and analyze calls on the same inputs.
    pub plan_us: f64,
    pub execute_ns_total: f64,
    pub analyze_us: f64,
    pub render_us: f64,
    /// Job time outside every layer span (session set-up and the
    /// benchmark's own glue).
    pub job_self_us: f64,
    pub exec_shots: u64,
    pub exec_calls_per_job: f64,
    pub profitable_frac: f64,
    pub busy_frac: f64,
    pub cache_hit_frac: f64,
    pub prefix_hit_frac: f64,
    pub tranches_per_job: f64,
    pub early_stop_frac: f64,
    pub kept_frac: f64,
    pub trace_overhead_frac: f64,
    pub serve_overhead_ms: f64,
    pub queue_depth_max: f64,
    pub refused: f64,
    pub lag_ms: f64,
}

impl LayerTimes {
    /// Self times per layer from `spans`, divided over `jobs` jobs.
    pub fn from_spans(spans: &[Span], jobs: f64) -> Self {
        let by = self_ns_by_name(spans);
        let ns = |name: &str| by.get(name).copied().unwrap_or(0) as f64;
        let per_job_us = |total_ns: f64| total_ns / jobs / 1e3;
        LayerTimes {
            transpile_us: per_job_us(ns("transpile")),
            parse_us: per_job_us(ns("parse") + ns("build")),
            // `run_circuit` is lower + execute; its execute spans are
            // its children, so its self time is the lowering.
            lower_us: per_job_us(ns("lower") + ns("run_circuit")),
            plan_us: per_job_us((ns("run") - ns("lower") - ns("analyze")).max(0.0)),
            execute_ns_total: ns("execute"),
            analyze_us: per_job_us(ns("analyze")),
            render_us: per_job_us(ns("render")),
            job_self_us: per_job_us(ns("job")),
            ..LayerTimes::default()
        }
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let ns_per_shot = self.execute_ns_total / self.exec_shots.max(1) as f64;
        vec![
            ("transpile.us_per_job", self.transpile_us, "us"),
            ("parse.us_per_job", self.parse_us, "us"),
            ("lower.us_per_job", self.lower_us, "us"),
            ("lower.cache_hit_frac", self.cache_hit_frac, "ratio"),
            ("lower.prefix_hit_frac", self.prefix_hit_frac, "ratio"),
            ("plan.us_per_job", self.plan_us, "us"),
            ("plan.tranches_per_job", self.tranches_per_job, "count"),
            ("plan.early_stop_frac", self.early_stop_frac, "ratio"),
            ("execute.ns_per_shot", ns_per_shot, "ns"),
            ("execute.busy_frac", self.busy_frac, "ratio"),
            ("execute.calls_per_job", self.exec_calls_per_job, "count"),
            ("hybrid.profitable_frac", self.profitable_frac, "ratio"),
            ("analyze.us_per_job", self.analyze_us, "us"),
            ("analyze.kept_frac", self.kept_frac, "ratio"),
            ("render.us_per_job", self.render_us, "us"),
            ("job.self_us_per_job", self.job_self_us, "us"),
            ("serve.overhead_ms", self.serve_overhead_ms, "ms"),
            ("serve.queue_depth_max", self.queue_depth_max, "count"),
            ("serve.refused", self.refused, "count"),
            ("loadgen.lag_ms", self.lag_ms, "ms"),
            ("trace.overhead_frac", self.trace_overhead_frac, "ratio"),
        ]
    }
}

/// Everything one invocation measured.
pub struct Measured {
    /// Why the workload could not be measured, if it could not.
    pub broken: Option<String>,
    pub setup_s: f64,
    /// Highest percentile the tail rule may pick for this workload.
    pub tail_cap: f64,
    pub tally: Tally,
    /// Per-job latencies in seconds: calibrated to the probe's
    /// reference speed for the library workloads, from the due time
    /// for serve.
    pub latencies: Vec<f64>,
    pub jobs_per_s: f64,
    pub shots_per_s: f64,
    pub shots_per_verdict: f64,
    pub max_rate_jobs_s: f64,
    pub layers: Option<LayerTimes>,
    pub spans: Vec<Span>,
    /// Free-form `key=value` facts printed with the run context.
    pub notes: Vec<String>,
}

impl Measured {
    /// An empty measurement with its set-up time.
    pub fn new(setup_s: f64, tail_cap: f64) -> Self {
        Measured {
            broken: None,
            setup_s,
            tail_cap,
            tally: Tally::default(),
            latencies: Vec::new(),
            jobs_per_s: 0.0,
            shots_per_s: 0.0,
            shots_per_verdict: 0.0,
            max_rate_jobs_s: 0.0,
            layers: None,
            spans: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// A workload that failed a check made before timing.
    pub fn broken(why: String) -> Self {
        let mut m = Measured::new(0.0, 0.0);
        m.broken = Some(why);
        m
    }

    /// Adds a `key=value` fact to the printed context.
    pub fn note(&mut self, fact: String) {
        self.notes.push(fact);
    }

    /// The tail latency under the workload's cap.
    pub fn tail(&self) -> Option<Tail> {
        stats::tail(&self.latencies, self.tail_cap)
    }

    /// Whether every check passed: the prechecks, and every attempted
    /// job's output (refusals are failures but not wrong output).
    pub fn correct(&self) -> bool {
        self.broken.is_none() && self.tally.wrong == 0 && self.tally.errors == 0
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let ms = |s: f64| s * 1e3;
        let p50 = if self.latencies.is_empty() {
            0.0
        } else {
            stats::median(&self.latencies)
        };
        let tail = self.tail().map_or(0.0, |t| t.value);
        vec![
            ("setup_s", self.setup_s, "s"),
            ("jobs_per_s", self.jobs_per_s, "1/s"),
            ("shots_per_s", self.shots_per_s, "1/s"),
            ("latency_p50_ms", ms(p50), "ms"),
            ("latency_tail_ms", ms(tail), "ms"),
            ("shots_per_verdict", self.shots_per_verdict, "count"),
            ("peak_rss_mb", crate::host::peak_rss_mb(), "MB"),
            ("max_rate_jobs_s", self.max_rate_jobs_s, "1/s"),
            ("ok_frac", self.tally.ok_frac(), "ratio"),
        ]
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// metrics of this run's mode.
    pub fn result_json(&self, traced: bool) -> String {
        let metrics = if traced {
            self.layers.clone().unwrap_or_default().metrics()
        } else {
            self.end_to_end()
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let attempted = self.tally.attempted.max(1);
        let failed = if self.broken.is_some() {
            attempted
        } else {
            self.tally.failed()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.correct(),
            body.join(", ")
        )
    }
}
