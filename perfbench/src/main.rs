//! `perfbench`: the repository's benchmark of assertion jobs.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_noisy --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One invocation runs one workload for `--seconds` of timed work and
//! prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics (from benchmark-side spans) with
//! `--trace 1`. The line before it is the run's context: seed, `nproc`,
//! CPU model, git sha, the tail percentile and its sample count.
//!
//! `--repeat k` runs the workload k times in child processes, seeds
//! `seed .. seed+k`, and prints each metric's median and quartiles.
//!
//! The workloads, and why each is in the benchmark, are listed in
//! `BENCHMARK.json`; see `perfbench/README.md` for the metrics.

mod host;
mod library;
mod report;
mod serve;
mod stats;
mod trace;

use report::Measured;
use std::process::ExitCode;

/// Set-ups per invocation; `setup_s` is their median.
pub const SETUP_REPS: u64 = 7;

/// The workloads, with the highest percentile the tail rule may pick
/// for each. A 30 s run holds several hundred jobs or more, so p90
/// always leaves well over 10 samples beyond. p95 was tried first:
/// over ten runs each, `clifford_wide`, `hybrid_island` and
/// `serve_stream` showed p95 spreads of 0.43, 0.33 and 0.23 (IQR over
/// median) against p50 spreads of 0.03, 0.012 and 0.12.
const WORKLOADS: [(&str, f64); 4] = [
    ("paper_noisy", 90.0),
    ("clifford_wide", 90.0),
    ("hybrid_island", 90.0),
    ("serve_stream", 90.0),
];

/// One invocation's arguments.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: Option<u64>,
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => args
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or(format!("{flag} needs a value")),
        }
    };
    let number = |flag: &str, default: f64| -> Result<f64, String> {
        value(flag)?.map_or(Ok(default), |v| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        })
    };
    let workload = value("--workload")?
        .ok_or("--workload is required")?
        .to_string();
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seconds = number("--seconds", 10.0)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let seed = value("--seed")?.unwrap_or("1");
    Ok(Config {
        workload,
        seed: seed
            .parse()
            .map_err(|_| format!("--seed: not an integer: {seed}"))?,
        seconds,
        trace: number("--trace", 0.0)? != 0.0,
        repeat: value("--repeat")?
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--repeat: not an integer: {v}"))
            })
            .transpose()?,
    })
}

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of job `i` of a run with workload seed `seed`.
pub fn job_seed(seed: u64, i: u64) -> u64 {
    mix(seed ^ mix(i))
}

/// A seeded stream of uniform draws in `[0, 1)` (the benchmark's own
/// generator, so its inputs do not depend on the program under test).
pub struct Draws(u64);

impl Draws {
    pub fn new(seed: u64) -> Self {
        Draws(mix(seed))
    }

    pub fn next_f64(&mut self) -> f64 {
        self.0 = mix(self.0);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn context_json(cfg: &Config, m: &Measured) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields = vec![
        ("workload", json_str(&cfg.workload)),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", cfg.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu_model", json_str(&host::cpu_model())),
        ("git_sha", json_str(&host::git_sha())),
        ("attempted", m.tally.attempted.to_string()),
        ("failed_frac", (1.0 - m.tally.ok_frac()).to_string()),
        ("refused", m.tally.refused.to_string()),
    ];
    if let Some(t) = m.tail() {
        fields.push(("tail_percentile", t.percentile.to_string()));
        fields.push(("tail_n", t.n.to_string()));
        fields.push(("tail_beyond", t.beyond.to_string()));
    }
    if let Some(why) = &m.broken {
        fields.push(("broken", json_str(why)));
    }
    let notes: Vec<String> = m.notes.iter().map(|n| json_str(n)).collect();
    fields.push(("notes", format!("[{}]", notes.join(", "))));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{\"context\": {{{}}}}}", body.join(", "))
}

fn run_once(cfg: &Config) -> ExitCode {
    let cap = WORKLOADS
        .iter()
        .find(|(name, _)| *name == cfg.workload)
        .map(|(_, cap)| *cap)
        .expect("workload validated");
    let m = match cfg.workload.as_str() {
        "paper_noisy" => library::run::<library::PaperNoisy>(cfg, cap),
        "clifford_wide" => library::run::<library::CliffordWide>(cfg, cap),
        "hybrid_island" => library::run::<library::HybridIsland>(cfg, cap),
        "serve_stream" => serve::run(cfg, cap),
        _ => unreachable!("workload validated"),
    };
    if cfg.trace && !m.spans.is_empty() {
        let path = std::path::PathBuf::from(".bench_trace")
            .join(format!("{}-seed{}.jsonl", cfg.workload, cfg.seed));
        if let Err(e) = trace::write_spans(&m.spans, &path) {
            eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            );
        }
    }
    println!("{}", context_json(cfg, &m));
    println!("{}", m.result_json(cfg.trace));
    if m.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the workload `k` times in child processes and prints each
/// metric's median, quartiles and spread (IQR over median).
fn repeat(cfg: &Config, k: u64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
    for r in 0..k {
        let seed = cfg.seed + r;
        let out = std::process::Command::new(&exe)
            .args(["--workload", &cfg.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--trace", if cfg.trace { "1" } else { "0" }])
            .output();
        let out = match out {
            Ok(out) if out.status.success() => out,
            Ok(out) => {
                eprintln!(
                    "perfbench: seed {seed} failed ({}):\n{}",
                    out.status,
                    String::from_utf8_lossy(&out.stdout)
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run seed {seed}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let parsed = match qassert_serve::json::parse(last) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("perfbench: seed {seed}: unparseable result ({e}): {last}");
                return ExitCode::FAILURE;
            }
        };
        let metrics = parsed.get("metrics").and_then(|m| m.as_obj()).cloned();
        for (name, v) in metrics.unwrap_or_default() {
            let value = v.get("value").and_then(|x| x.as_num()).unwrap_or(f64::NAN);
            let unit = v
                .get("unit")
                .and_then(|x| x.as_str())
                .unwrap_or("")
                .to_string();
            match series.iter_mut().find(|(n, _, _)| *n == name) {
                Some((_, _, values)) => values.push(value),
                None => series.push((name, unit, vec![value])),
            }
        }
        eprintln!("perfbench: seed {seed} done");
    }
    println!(
        "{:<24} {:>8} {:>14} {:>14} {:>14} {:>8}",
        "metric", "unit", "q1", "median", "q3", "spread"
    );
    for (name, unit, values) in &series {
        let (q1, med, q3) = stats::quartiles(values);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        println!("{name:<24} {unit:>8} {q1:>14.6} {med:>14.6} {q3:>14.6} {spread:>8.4}");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--repeat <k>]",
                WORKLOADS.map(|(n, _)| n).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match cfg.repeat {
        Some(k) if k > 0 => repeat(&cfg, k),
        _ => run_once(&cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_seeds_differ_per_job_and_repeat_per_seed() {
        assert_eq!(job_seed(7, 3), job_seed(7, 3));
        assert_ne!(job_seed(7, 3), job_seed(7, 4));
        assert_ne!(job_seed(7, 3), job_seed(8, 3));
        let mut d = Draws::new(1);
        let x = d.next_f64();
        assert!((0.0..1.0).contains(&x));
        assert_ne!(x, d.next_f64());
    }

    #[test]
    fn args_parse_the_documented_form() {
        let args: Vec<String> = "--workload serve_stream --seed 12 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let cfg = parse_args(&args).unwrap();
        assert_eq!(cfg.workload, "serve_stream");
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (12, 3.0, true));
        assert!(parse_args(&["--workload".to_string(), "nope".to_string()]).is_err());
    }
}
