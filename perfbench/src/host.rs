//! Facts about the host a result was measured on, and the host-speed
//! probe that calibrates the library workloads' timings.
//!
//! On shared 2-vCPU hosts the speed of memory-heavy floating-point
//! code swings by up to 1.75× in phases lasting seconds to minutes,
//! driven by other tenants. Measured on an Intel Xeon with 2 vCPUs:
//! `paper_noisy` per-second median job latency moved between 21 and
//! 37 ms within one run, and 60-second runs did not average the
//! swings out (five 60 s runs: jobs/s spread 0.24, p50 spread 0.42,
//! IQR over median). A fixed floating-point kernel over an L2-sized
//! buffer slows by the same factor at the same moments: over a 40 s
//! run the per-second median of job time ÷ probe time stayed within
//! 72–82 (mostly 77–80) while raw job time moved 1.7×. So each library
//! job is followed by one probe run, and the job's latency is scaled by
//! `PROBE_REF_S / probe time`, which reports it at the probe's
//! reference speed. The raw figures are printed in the context line
//! next to the calibrated ones.

use std::cell::RefCell;
use std::time::Instant;

/// The probe's duration on the reference host (Intel Xeon, 2 vCPUs,
/// uncontended phase). It only fixes the scale of calibrated timings:
/// two commits measured on one host compare the same way whatever
/// its value.
pub const PROBE_REF_S: f64 = 280e-6;

/// Complex amplitudes the probe sweeps: 2 × 16,384 `f64` = 256 KiB,
/// resident in L2 but not L1, like the simulators' working sets.
const PROBE_AMPS: usize = 1 << 14;

thread_local! {
    static PROBE_STATE: RefCell<(Vec<f64>, Vec<f64>)> =
        RefCell::new((vec![0.5; PROBE_AMPS], vec![0.25; PROBE_AMPS]));
}

/// Times one run of the probe kernel: eight single-qubit rotations
/// swept over the probe's amplitudes. Benchmark-owned code, so no
/// change to the program under test moves it.
pub fn probe_s() -> f64 {
    PROBE_STATE.with(|state| {
        let mut state = state.borrow_mut();
        let (re, im) = &mut *state;
        let (c, s) = (0.6f64.cos(), 0.6f64.sin());
        let t0 = Instant::now();
        for q in [0usize, 3, 7, 11, 13, 2, 9, 5] {
            let step = 1usize << q;
            for i in (0..PROBE_AMPS).filter(|i| i & step == 0) {
                let j = i | step;
                let (ar, ai, br, bi) = (re[i], im[i], re[j], im[j]);
                re[i] = c * ar - s * bi;
                im[i] = c * ai + s * br;
                re[j] = c * br - s * ai;
                im[j] = c * bi + s * ar;
            }
        }
        std::hint::black_box((&*re, &*im));
        t0.elapsed().as_secs_f64()
    })
}

/// `seconds` measured just before a probe that took `probe`, scaled
/// to the probe's reference speed.
pub fn calibrate(seconds: f64, probe: f64) -> f64 {
    seconds * PROBE_REF_S / probe
}

/// The CPU model from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checkout's commit, read from `.git` when there is one.
pub fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(reference))
                            .map(|l| l[..40.min(l.len())].to_string())
                    })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let sha = sha.trim();
    if sha.is_empty() {
        "unknown (not a git checkout)".to_string()
    } else {
        sha.to_string()
    }
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_scales_to_the_reference_speed() {
        // A job that took 30 ms while the probe ran 1.5× slow reads
        // 20 ms at reference speed.
        let t = calibrate(0.030, 1.5 * PROBE_REF_S);
        assert!((t - 0.020).abs() < 1e-12);
        assert_eq!(calibrate(0.030, PROBE_REF_S), 0.030);
        assert!(probe_s() > 0.0);
    }
}
