//! Order statistics, the tail-percentile rule, open-loop sample
//! arithmetic and failure accounting — the benchmark's own arithmetic,
//! kept apart from any timing so it can be unit-tested.

/// Percentiles the tail rule chooses from, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorts a copy of `values` ascending (NaN-free input assumed: every
/// value is a measured duration or count).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    v
}

/// Index of the nearest-rank percentile `p` (in percent) of `n`
/// ascending samples: the smallest sample with at least `p`% of
/// samples at or below it.
fn rank_index(n: usize, p: f64) -> usize {
    // The epsilon keeps 99.9% of 10,000 at rank 9,990: the product
    // rounds to 9990.000000000002.
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile by the same "exclusive"
/// method as Python's `statistics.quantiles(values, n=4)`, so spreads
/// printed here match the ones computed from the printed values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// A tail latency chosen by the rule "highest percentile with at least
/// [`MIN_BEYOND`] samples beyond it".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The chosen percentile, in percent.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
    /// Samples strictly beyond the chosen rank.
    pub beyond: usize,
}

/// The highest percentile on [`TAIL_LADDER`], no higher than `cap`,
/// that leaves at least [`MIN_BEYOND`] samples beyond its rank. `None`
/// when even the median leaves fewer (fewer than 20 samples).
///
/// Each workload fixes its `cap` so that the percentile does not jump
/// when a faster build fits more jobs into the same run time.
pub fn tail(values: &[f64], cap: f64) -> Option<Tail> {
    let s = sorted(values);
    let n = s.len();
    TAIL_LADDER.iter().filter(|&&p| p <= cap).find_map(|&p| {
        if n == 0 {
            return None;
        }
        let idx = rank_index(n, p);
        let beyond = n - idx - 1;
        (beyond >= MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: s[idx],
            n,
            beyond,
        })
    })
}

/// One open-loop request's timing, every instant in seconds since the
/// schedule started.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpenLoopSample {
    /// Completion minus the *due* time: includes any wait a stall of
    /// the generator or the system imposed before the send.
    pub latency: f64,
    /// How late the send ran against its due time.
    pub lag: f64,
    /// Completion minus the actual send (what a closed-loop client
    /// would report).
    pub service: f64,
}

/// Times one open-loop request from its due time.
pub fn open_loop_sample(due: f64, sent: f64, done: f64) -> OpenLoopSample {
    OpenLoopSample {
        latency: done - due,
        lag: (sent - due).max(0.0),
        service: done - sent,
    }
}

/// How one attempted job ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Completed, and its output passed the workload's check.
    Ok,
    /// Completed, but its output failed the workload's check.
    Wrong,
    /// The call returned an error (or a non-200, non-429 response).
    Error,
    /// Refused by admission control (HTTP 429).
    Refused,
}

/// Attempted and failed job counts. Wrong output, errors and refusals
/// all count as failures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that completed with wrong output.
    pub wrong: u64,
    /// Jobs that returned an error.
    pub errors: u64,
    /// Jobs refused with a 429.
    pub refused: u64,
}

impl Tally {
    /// Counts one job.
    pub fn record(&mut self, status: JobStatus) {
        self.attempted += 1;
        match status {
            JobStatus::Ok => {}
            JobStatus::Wrong => self.wrong += 1,
            JobStatus::Error => self.errors += 1,
            JobStatus::Refused => self.refused += 1,
        }
    }

    /// Jobs that failed for any reason.
    pub fn failed(&self) -> u64 {
        self.wrong + self.errors + self.refused
    }

    /// Share of attempted jobs that completed with correct output.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed()) as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand, 99.9).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.n, t.beyond),
            (99.0, 990.0, 1000, 10)
        );

        // One sample fewer: p99 would leave 9 beyond, so the rule
        // falls back to p95.
        let t = tail(&thousand[..999], 99.9).unwrap();
        assert_eq!(t.percentile, 95.0);
        assert!(t.beyond >= MIN_BEYOND);

        // Ten thousand samples reach p99.9, unless the cap stops it.
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&many, 99.9).unwrap().percentile, 99.9);
        assert_eq!(tail(&many, 99.0).unwrap().percentile, 99.0);
        assert_eq!(tail(&many, 95.0).unwrap().value, 9500.0);
    }

    #[test]
    fn tail_reports_n_and_needs_twenty_samples() {
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        let t = tail(&twenty, 99.0).unwrap();
        assert_eq!((t.percentile, t.value, t.n, t.beyond), (50.0, 10.0, 20, 10));
        assert!(tail(&twenty[..19], 99.0).is_none());
        assert!(tail(&[], 99.0).is_none());
    }

    #[test]
    fn open_loop_latency_counts_the_wait_from_the_due_time() {
        // One sender, requests due every 1 ms, each served in 0.5 ms,
        // except that the first stalls for 4 ms. A sender sends at its
        // due time or when the previous reply arrives, whichever is
        // later.
        let service = [4.0, 0.5, 0.5, 0.5, 0.5, 0.5];
        let mut free_at = 0.0f64;
        let samples: Vec<OpenLoopSample> = service
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let due = i as f64;
                let sent = due.max(free_at);
                free_at = sent + s;
                open_loop_sample(due, sent, free_at)
            })
            .collect();
        let latency: Vec<f64> = samples.iter().map(|s| s.latency).collect();
        let lag: Vec<f64> = samples.iter().map(|s| s.lag).collect();
        // The stall delays every later send until the 0.5 ms service
        // has caught up with the 1 ms schedule. Timed from the send each
        // would read 0.5 ms; timed from the due time each carries the
        // wait the stall imposed on it.
        assert_eq!(latency, [4.0, 3.5, 3.0, 2.5, 2.0, 1.5]);
        assert_eq!(lag, [0.0, 3.0, 2.5, 2.0, 1.5, 1.0]);
        assert!(samples.iter().skip(1).all(|s| s.service == 0.5));
        // An early send is never negative lag.
        assert_eq!(open_loop_sample(2.0, 1.9, 2.5).lag, 0.0);
    }

    #[test]
    fn failures_count_wrong_errors_and_refusals() {
        let mut t = Tally::default();
        for s in [
            JobStatus::Ok,
            JobStatus::Ok,
            JobStatus::Refused,
            JobStatus::Wrong,
            JobStatus::Error,
            JobStatus::Ok,
            JobStatus::Refused,
            JobStatus::Ok,
        ] {
            t.record(s);
        }
        assert_eq!((t.attempted, t.failed(), t.refused), (8, 4, 2));
        assert_eq!(t.ok_frac(), 0.5);
        assert_eq!(Tally::default().ok_frac(), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
