//! Pure helpers the workloads share: the percentile rule, the seeded
//! Poisson arrival schedule, generator lateness and the rate ladder's stop
//! rule. Everything here is deterministic and unit-tested.

/// The smallest number of samples that must lie beyond a reported tail
/// percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// Nearest-rank index of the `q`-quantile in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// How many of `n` sorted samples lie strictly beyond the nearest-rank
/// `q`-quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, q)
}

/// The highest percentile of [`TAIL_LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when `n` supports none (fewer than 21
/// samples).
pub fn highest_supported(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// A latency sample set summarised by the reporting rule: a median plus one
/// tail percentile, with the sample count.
#[derive(Debug, Clone)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarises `samples` (any order).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Summary { sorted: samples }
    }

    /// Number of samples.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank `q`-quantile (NaN when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        self.sorted[rank(self.sorted.len(), q)]
    }

    /// The median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The largest sample (NaN when empty).
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(f64::NAN)
    }
}

/// The splitmix64 step: a tiny, well-mixed, seedable generator, so the
/// benchmark's inputs depend on nothing but `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from the open interval (0, 1).
    pub fn next_open01(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// Seeded Poisson arrivals: send offsets in seconds from the phase start,
/// at `rate` requests per second over `secs` seconds.
pub fn poisson_schedule(seed: u64, rate: f64, secs: f64) -> Vec<f64> {
    assert!(
        rate > 0.0 && secs > 0.0,
        "a schedule needs a positive rate and length"
    );
    let mut rng = SplitMix::new(seed);
    let mut t = 0.0;
    let mut due = Vec::with_capacity((rate * secs * 1.2) as usize + 16);
    loop {
        t += -rng.next_open01().ln() / rate;
        if t >= secs {
            return due;
        }
        due.push(t);
    }
}

/// How far behind schedule a send ran, in seconds (never negative: a send
/// on or ahead of time counts as on time).
pub fn lateness(due_s: f64, sent_s: f64) -> f64 {
    (sent_s - due_s).max(0.0)
}

/// What one ladder step observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// The step's tail latency in milliseconds (failed requests excluded;
    /// they fail the step on their own).
    pub tail_ms: f64,
    /// Requests that failed or were refused.
    pub failed: usize,
    /// Requests still unanswered when the step's sending window closed.
    pub outstanding_at_end: usize,
}

/// The ladder's latency limit on a step's tail, in milliseconds.
pub const LADDER_LIMIT_MS: f64 = 100.0;

/// How many requests may still be in flight when a step's sending window
/// closes before the backlog counts as growing: what the latency limit
/// admits at that rate (Little's law), plus one full batch per worker.
pub fn backlog_allowance(rate: f64, slack: usize) -> usize {
    (rate * LADDER_LIMIT_MS / 1e3).ceil() as usize + slack
}

/// Whether a ladder step meets the limit: tail at most
/// [`LADDER_LIMIT_MS`], no failed request, and a backlog that did not grow.
pub fn step_passes(step: &StepOutcome, slack: usize) -> bool {
    step.tail_ms.is_finite()
        && step.tail_ms <= LADDER_LIMIT_MS
        && step.failed == 0
        && step.outstanding_at_end <= backlog_allowance(step.rate, slack)
}

/// What the ladder does after a step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LadderMove {
    /// Measure this rate next.
    Climb(f64),
    /// Stop climbing.
    Stop,
}

/// The ladder's stop rule. Rates climb by `step` after every step, passed
/// or not, and the ladder stops once two rates in a row have failed, so one
/// step spoilt by a brief host stall does not end it. (Climbing on past
/// more failures let lucky passes above the knee widen the result's spread
/// across seeds.) `passed` is every step's verdict so far, in order; `rate`
/// the last rate measured.
pub fn ladder_next(passed: &[bool], rate: f64, step: f64) -> LadderMove {
    match passed {
        [] | [.., false, false] => LadderMove::Stop,
        _ => LadderMove::Climb(rate + step),
    }
}

/// The ladder's result: the highest rate that passed, refined between it
/// and the next rate measured when that next step failed on its tail alone
/// — then the rate where the tail crosses [`LADDER_LIMIT_MS`], taking the
/// tail as linear in the rate between the two. This removes the step
/// size's quantisation from the result. 0 when no step passed.
pub fn knee_rate(steps: &[StepOutcome], slack: usize) -> f64 {
    let best = (0..steps.len())
        .filter(|&i| step_passes(&steps[i], slack))
        .max_by(|&a, &b| steps[a].rate.total_cmp(&steps[b].rate));
    let Some(i) = best else {
        return 0.0;
    };
    let pass = &steps[i];
    match steps.get(i + 1) {
        Some(next)
            if next.rate > pass.rate
                && next.failed == 0
                && next.outstanding_at_end <= backlog_allowance(next.rate, slack)
                && next.tail_ms.is_finite()
                && next.tail_ms > LADDER_LIMIT_MS =>
        {
            let frac = (LADDER_LIMIT_MS - pass.tail_ms) / (next.tail_ms - pass.tail_ms);
            pass.rate + (next.rate - pass.rate) * frac
        }
        _ => pass.rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(999), Some(0.95));
        assert_eq!(highest_supported(100), Some(0.90));
        assert_eq!(highest_supported(99), Some(0.75));
        assert_eq!(highest_supported(40), Some(0.75));
        assert_eq!(highest_supported(39), Some(0.50));
        assert_eq!(highest_supported(20), Some(0.50));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let s = Summary::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.n(), 100);
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.quantile(0.9), 90.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.max(), 100.0);
        assert!(Summary::new(Vec::new()).p50().is_nan());
    }

    #[test]
    fn poisson_schedule_repeats_for_a_seed_and_differs_across_seeds() {
        let a = poisson_schedule(7, 300.0, 4.0);
        let b = poisson_schedule(7, 300.0, 4.0);
        let c = poisson_schedule(8, 300.0, 4.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..4.0).contains(&t)));
        // About rate * secs arrivals (1200 ± 4 sigma).
        assert!((1060..1340).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn lateness_counts_only_sends_behind_schedule() {
        assert_eq!(lateness(1.0, 1.25), 0.25);
        assert_eq!(lateness(1.0, 1.0), 0.0);
        assert_eq!(lateness(1.0, 0.5), 0.0);
    }

    #[test]
    fn a_step_passes_only_within_limit_without_failures_or_backlog() {
        let ok = StepOutcome {
            rate: 200.0,
            tail_ms: 40.0,
            failed: 0,
            outstanding_at_end: 3,
        };
        assert!(step_passes(&ok, 16));
        assert!(!step_passes(
            &StepOutcome {
                tail_ms: 100.5,
                ..ok
            },
            16
        ));
        assert!(!step_passes(
            &StepOutcome {
                tail_ms: f64::NAN,
                ..ok
            },
            16
        ));
        assert!(!step_passes(&StepOutcome { failed: 1, ..ok }, 16));
        // 200 req/s under a 100 ms limit admits 20 in flight, plus slack.
        assert_eq!(backlog_allowance(200.0, 16), 36);
        assert!(step_passes(
            &StepOutcome {
                outstanding_at_end: 36,
                ..ok
            },
            16
        ));
        assert!(!step_passes(
            &StepOutcome {
                outstanding_at_end: 37,
                ..ok
            },
            16
        ));
    }

    #[test]
    fn ladder_climbs_past_one_failure_and_stops_after_two() {
        let step = 25.0;
        assert_eq!(ladder_next(&[true], 100.0, step), LadderMove::Climb(125.0));
        // One failed rate is not the knee yet: keep climbing.
        assert_eq!(
            ladder_next(&[true, false], 125.0, step),
            LadderMove::Climb(150.0)
        );
        assert_eq!(
            ladder_next(&[true, false, true], 150.0, step),
            LadderMove::Climb(175.0)
        );
        // Two failed rates in a row end it.
        assert_eq!(
            ladder_next(&[true, false, true, false, false], 200.0, step),
            LadderMove::Stop
        );
        assert_eq!(ladder_next(&[false, false], 125.0, step), LadderMove::Stop);
        assert_eq!(ladder_next(&[], 100.0, step), LadderMove::Stop);
    }

    fn step(rate: f64, tail_ms: f64) -> StepOutcome {
        StepOutcome {
            rate,
            tail_ms,
            failed: 0,
            outstanding_at_end: 0,
        }
    }

    #[test]
    fn knee_interpolates_where_the_tail_crosses_the_limit() {
        // 400 passes at 60 ms, 425 fails at 140 ms: the tail crosses 100 ms
        // halfway between.
        let steps = [
            step(375.0, 40.0),
            step(400.0, 60.0),
            step(425.0, 140.0),
            step(450.0, 300.0),
        ];
        assert_eq!(knee_rate(&steps, 16), 412.5);
        // A next step that failed on failures or backlog gives no slope.
        let failed = StepOutcome {
            failed: 1,
            ..step(425.0, 90.0)
        };
        assert_eq!(knee_rate(&[step(400.0, 60.0), failed], 16), 400.0);
        let backlog = StepOutcome {
            outstanding_at_end: 1000,
            ..step(425.0, 140.0)
        };
        assert_eq!(knee_rate(&[step(400.0, 60.0), backlog], 16), 400.0);
        // The best pass may follow a failure; the last step may pass.
        let steps = [step(100.0, 20.0), step(125.0, 120.0), step(150.0, 30.0)];
        assert_eq!(knee_rate(&steps, 16), 150.0);
        assert_eq!(knee_rate(&[step(100.0, 120.0)], 16), 0.0);
        assert_eq!(knee_rate(&[], 16), 0.0);
    }
}
