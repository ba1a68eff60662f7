//! The benchmark's arithmetic: quantiles, open-loop lateness, the rate
//! ladder verdict and the layer-sum check. Kept free of I/O and timing so
//! the self-tests below pin it exactly.

use std::time::{Duration, Instant};

/// Quantile `q` in `[0, 1]` of `values`, linearly interpolated between the
/// two closest ranks. `+inf` entries (requests that never got a reply) sort
/// last, so they count as misses of any latency limit. Empty input gives
/// `NaN`.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lower = rank.floor() as usize;
    let upper = rank.ceil() as usize;
    let (a, b) = (values[lower], values[upper]);
    if lower == upper || a == b {
        a
    } else {
        a + (b - a) * (rank - lower as f64)
    }
}

/// Median of `values` (see [`quantile`]).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Which quantile over slices of a run the timings report: the quietest
/// fiftieth. On a shared host, interference from other tenants only ever
/// adds time, and it comes and goes in slices of a run (tens of
/// milliseconds, doubling the time of a slice at worst); the low quantile
/// over slices measures the program rather than its neighbours (as a
/// minimum-of-N timing does, with less luck in it), while a change to the
/// program moves every slice alike. Runs hold 50 to 150 slices, so this is
/// the second to fourth quietest.
pub const QUIET: f64 = 0.02;

/// Which quantile over windows [`windowed_quantile`] reports: the quietest
/// tenth. A window's p99 rests on its ten slowest samples, so the very
/// quietest windows are partly luck of the draw; a tenth of 150 windows
/// steadies that.
pub const QUIET_WINDOWS: f64 = 0.1;

/// Quantile `q` of each consecutive window of `values`, then the
/// [`QUIET_WINDOWS`] quantile of those. Samples are recorded in time order, so the windows
/// are slices of the run. Windows hold at least `min_window` samples when
/// there are that many; the last window takes the remainder.
pub fn windowed_quantile(values: &[f64], min_window: usize, q: f64) -> f64 {
    let windows = (values.len() / min_window.max(1)).max(1);
    let size = values.len() / windows;
    let mut per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows { values.len() } else { (w + 1) * size };
            quantile(&mut values[w * size..end].to_vec(), q)
        })
        .collect();
    quantile(&mut per_window, QUIET_WINDOWS)
}

/// Each item's [`QUIET`] quantile over passes, from samples recorded pass
/// after pass (`samples[pass * items + item]`; a trailing partial pass is
/// ignored). A closed-loop workload compiles the same functions every
/// pass, so a function's latency is a property of the function; taking it
/// over passes filters the interrupts and the slow stretches of a shared
/// host that land on single samples.
pub fn per_item_quiet(samples: &[f64], items: usize) -> Vec<f64> {
    let passes = samples.len() / items;
    (0..items)
        .map(|item| {
            let mut values: Vec<f64> = (0..passes).map(|p| samples[p * items + item]).collect();
            quantile(&mut values, QUIET)
        })
        .collect()
}

/// Functions per second at the functions' quiet compile times (from
/// [`per_item_quiet`], in microseconds): the closed loop's throughput with
/// the host's slow stretches filtered function by function. A whole pass
/// (over 100 ms) is rarely quiet end to end on a shared host, so the quiet
/// pass time would hang on the few passes that were.
pub fn quiet_throughput(per_item_us: &[f64]) -> f64 {
    per_item_us.len() as f64 / (per_item_us.iter().sum::<f64>() / 1e6)
}

/// Sum of `values` divided by `count` (`0` when `count` is `0`): the
/// per-function mean of a total.
pub fn per(total: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// The instant request `index` of an open-loop stream at `rate` requests
/// per second is due, counted from `start`.
pub fn due_time(start: Instant, index: u64, rate: f64) -> Instant {
    start + Duration::from_secs_f64(index as f64 / rate)
}

/// Microseconds from `earlier` to `later`, `0` when `later` is not later.
pub fn micros_between(earlier: Instant, later: Instant) -> f64 {
    later.saturating_duration_since(earlier).as_secs_f64() * 1e6
}

/// What one rung of the open-loop rate ladder saw.
#[derive(Clone, Debug, Default)]
pub struct RungOutcome {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Due-to-reply latency of every request, in microseconds; `+inf` for
    /// refused, shed or expired requests.
    pub latencies_us: Vec<f64>,
    /// Requests answered while the rung was being offered.
    pub completed_in_window: usize,
    /// Length of the rung's offering window, in seconds.
    pub window_s: f64,
    /// Requests still unanswered when the window closed.
    pub backlog_at_end: usize,
}

impl RungOutcome {
    /// Completions per second over the offering window.
    pub fn achieved_rate(&self) -> f64 {
        self.completed_in_window as f64 / self.window_s
    }

    /// A rung holds when the p99 of due-to-reply latency (over windows of
    /// `window` samples, see [`windowed_quantile`]) is within `limit_us` (a
    /// refused request is a miss) and the backlog did not grow: at most
    /// `max_backlog` requests were still open at the end.
    pub fn holds(&self, limit_us: f64, max_backlog: usize, window: usize) -> bool {
        !self.latencies_us.is_empty()
            && windowed_quantile(&self.latencies_us, window, 0.99) <= limit_us
            && self.backlog_at_end <= max_backlog
    }
}

/// The highest achieved rate among the rungs that hold, or the lowest
/// rung's achieved rate when none holds (the service is slower than every
/// rate offered; the value then still moves with its speed).
pub fn max_rate(rungs: &[RungOutcome], limit_us: f64, max_backlog: usize, window: usize) -> f64 {
    let by_rate = |a: &&RungOutcome, b: &&RungOutcome| a.rate.total_cmp(&b.rate);
    let held = rungs.iter().filter(|r| r.holds(limit_us, max_backlog, window)).max_by(by_rate);
    held.or_else(|| rungs.iter().min_by(by_rate)).map_or(0.0, RungOutcome::achieved_rate)
}

/// Sum of traced layer times over the untraced end-to-end time. Near 1 when
/// the traced layers account for the whole of the untraced run.
pub fn layer_sum_ratio(layer_seconds: &[f64], untraced_seconds: f64) -> f64 {
    layer_seconds.iter().sum::<f64>() / untraced_seconds
}

/// `true` when `ratio` is within `tolerance` of 1.
pub fn within_tolerance(ratio: f64, tolerance: f64) -> bool {
    (ratio - 1.0).abs() <= tolerance
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
        assert!((quantile(&mut v, 0.25) - 1.75).abs() < 1e-12);
        let mut one = vec![7.0];
        assert_eq!(quantile(&mut one, 0.99), 7.0);
        assert!(quantile(&mut [], 0.5).is_nan());
    }

    #[test]
    fn p99_of_100_values_sits_between_the_top_two() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&mut v, 0.99) - 99.01).abs() < 1e-9);
    }

    #[test]
    fn windowed_quantile_ignores_stalled_windows() {
        // Four windows of 1000 samples; two of them stalled.
        let mut values = vec![10.0; 4000];
        values[1000..2000].iter_mut().for_each(|v| *v = 5_000.0);
        values[3000..].iter_mut().for_each(|v| *v = 900.0);
        assert_eq!(windowed_quantile(&values, 1000, 0.99), 10.0);
        assert_eq!(quantile(&mut values.clone(), 0.99), 5_000.0);
        // Fewer samples than one window: a plain quantile.
        let mut short: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(windowed_quantile(&short, 1000, 0.5), quantile(&mut short, 0.5));
        // 2999 samples make two windows (the remainder joins the last one):
        // medians 1 and 3, whose QUIET_WINDOWS quantile is 1.2.
        let values: Vec<f64> = (0..2999).map(|i| if i < 1499 { 1.0 } else { 3.0 }).collect();
        assert!((windowed_quantile(&values, 1000, 0.5) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn per_item_quiet_filters_slow_samples() {
        // Two items over five passes; item 1 hit an interrupt once and
        // both were slowed by one slow stretch.
        let samples = [10.0, 20.0, 10.0, 900.0, 10.0, 20.0, 30.0, 60.0, 10.0, 20.0, 99.0];
        assert_eq!(per_item_quiet(&samples, 2), vec![10.0, 20.0]);
        // Two functions of 10 and 20 us: 2 functions per 30 us.
        assert!((quiet_throughput(&[10.0, 20.0]) - 2.0 / 30e-6).abs() < 1e-6);
    }

    #[test]
    fn refused_requests_count_as_latency_misses() {
        // 2% of requests refused (+inf): p99 must be infinite.
        let mut latencies = vec![10.0; 98];
        latencies.extend([f64::INFINITY; 2]);
        assert_eq!(quantile(&mut latencies.clone(), 0.99), f64::INFINITY);
        // 0.5% refused stays below the p99 rank.
        let mut few = vec![10.0; 995];
        few.extend([f64::INFINITY; 5]);
        assert_eq!(quantile(&mut few, 0.99), 10.0);
    }

    #[test]
    fn lateness_is_measured_from_the_due_time() {
        let start = Instant::now();
        let due = due_time(start, 25, 10_000.0);
        assert_eq!(due - start, Duration::from_micros(2_500));
        let sent = due + Duration::from_micros(40);
        assert!((micros_between(due, sent) - 40.0).abs() < 1e-6);
        // Sending early is not negative lateness.
        assert_eq!(micros_between(sent, due), 0.0);
    }

    #[test]
    fn max_rate_picks_the_highest_rung_that_holds() {
        let rung = |rate: f64, latency: f64, backlog: usize| RungOutcome {
            rate,
            latencies_us: vec![latency; 200],
            completed_in_window: (rate / 2.0) as usize,
            window_s: 0.5,
            backlog_at_end: backlog,
        };
        let rungs = [rung(1_000.0, 50.0, 0), rung(2_000.0, 80.0, 1), rung(4_000.0, 5e4, 900)];
        assert_eq!(max_rate(&rungs, 1_000.0, 16, 1_000), 2_000.0);
        // A growing backlog fails a rung even when its p99 is low.
        let rungs = [rung(1_000.0, 50.0, 0), rung(2_000.0, 80.0, 400)];
        assert_eq!(max_rate(&rungs, 1_000.0, 16, 1_000), 1_000.0);
        // Nothing holds: report the lowest rung's achieved rate.
        let rungs = [rung(3_000.0, 5e4, 0), rung(1_000.0, 5e4, 0)];
        assert_eq!(max_rate(&rungs, 1_000.0, 16, 1_000), 1_000.0);
    }

    #[test]
    fn layer_sum_ratio_compares_traced_layers_with_the_untraced_run() {
        let ratio = layer_sum_ratio(&[0.010, 0.008, 0.019, 0.008], 0.043);
        assert!((ratio - 45.0 / 43.0).abs() < 1e-12);
        assert!(within_tolerance(ratio, 0.15));
        assert!(!within_tolerance(layer_sum_ratio(&[0.010], 0.043), 0.15));
        assert_eq!(per(9.0, 3), 3.0);
        assert_eq!(per(9.0, 0), 0.0);
    }
}
