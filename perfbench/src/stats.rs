//! The benchmark's own statistics: the percentile rule, due-time
//! latency, backlog detection and the bitwise comparisons behind the
//! output checks.

/// Percentiles a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 5] = [0.50, 0.90, 0.95, 0.99, 0.999];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `q` in `n` sorted samples.
fn rank(q: f64, n: usize) -> usize {
    // The epsilon keeps `0.9 * 100` from rounding up past 90.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Number of samples strictly beyond percentile `q` of `n` samples.
pub fn beyond(q: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(q, n)
}

/// The highest percentile of [`TAIL_LADDER`], up to `max_q`, that has at
/// least [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median has fewer (fewer than 20 samples).
pub fn tail_quantile(n: usize, max_q: f64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| q <= max_q && beyond(q, n) >= MIN_BEYOND)
}

/// Nearest-rank percentile of already sorted samples.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(q, sorted.len())]
}

/// Median plus the tail chosen by [`tail_quantile`], with the sample
/// count the two rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Percentile the tail is reported at (the median itself when the
    /// sample is too small for any tail).
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `values` (any order; `+inf` marks a failed sample).
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or holds a NaN.
    pub fn of(values: &[f64]) -> Summary {
        Summary::capped(values, 1.0)
    }

    /// Like [`Summary::of`], with the tail no higher than `max_q`: a
    /// metric named for its p99 reports the p99 even when the sample
    /// would support p99.9.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or holds a NaN.
    pub fn capped(values: &[f64], max_q: f64) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        let tail_q = tail_quantile(sorted.len(), max_q).unwrap_or(0.5);
        Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 0.5),
            tail_q,
            tail: percentile(&sorted, tail_q),
        }
    }

    /// Percentile label of the tail, e.g. `p99` or `p99.9`.
    pub fn tail_label(&self) -> String {
        format!("p{}", self.tail_q * 100.0)
    }
}

/// Median of `values`.
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).p50
}

/// Latency of an open-loop request, measured from when it was *due*,
/// not from when it was sent: a request that waited for a busy
/// connection carries that wait. `None` (a failed request) counts as
/// infinitely late, so it misses every latency limit.
pub fn due_latency_s(due_s: f64, done_s: Option<f64>) -> f64 {
    match done_s {
        Some(done) => (done - due_s).max(0.0),
        None => f64::INFINITY,
    }
}

/// Requests a backlog may grow by without counting as growing: a stall of
/// the host of about 20 ms at 450 req/s leaves one this deep, and an
/// overloaded rung grows by hundreds.
pub const BACKLOG_SLACK: f64 = 10.0;

/// Whether an open-loop rung built a growing backlog.
///
/// The backlog at a request's due time is the number of earlier-due
/// requests not yet completed by then. A rung the server keeps up with
/// holds that number around a steady mean; an overloaded one grows it
/// roughly linearly. The rung counts as growing when the mean backlog
/// over its last quarter of requests exceeds twice the first quarter's
/// mean plus [`BACKLOG_SLACK`] requests. `done_s[i]` is `None` for a
/// failed request, which stays outstanding forever.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn backlog_grows(due_s: &[f64], done_s: &[Option<f64>]) -> bool {
    assert_eq!(due_s.len(), done_s.len(), "one completion per request");
    let n = due_s.len();
    if n < 8 {
        return false;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| due_s[a].total_cmp(&due_s[b]));
    let mut ends: Vec<f64> = done_s.iter().map(|d| d.unwrap_or(f64::INFINITY)).collect();
    ends.sort_by(f64::total_cmp);
    // backlog(t) = due by t minus completed by t.
    let backlog: Vec<f64> = order
        .iter()
        .enumerate()
        .map(|(pos, &i)| {
            let t = due_s[i];
            let completed = ends.partition_point(|&e| e <= t);
            (pos + 1).saturating_sub(completed) as f64
        })
        .collect();
    let q = n / 4;
    let first = backlog[..q].iter().sum::<f64>() / q as f64;
    let last = backlog[n - q..].iter().sum::<f64>() / q as f64;
    last > 2.0 * first + BACKLOG_SLACK
}

/// Index of the first position where two prediction vectors differ in
/// their bits (so `-0.0` differs from `0.0` and every NaN payload is
/// compared exactly), or where one is longer. `None` when they are
/// bitwise equal.
pub fn first_bit_mismatch(a: &[f32], b: &[f32]) -> Option<usize> {
    let common = a.len().min(b.len());
    (0..common)
        .find(|&i| a[i].to_bits() != b[i].to_bits())
        .or((a.len() != b.len()).then_some(common))
}

/// Parses the prediction array `"key":[...]` of a `/v1/predict` reply.
/// The server prints each value in shortest round-trip form, so a
/// correct reply parses back to the exact bits it computed.
pub fn parse_predictions(body: &[u8], key: &str) -> Option<Vec<f32>> {
    let text = std::str::from_utf8(body).ok()?;
    let start = text.find(&format!("\"{key}\":["))? + key.len() + 4;
    let end = start + text[start..].find(']')?;
    let inner = text[start..end].trim();
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner
        .split(',')
        .map(|v| v.trim().parse::<f32>().ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // Fewer than 20 samples support no tail at all.
        assert_eq!(tail_quantile(19, 1.0), None);
        assert_eq!(tail_quantile(20, 1.0), Some(0.5));
        // p90 needs 100 samples (ten beyond index 89), p95 needs 200.
        assert_eq!(tail_quantile(99, 1.0), Some(0.5));
        assert_eq!(tail_quantile(100, 1.0), Some(0.9));
        assert_eq!(tail_quantile(199, 1.0), Some(0.9));
        assert_eq!(tail_quantile(200, 1.0), Some(0.95));
        // p99 needs 1000 samples, p99.9 needs 10000.
        assert_eq!(tail_quantile(999, 1.0), Some(0.95));
        assert_eq!(tail_quantile(1000, 1.0), Some(0.99));
        assert_eq!(tail_quantile(9_999, 1.0), Some(0.99));
        assert_eq!(tail_quantile(10_000, 1.0), Some(0.999));
        // A cap keeps a p99-named tail at p99.
        assert_eq!(tail_quantile(10_000, 0.99), Some(0.99));
        for n in 20..20_000 {
            let q = tail_quantile(n, 1.0).unwrap();
            assert!(beyond(q, n) >= MIN_BEYOND, "n={n} q={q}");
        }
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_q, 0.99);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.tail_label(), "p99");
        // Exactly ten samples lie beyond the reported tail.
        assert_eq!(values.iter().filter(|&&v| v > s.tail).count(), 10);
        // A p99-named metric stays at p99 on a sample that supports more.
        let big: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(Summary::of(&big).tail_q, 0.999);
        assert_eq!(Summary::capped(&big, 0.99).tail_q, 0.99);
        assert_eq!(Summary::capped(&big, 0.99).tail, 19_800.0);
    }

    #[test]
    fn a_failed_request_misses_every_limit() {
        let mut lat = vec![0.001; 200];
        lat.extend(std::iter::repeat_n(due_latency_s(0.0, None), 11));
        let s = Summary::of(&lat);
        assert_eq!(s.tail_q, 0.95);
        assert!(s.tail.is_infinite());
    }

    #[test]
    fn a_kept_up_rung_has_no_growing_backlog() {
        // Arrivals every 10 ms, each served in 4 ms.
        let due: Vec<f64> = (0..400).map(|i| i as f64 * 0.010).collect();
        let done: Vec<Option<f64>> = due.iter().map(|d| Some(d + 0.004)).collect();
        assert!(!backlog_grows(&due, &done));
        // A constant backlog of a few requests is steady, not growing.
        let done: Vec<Option<f64>> = due.iter().map(|d| Some(d + 0.045)).collect();
        assert!(!backlog_grows(&due, &done));
        // A 20 ms stall near the end of a 450 req/s rung served in 1 ms
        // leaves a short-lived backlog, not a growing one.
        let due: Vec<f64> = (0..200).map(|i| i as f64 / 450.0).collect();
        let stall_end = due[170] + 0.020;
        let done: Vec<Option<f64>> = due
            .iter()
            .map(|&d| {
                Some(if d >= due[170] && d < stall_end {
                    stall_end
                } else {
                    d + 0.001
                })
            })
            .collect();
        assert!(!backlog_grows(&due, &done));
    }

    #[test]
    fn an_overloaded_rung_has_a_growing_backlog() {
        // Arrivals every 10 ms, one server needing 12 ms each.
        let due: Vec<f64> = (0..400).map(|i| i as f64 * 0.010).collect();
        let mut free_at = 0.0f64;
        let done: Vec<Option<f64>> = due
            .iter()
            .map(|&d| {
                free_at = free_at.max(d) + 0.012;
                Some(free_at)
            })
            .collect();
        assert!(backlog_grows(&due, &done));
        // Requests that never complete are a backlog that never drains.
        let mut done: Vec<Option<f64>> = due.iter().map(|d| Some(d + 0.004)).collect();
        for d in done.iter_mut().skip(200) {
            *d = None;
        }
        assert!(backlog_grows(&due, &done));
    }

    #[test]
    fn bitwise_compare_sees_sign_of_zero_nan_payload_and_length() {
        assert_eq!(first_bit_mismatch(&[1.0, 2.0], &[1.0, 2.0]), None);
        assert_eq!(first_bit_mismatch(&[0.0, 1.0], &[-0.0, 1.0]), Some(0));
        let nan_a = f32::from_bits(0x7fc0_0001);
        let nan_b = f32::from_bits(0x7fc0_0002);
        assert_eq!(first_bit_mismatch(&[nan_a], &[nan_a]), None);
        assert_eq!(first_bit_mismatch(&[nan_a], &[nan_b]), Some(0));
        assert_eq!(first_bit_mismatch(&[1.0, 2.0], &[1.0]), Some(1));
        assert_eq!(
            first_bit_mismatch(&[1.0, 2.0], &[1.0, f32::from_bits(2.0f32.to_bits() + 1)]),
            Some(1)
        );
    }

    #[test]
    fn predictions_parse_back_to_the_printed_bits() {
        let values = [0.1f32, 1.0 / 3.0, 7.006e-40, 0.999_999_9];
        let body = format!(
            "{{\"task\":\"link\",\"probs\":[{}],\"count\":4}}",
            values
                .iter()
                .map(|v| format!("{v}"))
                .collect::<Vec<_>>()
                .join(",")
        );
        let parsed = parse_predictions(body.as_bytes(), "probs").unwrap();
        assert_eq!(first_bit_mismatch(&parsed, &values), None);
        assert_eq!(parse_predictions(b"{\"error\":\"x\"}", "probs"), None);
        assert_eq!(parse_predictions(b"{\"probs\":[0.5,oops]}", "probs"), None);
    }
}
