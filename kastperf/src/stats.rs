//! Order statistics over measured samples.

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// The median of `values`, or 0 when there are none (a layer the
/// workload does not exercise).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// Mean of `values`, or 0 when there are none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Length of the windows a measured phase is cut into.
pub const WINDOW_S: f64 = 2.0;

/// Per-window statistics of a phase, each reported as the median over
/// its windows, so a few seconds of a stalled machine move no figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Median over windows of the windows' completion rate, per second.
    pub rate: f64,
    /// Median over windows of the windows' median latency.
    pub p50: f64,
}

/// Cuts `[0, span_s)` into [`WINDOW_S`] windows. `completions` are the
/// times (s) operations completed, for the rate; `latencies` are
/// `(time s, latency)` of the operations whose latency is reported.
pub fn windowed(span_s: f64, completions: &[f64], latencies: &[(f64, f64)]) -> Windowed {
    let windows = ((span_s / WINDOW_S).floor() as usize).max(1);
    let width = span_s / windows as f64;
    let slot = |t: f64| ((t / width).floor().max(0.0) as usize).min(windows - 1);
    let mut counts = vec![0.0; windows];
    for &t in completions {
        counts[slot(t)] += 1.0;
    }
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(t, latency) in latencies {
        per_window[slot(t)].push(latency);
    }
    let p50s: Vec<f64> = per_window.iter().filter_map(|w| quantile(w, 0.5)).collect();
    let rates: Vec<f64> = counts.iter().map(|c| c / width).collect();
    Windowed { rate: median(&rates), p50: median(&p50s) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&[3.0], 0.0), Some(3.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windows_ignore_a_stalled_window() {
        // Ten 2 s windows of 100 completions at 1 ms, one stalled at 50 ms.
        let mut completions = Vec::new();
        let mut latencies = Vec::new();
        for w in 0..10 {
            for i in 0..100 {
                let t = w as f64 * 2.0 + i as f64 * 0.02;
                completions.push(t);
                latencies.push((t, if w == 3 { 50.0 } else { 1.0 }));
            }
        }
        let stats = windowed(20.0, &completions, &latencies);
        assert_eq!(stats, Windowed { rate: 50.0, p50: 1.0 });
    }
}
