//! Order statistics over timing samples.

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample such that at least `p` percent of the samples are at or below
/// it. `None` when the slice is empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest percentile of [`TAIL_LADDER`] that has at least ten
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// The median of unsorted values; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// One timing series, summarised: sample count, median, the p99 the
/// metric names (or the highest percentile the sample supports, when it
/// cannot support p99), and that supported tail.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    /// The percentile `p99` was actually read at.
    pub p99_at: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

impl Summary {
    /// Summarises `samples` (any order). `None` when there are none.
    pub fn of(mut samples: Vec<f64>) -> Option<Summary> {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let p50 = percentile(&samples, 50.0)?;
        let tail_pct = tail_percentile(n).unwrap_or(50.0);
        let p99_at = tail_pct.min(99.0);
        Some(Summary {
            n,
            p50,
            p99: percentile(&samples, p99_at)?,
            p99_at,
            tail_pct,
            tail: percentile(&samples, tail_pct)?,
        })
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"n\": {}, \"p50\": {}, \"p99\": {}, \"p99_at\": {}, \"tail_pct\": {}, \"tail\": {}}}",
            self.n, self.p50, self.p99, self.p99_at, self.tail_pct, self.tail
        )
    }
}

/// Windows a measured phase is split into for the windowed statistics.
pub const WINDOWS: usize = 15;

/// The percentile, counted from the good end, at which a statistic over
/// windows or cycles is read. On a shared host the machine's speed flips
/// between levels every few seconds; a median over windows lands on
/// whichever level a run happened to favour, while the favourable decile
/// reads the faster level in every run that has one.
const FAVOURABLE_PCT: f64 = 10.0;

/// The favourable decile of `values`: the nearest-rank 90th percentile
/// when higher is better, the 10th when lower is. `None` when empty.
pub fn favourable(values: &[f64], higher_is_better: bool) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let p = if higher_is_better {
        100.0 - FAVOURABLE_PCT
    } else {
        FAVOURABLE_PCT
    };
    percentile(&v, p)
}

/// Splits `(t, x)` samples (`t` in `[0, span)`) into [`WINDOWS`] equal
/// windows by `t` and applies `stat` to each window's values; the
/// windows that yield a value, in order.
fn windowed(samples: &[(f64, f64)], span: f64, stat: impl Fn(Vec<f64>) -> Option<f64>) -> Vec<f64> {
    let mut bins = vec![Vec::new(); WINDOWS];
    for &(t, x) in samples {
        let w = ((t / span) * WINDOWS as f64).floor();
        if (0.0..WINDOWS as f64).contains(&w) {
            bins[w as usize].push(x);
        }
    }
    bins.into_iter().filter_map(stat).collect()
}

/// Each window's nearest-rank `p`-th percentile, over the windows with
/// at least ten samples beyond it; the favourable (lowest) decile of
/// those.
pub fn windowed_percentile(samples: &[(f64, f64)], span: f64, p: f64) -> Option<f64> {
    let per_window = windowed(samples, span, |mut v| {
        if tail_percentile(v.len())? < p {
            return None;
        }
        v.sort_by(f64::total_cmp);
        percentile(&v, p)
    });
    favourable(&per_window, false)
}

/// Events per second in each window with at least two, from ascending
/// event times in `[0, span)`: the gaps between its first and last event
/// over the time they took. The favourable (highest) decile of those.
pub fn windowed_rate(times: &[f64], span: f64) -> Option<f64> {
    let samples: Vec<(f64, f64)> = times.iter().map(|&t| (t, t)).collect();
    let per_window = windowed(&samples, span, |v| {
        let (first, last) = (v.first()?, v.last()?);
        (last > first).then(|| (v.len() - 1) as f64 / (last - first))
    });
    favourable(&per_window, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 99.9), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Three samples: the median is the second, p34 already the second.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 33.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 34.0), Some(2.0));
    }

    #[test]
    fn tails_keep_ten_samples_beyond_them() {
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(99_999), Some(99.9));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn favourable_deciles_read_the_better_level() {
        // Two levels, the better one in 2 of 15 windows.
        let times: Vec<f64> = (0..15)
            .map(|w| if w % 8 == 0 { 1.0 } else { 2.0 })
            .collect();
        assert_eq!(favourable(&times, false), Some(1.0));
        let rates: Vec<f64> = times.iter().map(|t| 1.0 / t).collect();
        assert_eq!(favourable(&rates, true), Some(1.0));
        assert_eq!(favourable(&[], true), None);
    }

    #[test]
    fn windowed_statistics_ignore_stalled_windows() {
        // 15 windows of 1000 samples; windows 3 and 4 are a stall 1000×
        // slower.
        let samples: Vec<(f64, f64)> = (0..15_000)
            .map(|i| {
                let t = i as f64 / 15_000.0;
                let slow = (0.2..1.0 / 3.0).contains(&t);
                (
                    t,
                    if slow {
                        1000.0
                    } else {
                        1.0 + (i % 100) as f64 / 100.0
                    },
                )
            })
            .collect();
        assert_eq!(windowed_percentile(&samples, 1.0, 99.0), Some(1.98));
        assert_eq!(windowed_percentile(&samples, 1.0, 50.0), Some(1.49));
        // 100 events in each window of 2/15 s, fewer in two of them.
        let times: Vec<f64> = (0..1500)
            .filter(|i| !(300..500).contains(i) || i % 2 == 0)
            .map(|i| (i as f64 + 0.5) / 1500.0 * 2.0)
            .collect();
        let rate = windowed_rate(&times, 2.0).unwrap();
        assert!((rate - 750.0).abs() < 1e-6, "{rate}");
        // Windows too small for a p99 are skipped, not read lower.
        assert_eq!(windowed_percentile(&samples[..500], 1.0 / 30.0, 99.0), None);
        assert_eq!(windowed_rate(&[], 2.0), None);
    }

    #[test]
    fn summary_reads_p99_only_where_supported() {
        let s = Summary::of((1..=1000).rev().map(f64::from).collect()).unwrap();
        assert_eq!((s.n, s.p50, s.p99, s.p99_at), (1000, 500.0, 990.0, 99.0));
        assert_eq!((s.tail_pct, s.tail), (99.0, 990.0));
        let small = Summary::of((1..=200).map(f64::from).collect()).unwrap();
        assert_eq!((small.p99_at, small.p99), (90.0, 180.0));
        assert!(Summary::of(Vec::new()).is_none());
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }
}
