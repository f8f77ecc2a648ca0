//! Estimators. Everything here works on plain slices so the unit tests
//! can feed known arrays.

/// Linearly interpolated quantile of an ascending slice, `q` in `[0, 1]`.
/// Empty input reads 0 so a phase that completed nothing still prints.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Sort `values` ascending in place.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of `values` (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    quantile_sorted(values, 0.5)
}

/// The smallest of `values` (infinite when there are none).
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Samples grouped by slot: repeats of the same piece of work.
#[derive(Debug, Default)]
pub struct BySlot {
    groups: Vec<Vec<f64>>,
}

impl BySlot {
    pub fn push(&mut self, slot: u32, value: f64) {
        let slot = slot as usize;
        if slot >= self.groups.len() {
            self.groups.resize_with(slot + 1, Vec::new);
        }
        self.groups[slot].push(value);
    }

    /// The fastest repeat of every slot that has samples: what that
    /// piece of work takes on a quiet host. Disturbance on a shared host
    /// only ever lengthens a request and can last longer than a run, so
    /// of all the summaries of a slot's repeats the minimum is the one
    /// that two runs agree on (README, "Host-noise study").
    pub fn fastest(&self) -> Vec<f64> {
        self.groups
            .iter()
            .filter(|g| !g.is_empty())
            .map(|g| fastest(g))
            .collect()
    }
}

/// The highest quantile, not above `cap_permille`, of a sample of `n`
/// that still has at least ten samples beyond it. Candidates are the
/// usual reporting ladder; below twenty samples only the median is
/// supported. Per-mille so "ten beyond" is exact integer arithmetic.
pub fn tail_quantile(n: usize, cap_permille: usize) -> f64 {
    const LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];
    LADDER
        .into_iter()
        .filter(|&pm| pm <= cap_permille)
        .find(|&pm| n * (1000 - pm) / 1000 >= 10)
        .unwrap_or(500) as f64
        / 1000.0
}

/// Durations of consecutive blocks of `k` requests of one closed-loop
/// client, in seconds: from the start of a block's first request to the
/// end of its last. A trailing partial block is dropped so every block
/// is the same amount of work.
pub fn block_secs(starts_ns: &[u64], ends_ns: &[u64], k: usize, out: &mut Vec<f64>) {
    assert_eq!(starts_ns.len(), ends_ns.len());
    assert!(k >= 1);
    for b in 0..starts_ns.len() / k {
        let (first, last) = (b * k, (b + 1) * k - 1);
        out.push(ends_ns[last].saturating_sub(starts_ns[first]) as f64 * 1e-9);
    }
}

/// Length of the union of `intervals` (each `(start, end)`), clipped to
/// `[lo, hi]`. Sorts `intervals` in place.
pub fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut cursor) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 0.5), 3.0);
        assert_eq!(quantile_sorted(&v, 1.0), 5.0);
        assert!((quantile_sorted(&v, 0.10) - 1.4).abs() < 1e-12);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(median(&mut [9.0, 1.0, 5.0, 3.0]), 4.0);
    }

    #[test]
    fn fastest_repeat_per_slot() {
        let mut by = BySlot::default();
        for v in [1.4, 1.1, 2.0] {
            by.push(2, v);
        }
        // Stalled repeats do not move a slot's figure.
        for i in 0..10 {
            by.push(0, if i % 2 == 0 { 60.0 } else { 5.0 });
        }
        // Slot 1 never ran and is left out.
        assert_eq!(by.fastest(), vec![5.0, 1.1]);
        assert!(BySlot::default().fastest().is_empty());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(10_000, 1000), 0.999);
        assert_eq!(tail_quantile(9_999, 1000), 0.99);
        assert_eq!(tail_quantile(1_000, 1000), 0.99);
        assert_eq!(tail_quantile(999, 1000), 0.95);
        assert_eq!(tail_quantile(200, 1000), 0.95);
        assert_eq!(tail_quantile(199, 1000), 0.90);
        assert_eq!(tail_quantile(100, 1000), 0.90);
        assert_eq!(tail_quantile(40, 1000), 0.75);
        assert_eq!(tail_quantile(39, 1000), 0.50);
        assert_eq!(tail_quantile(3, 1000), 0.50);
        // The cap keeps a metric named p95 from reading a higher one.
        assert_eq!(tail_quantile(1_000_000, 950), 0.95);
        assert_eq!(tail_quantile(150, 950), 0.90);
    }

    #[test]
    fn blocks_span_first_start_to_last_end() {
        let starts = [0, 10, 20, 30, 40, 50, 60];
        let ends = [9, 19, 29, 39, 49, 59, 69];
        let mut out = Vec::new();
        block_secs(&starts, &ends, 3, &mut out);
        assert_eq!(out.len(), 2, "the seventh request is a partial block");
        assert!((out[0] - 29e-9).abs() < 1e-15);
        assert!((out[1] - 29e-9).abs() < 1e-15);
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut iv = [(5, 10), (8, 12), (20, 30), (0, 2)];
        assert_eq!(union_len(&mut iv, 0, 100), 2 + 7 + 10);
        let mut iv = [(5, 10), (8, 12), (20, 30)];
        assert_eq!(union_len(&mut iv, 9, 25), 3 + 5);
        assert_eq!(union_len(&mut [], 0, 10), 0);
    }
}
