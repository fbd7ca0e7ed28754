//! Small numeric and formatting helpers shared by the benchmark modules.

/// The median of `values` (0.0 for an empty slice). Even-length slices
/// average the two middle values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// The interquartile range of `values` over their median, with the
/// quartiles taken as Python's `statistics.quantiles(values, n=4)`
/// takes them (0.0 for fewer than two values).
pub fn iqr_ratio(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Exclusive method: the quartile at position k (n + 1) / 4, 1-based,
    // interpolated between neighbours and clamped to the data.
    let q = |k: f64| {
        let pos = (k * (n + 1) as f64 / 4.0).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(n);
        v[lo - 1] + (pos - lo as f64) * (v[hi - 1] - v[lo - 1])
    };
    (q(3.0) - q(1.0)) / median(values)
}

/// The highest whole percentile that still leaves at least `beyond`
/// samples strictly above its rank, with its value. `None` when there
/// are too few samples for any percentile of at least p50.
pub fn tail(values: &[f64], beyond: usize) -> Option<(u32, f64)> {
    let n = values.len();
    if n < 2 * beyond {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Rank of percentile p (nearest-rank): ceil(p/100 * n). Samples
    // beyond it: n - rank.
    let p = (50..=99u32)
        .rev()
        .find(|&p| n - (p as usize * n).div_ceil(100) >= beyond)?;
    let rank = (p as usize * n).div_ceil(100);
    Some((p, v[rank - 1]))
}

/// Escapes `s` as the body of a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: finite values with full precision, anything else as 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Peak resident set size of this process in MiB, from `VmHWM`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The machine-wide CPU steal counter (`/proc/stat`, clock ticks): time
/// the hypervisor ran other tenants while this machine's CPUs wanted to
/// run. 0 where the counter is unavailable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn iqr_matches_python_quantiles() {
        // statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_ratio(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((iqr_ratio(&[4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
        assert_eq!(iqr_ratio(&[3.0]), 0.0);
    }

    #[test]
    fn tail_leaves_enough_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 10), Some((90, 90.0)));
        assert_eq!(tail(&v[..19], 10), None);
        let (p, _) = tail(&v[..40], 10).unwrap();
        assert_eq!(p, 75);
    }

    #[test]
    fn json_escapes_quotes_and_controls() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(f64::INFINITY), "0.0");
        assert_eq!(json_num(1.5), "1.5");
    }
}
