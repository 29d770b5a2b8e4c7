//! Order statistics, the tail-percentile rule and the peak-RSS reader.

/// The `p`-th percentile (0–100) of `values`, interpolating linearly
/// between closest ranks.  `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    Some(sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.5, 98.0, 97.5, 95.0, 90.0, 80.0];

/// The highest percentile of [`TAIL_LADDER`] with at least ten of `n`
/// samples beyond it, or `None` when even the lowest rung has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| n >= min_samples_for(p))
}

/// Whether `n` samples leave at least ten beyond the `p`-th percentile.
pub fn tail_supported(n: usize, p: f64) -> bool {
    tail_percentile(n).is_some_and(|q| q >= p)
}

/// The smallest sample count at which `p` has ten samples beyond it.
pub fn min_samples_for(p: f64) -> usize {
    // The epsilon absorbs rounding in `100 - p` (e.g. 100 - 99.9).
    (1000.0 / (100.0 - p) - 1e-6).ceil() as usize
}

/// Peak resident set size in MiB, from the `VmHWM` line of a
/// `/proc/<pid>/status` text.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = fields.next()?.parse().ok()?;
    let scale = match fields.next()? {
        "kB" => 1.0 / 1024.0,
        "mB" | "MB" => 1.0,
        "gB" | "GB" => 1024.0,
        _ => return None,
    };
    Some(value * scale)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// This process's live thread count.
pub fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&values, 0.0), Some(1.0));
        assert_eq!(percentile(&values, 100.0), Some(4.0));
        assert_eq!(median(&values), Some(2.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(50), Some(80.0));
        assert_eq!(tail_percentile(99), Some(80.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(666), Some(98.0));
        assert_eq!(tail_percentile(667), Some(98.5));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for p in TAIL_LADDER {
            let n = min_samples_for(p);
            assert!(tail_percentile(n).unwrap() >= p, "{p} at {n}");
            assert!(
                tail_percentile(n - 1).is_none_or(|q| q < p),
                "{p} at {}",
                n - 1
            );
        }
    }

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(50.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\tlots kB\n"), None);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
