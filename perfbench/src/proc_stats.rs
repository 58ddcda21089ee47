//! Process counters from `/proc` and small order statistics.

/// On-CPU seconds of every live thread of the process, summed from
/// `/proc/self/task/*/schedstat` (nanosecond resolution). Threads that exit
/// between two readings drop out of the second, so callers read both ends
/// of a window while the same threads are alive.
pub fn process_cpu_s() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let mut ns = 0u64;
    for task in tasks.flatten() {
        let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) else {
            continue;
        };
        ns += text
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0);
    }
    ns as f64 / 1e9
}

/// Peak resident set size of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Median of `values` (mean of the middle two for even lengths); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

/// The `q`-quantile of `values` by the nearest-rank rule; reorders
/// `values`. `None` when empty.
pub fn quantile_u64(values: &mut [u64], q: f64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len()) - 1;
    Some(*values.select_nth_unstable(rank).1)
}

/// Order-sensitive 64-bit digest of a score sequence, over the exact bit
/// patterns; equal sequences give equal digests.
pub fn score_digest(scores: impl Iterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in scores {
        let mut x = s.to_bits() ^ h;
        // splitmix64 finaliser: every input bit reaches every output bit.
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h = (x ^ (x >> 31)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_u64(&mut v, 0.5), Some(50));
        assert_eq!(quantile_u64(&mut v, 0.99), Some(99));
    }

    #[test]
    fn digest_sees_order_and_bits() {
        let a = score_digest([1.0, 2.0].into_iter());
        assert_eq!(a, score_digest([1.0, 2.0].into_iter()));
        assert_ne!(a, score_digest([2.0, 1.0].into_iter()));
        assert_ne!(
            score_digest([0.0].into_iter()),
            score_digest([-0.0].into_iter())
        );
    }

    #[test]
    fn proc_counters_read() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
