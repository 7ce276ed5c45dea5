//! Small measurement helpers: percentiles over raw samples, block medians,
//! and the process's peak resident set.

use std::time::Instant;

/// Nearest-rank percentile of `samples` (`p` in `[0, 1]`); 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Operations per block of [`block_p99`].
pub const P99_BLOCK: usize = 1000;

/// Tail latency that one bad second cannot swing: the median, over
/// consecutive blocks of [`P99_BLOCK`] samples, of each block's p99. A
/// trailing partial block counts only when it is the only one.
pub fn block_p99(samples: &[f64]) -> f64 {
    if samples.len() < P99_BLOCK {
        return percentile(samples, 0.99);
    }
    let p99s: Vec<f64> = samples
        .chunks_exact(P99_BLOCK)
        .map(|b| percentile(b, 0.99))
        .collect();
    median(&p99s)
}

/// Simulated days per wall-clock day, robust to a disturbed second: the
/// median, over consecutive blocks of `block` operations that each
/// simulate `sim_per_op` seconds, of each block's rate. A series shorter
/// than one block is taken whole.
pub fn block_sdpd(sim_per_op: f64, op_ms: &[f64], block: usize) -> f64 {
    let rate =
        |ops: &[f64]| sim_per_op * ops.len() as f64 * 1e3 / ops.iter().sum::<f64>().max(1e-9);
    if op_ms.len() < block.max(1) {
        return rate(op_ms);
    }
    median(&op_ms.chunks_exact(block).map(rate).collect::<Vec<_>>())
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU time stolen by the hypervisor so far, in seconds (`steal` of
/// `/proc/stat`, in 1/100 s ticks); `None` where the kernel does not
/// report it.
pub fn host_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn block_p99_takes_the_median_block() {
        // Three full blocks whose p99s are 10, 20 and 30, and a partial
        // fourth block of huge values that is dropped.
        let mut v = Vec::new();
        for tail in [10.0, 30.0, 20.0] {
            v.extend(std::iter::repeat_n(1.0, P99_BLOCK - 11));
            v.extend(std::iter::repeat_n(tail, 11));
        }
        v.extend(std::iter::repeat_n(1e9, P99_BLOCK / 2));
        assert_eq!(block_p99(&v), 20.0);
        // Fewer samples than a block: the plain p99.
        let short: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(block_p99(&short), 99.0);
    }

    #[test]
    fn block_sdpd_is_the_median_block_rate() {
        // Blocks of two 1-s operations simulating 60 s each, one slow.
        let ms = [1000.0, 1000.0, 4000.0, 4000.0, 1000.0, 1000.0, 500.0];
        assert_eq!(block_sdpd(60.0, &ms, 2), 60.0);
        assert_eq!(block_sdpd(60.0, &ms[..1], 2), 60.0);
    }
}
