//! Order statistics and seeded randomness shared by the workloads.

/// Median of `values` (mean of the middle pair for even counts);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Times `op` in `samples` groups of `batch` calls and returns each
/// group's per-call time in seconds. Grouping amortises timer and cache
/// noise for operations of a few microseconds.
pub fn per_call_s(samples: usize, batch: usize, mut op: impl FnMut(usize)) -> Vec<f64> {
    (0..samples)
        .map(|s| {
            let t0 = std::time::Instant::now();
            for i in 0..batch {
                op(s * batch + i);
            }
            t0.elapsed().as_secs_f64() / batch as f64
        })
        .collect()
}

/// Times `op` as [`per_call_s`] does, once on each CPU the process may
/// use, one CPU after another, and returns the mean of the per-CPU
/// median per-call times with the number of groups timed; `Err` with
/// the first failure of `op`. Where threads cannot be pinned it times
/// `op` once, unpinned.
///
/// A single-threaded figure depends on the core it ran on: on the 2-vCPU
/// virtual machine this was built on, one process's set-up took 1.5x as
/// long as the next one's, depending on the vCPU it landed on. Timing
/// every core and averaging does not depend on that.
pub fn per_call_s_per_core(
    samples: usize,
    batch: usize,
    op: impl Fn(usize) -> Result<(), String> + Sync,
) -> Result<(f64, usize), String> {
    let time_on = |cpu: Option<usize>| -> Result<f64, String> {
        if let Some(cpu) = cpu {
            if !crate::sys::pin_to_cpu(cpu) {
                return Err(format!("cannot pin a thread to CPU {cpu}"));
            }
        }
        let mut failure = None;
        let times = per_call_s(samples, batch, |i| {
            if let Err(e) = op(i) {
                failure.get_or_insert(e);
            }
        });
        failure.map_or_else(|| Ok(median(&times)), Err)
    };
    let mut cpus: Vec<Option<usize>> = crate::sys::allowed_cpus().into_iter().map(Some).collect();
    if cpus.is_empty() {
        cpus.push(None);
    }
    let mut medians = Vec::with_capacity(cpus.len());
    for &cpu in &cpus {
        // A scoped thread per CPU, so the pin ends with it.
        let median = std::thread::scope(|s| s.spawn(|| time_on(cpu)).join())
            .unwrap_or_else(|_| Err("set-up thread panicked".to_string()))?;
        medians.push(median);
    }
    Ok((
        medians.iter().sum::<f64>() / medians.len() as f64,
        medians.len() * samples,
    ))
}

/// The percentiles a tail is reported at, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples a tail needs strictly beyond its percentile to be reported.
pub const TAIL_SUPPORT: usize = 10;

/// The highest percentile among 99.9, 99, 95, 90 and 75 that has at
/// least [`TAIL_SUPPORT`] samples beyond its nearest-rank position,
/// with that percentile's value. `None` when even p75 is unsupported
/// (fewer than 40 samples).
pub fn supported_tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    TAIL_CANDIDATES.iter().find_map(|&p| {
        let rank = nearest_rank(n, p)?;
        (n - rank >= TAIL_SUPPORT).then(|| (p, sorted[rank - 1]))
    })
}

/// The 1-based nearest-rank position of percentile `p` among `n`
/// samples: `ceil(p/100 · n)`, clamped to `1..=n`.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // The epsilon keeps float error (99.9/100 · 10,000 = 9,990.000…02)
    // from rounding an exact rank up.
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// SplitMix64: a small, platform-independent generator, so every
/// input the benchmark derives from `--seed` is byte-identical
/// everywhere.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x7065_7266_6265_6e63)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over bytes, chainable through `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// A fresh scratch directory for one test, inside the checkout's
/// ignored `.bench_run/`.
#[cfg(test)]
pub fn test_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../.bench_run")
        .join(format!("test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        // 10,000 samples: p99.9 sits at rank 9,990 with 10 beyond.
        assert_eq!(supported_tail(&ramp(10_000)), Some((99.9, 9_990.0)));
        // 9,999 samples: p99.9 has 9 beyond, so p99 (rank 9,900).
        assert_eq!(supported_tail(&ramp(9_999)), Some((99.0, 9_900.0)));
        // 1,000 samples: p99 has exactly 10 beyond.
        assert_eq!(supported_tail(&ramp(1_000)), Some((99.0, 990.0)));
        // 999 samples: p99 rank 990 leaves 9, so p95.
        assert_eq!(supported_tail(&ramp(999)), Some((95.0, 950.0)));
        // 100 samples: p90 leaves 10.
        assert_eq!(supported_tail(&ramp(100)), Some((90.0, 90.0)));
        // 40 samples: p75 leaves 10; 39 leaves 9 and nothing is supported.
        assert_eq!(supported_tail(&ramp(40)), Some((75.0, 30.0)));
        assert_eq!(supported_tail(&ramp(39)), None);
        assert_eq!(supported_tail(&[]), None);
    }

    #[test]
    fn per_core_timing_covers_every_cpu_and_reports_the_first_failure() {
        let cpus = crate::sys::allowed_cpus().len().max(1);
        let (seconds, groups) = per_call_s_per_core(3, 4, |_| Ok(())).unwrap();
        assert!(seconds >= 0.0);
        assert_eq!(groups, 3 * cpus);
        let failed = per_call_s_per_core(3, 4, |i| {
            if i == 5 {
                Err(format!("call {i}"))
            } else {
                Ok(())
            }
        });
        assert_eq!(failed, Err("call 5".to_string()));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut values: Vec<f64> = (1..=1_000).map(|v| v as f64).collect();
        SplitMix::new(9).shuffle(&mut values);
        assert_eq!(supported_tail(&values), Some((99.0, 990.0)));
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
