//! Measurement helpers: percentiles with a sample-support rule, span self time, and
//! the `/proc` readings (process I/O bytes, peak resident memory).

use std::fmt;

/// Samples a percentile needs strictly above its rank before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was not reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Unsupported {
    pub q: f64,
    pub samples: usize,
    pub beyond: usize,
}

impl fmt::Display for Unsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} not reported: {} samples leave {} beyond it, {} needed",
            self.q * 100.0,
            self.samples,
            self.beyond,
            MIN_BEYOND
        )
    }
}

/// The 1-based nearest rank of percentile `q` among `n` samples, given only when at
/// least [`MIN_BEYOND`] samples lie beyond it (so p99 needs 1,000 samples, p50 needs 20).
pub fn rank(n: usize, q: f64) -> Result<usize, Unsupported> {
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(Unsupported {
            q,
            samples: n,
            beyond,
        });
    }
    Ok(rank)
}

/// Buckets per power of two (and the values below which every value has a bucket of
/// its own).
const SUB: u64 = 64;
const SUB_BITS: u32 = SUB.trailing_zeros();
/// Buckets up to 2^40 ns (18 minutes); longer values count in the last one.
const BUCKETS: usize = ((40 - SUB_BITS + 1) as u64 * SUB) as usize;

fn bucket(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() - SUB_BITS;
    let i = (shift as u64 + 1) * SUB + (ns >> shift) - SUB;
    (i as usize).min(BUCKETS - 1)
}

/// The lowest value of bucket `i` and its width.
fn bucket_range(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, 1);
    }
    let shift = i / SUB - 1;
    ((i % SUB + SUB) << shift, 1 << shift)
}

/// A set of latencies in nanoseconds, kept as a histogram of fixed size: its memory
/// does not grow with the number of samples, so a faster program does not grow the
/// benchmark's own share of `peak_rss_mib`. Values below 64 ns are exact; above, each
/// power of two has 64 buckets, and a percentile is placed inside its bucket by rank,
/// so it is within 1/64 of the sample it stands for.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    /// Samples per bucket; empty until the first sample.
    counts: Vec<u64>,
    n: usize,
    sum_ns: u64,
}

impl Latencies {
    pub fn push(&mut self, ns: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[bucket(ns)] += 1;
        self.n += 1;
        self.sum_ns += ns;
    }

    pub fn extend(&mut self, other: &Latencies) {
        if other.counts.is_empty() {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum_ns += other.sum_ns;
    }

    pub fn len(&self) -> usize {
        self.n
    }

    /// Percentile `q` in microseconds.
    pub fn us(&self, q: f64) -> Result<f64, Unsupported> {
        let r = rank(self.n, q)? as u64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if below + c >= r {
                let (lo, width) = bucket_range(i);
                if width == 1 {
                    return Ok(lo as f64 / 1e3);
                }
                let within = (r - below) as f64 - 0.5;
                let ns = lo as f64 + width as f64 * within / c as f64;
                return Ok(ns / 1e3);
            }
            below += c;
        }
        unreachable!("rank {r} is within the {} samples", self.n)
    }

    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }
}

/// Length of one sub-window of a measured window.
pub const SUB_WINDOW_SECONDS: f64 = 2.0;

/// A measured window cut into equal sub-windows. Each timing metric is taken per
/// sub-window and reported as the median over them, so one stall of the shared disk
/// moves one sub-window, not the run.
#[derive(Debug, Clone, Copy)]
pub struct Cuts {
    pub n: usize,
    pub sub_ns: u64,
}

impl Cuts {
    pub fn new(window_seconds: f64) -> Self {
        let n = ((window_seconds / SUB_WINDOW_SECONDS).floor() as usize).max(1);
        Cuts {
            n,
            sub_ns: (window_seconds * 1e9 / n as f64) as u64,
        }
    }

    /// The whole window as one piece.
    pub fn whole() -> Self {
        Cuts {
            n: 1,
            sub_ns: u64::MAX,
        }
    }

    /// The sub-window of an event `ns` after the window started, if inside it.
    pub fn index(&self, ns: u64) -> Option<usize> {
        let i = (ns / self.sub_ns) as usize;
        (i < self.n).then_some(i)
    }

    /// Median over sub-windows of events per second.
    pub fn median_rate(&self, counts: &[u64]) -> f64 {
        let secs = self.sub_ns as f64 / 1e9;
        median(&counts.iter().map(|&c| c as f64 / secs).collect::<Vec<_>>())
    }
}

/// Median over rounds (sub-windows or repetitions) of each round's percentile `q`, in
/// µs. Every round must support the percentile.
pub fn median_pct(rounds: &[Latencies], q: f64) -> Result<f64, Unsupported> {
    let per: Result<Vec<f64>, Unsupported> = rounds.iter().map(|l| l.us(q)).collect();
    Ok(median(&per?))
}

/// Median of a non-empty list of measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Self time of a span `[start, end)`: its length minus the part its children cover.
/// Every child must lie inside the parent.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> Result<u64, String> {
    let (start, end) = parent;
    if end < start {
        return Err(format!("span ends before it starts: [{start}, {end})"));
    }
    let mut kids = children.to_vec();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = start;
    for &(s, e) in &kids {
        if s < start || e > end || e < s {
            return Err(format!(
                "child [{s}, {e}) does not nest in parent [{start}, {end})"
            ));
        }
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (end - start)
        .checked_sub(covered)
        .ok_or_else(|| format!("negative self time in [{start}, {end})"))
}

/// `write_bytes` from the text of `/proc/<pid>/io`: bytes this process caused to be
/// sent to the storage layer.
pub fn parse_io_write_bytes(text: &str) -> Result<u64, String> {
    field(text, "write_bytes:")?
        .parse()
        .map_err(|e| format!("bad write_bytes in /proc io: {e}"))
}

/// Peak resident set (`VmHWM`) in MiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mib(text: &str) -> Result<f64, String> {
    let raw = field(text, "VmHWM:")?;
    let kib: u64 = raw
        .strip_suffix("kB")
        .ok_or_else(|| format!("VmHWM is not in kB: {raw:?}"))?
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM: {e}"))?;
    Ok(kib as f64 / 1024.0)
}

fn field<'a>(text: &'a str, name: &str) -> Result<&'a str, String> {
    text.lines()
        .find_map(|l| l.strip_prefix(name))
        .map(str::trim)
        .ok_or_else(|| format!("no {name} line"))
}

pub fn process_write_bytes() -> Result<u64, String> {
    let text =
        std::fs::read_to_string("/proc/self/io").map_err(|e| format!("/proc/self/io: {e}"))?;
    parse_io_write_bytes(&text)
}

pub fn peak_rss_mib() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_mib(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let err = rank(999, 0.99).unwrap_err();
        assert_eq!((err.samples, err.beyond), (999, 10 - 1));
        assert!(err.to_string().contains("p99 not reported"));
        assert_eq!(rank(1000, 0.99), Ok(990));
        assert_eq!(rank(1000, 0.5), Ok(500));
    }

    #[test]
    fn small_samples_say_so() {
        assert!(rank(0, 0.5).is_err());
        assert!(rank(19, 0.5).is_err());
        assert_eq!(rank(20, 0.5), Ok(10));
        assert!(Latencies::default().us(0.5).is_err());
    }

    #[test]
    fn buckets_cover_every_value_in_order() {
        let mut last = 0;
        for ns in (0..5000).chain([1 << 20, (1 << 20) + 1, 1 << 39, u64::MAX]) {
            let i = bucket(ns);
            assert!(i >= last, "bucket of {ns} goes backwards");
            last = i;
            let (lo, width) = bucket_range(i);
            if ns < 1 << 40 {
                assert!(
                    lo <= ns && ns < lo + width,
                    "{ns} outside bucket [{lo}, +{width})"
                );
                assert!(
                    width == 1 || width * SUB <= lo,
                    "bucket of {ns} is too wide"
                );
            }
        }
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn latencies_report_microseconds() {
        let mut l = Latencies::default();
        for ns in (1..=2000).rev() {
            l.push(ns * 1000);
        }
        let near = |got: f64, want: f64| (got - want).abs() <= want / SUB as f64;
        assert!(near(l.us(0.5).unwrap(), 1000.0), "{:?}", l.us(0.5));
        assert!(near(l.us(0.99).unwrap(), 1980.0), "{:?}", l.us(0.99));
        assert_eq!(l.len(), 2000);
        assert_eq!(l.sum_ns(), 1000 * 2000 * 2001 / 2);
        // Small values are exact.
        let mut small = Latencies::default();
        (0..40).for_each(|ns| small.push(ns));
        assert_eq!(small.us(0.5), Ok(0.019));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), Ok(100));
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), Ok(70));
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 50)]), Ok(60));
        assert_eq!(self_time((0, 100), &[(0, 100)]), Ok(0));
    }

    #[test]
    fn self_time_rejects_children_outside_the_parent() {
        assert!(self_time((10, 100), &[(5, 20)]).is_err());
        assert!(self_time((10, 100), &[(50, 101)]).is_err());
        assert!(self_time((10, 5), &[]).is_err());
    }

    #[test]
    fn parses_proc_io() {
        let text = "rchar: 3980\nwchar: 12\nsyscr: 9\nsyscw: 1\nread_bytes: 0\n\
                    write_bytes: 4214784\ncancelled_write_bytes: 0\n";
        assert_eq!(parse_io_write_bytes(text), Ok(4_214_784));
        assert!(parse_io_write_bytes("rchar: 1\n").is_err());
    }

    #[test]
    fn parses_vm_hwm() {
        let text = "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_mib(text), Ok(2.0));
        assert!(parse_vm_hwm_mib("VmHWM:\t12 MB\n").is_err());
        assert!(parse_vm_hwm_mib("VmRSS:\t12 kB\n").is_err());
    }

    #[test]
    fn cuts_split_the_window_and_take_medians() {
        let c = Cuts::new(10.0);
        assert_eq!((c.n, c.sub_ns), (5, 2_000_000_000));
        assert_eq!(c.index(0), Some(0));
        assert_eq!(c.index(9_999_999_999), Some(4));
        assert_eq!(c.index(10_000_000_000), None);
        assert_eq!(c.median_rate(&[10, 2, 40, 20, 30]), 10.0);
        assert_eq!(Cuts::new(0.5).n, 1);
        let rounds: Vec<Latencies> = (1..=3u64)
            .map(|r| {
                let mut l = Latencies::default();
                (0..100).for_each(|i| l.push(r * 1000 + i));
                l
            })
            .collect();
        let p50 = median_pct(&rounds, 0.5).unwrap();
        assert!((p50 - 2.049).abs() < 2.049 / SUB as f64, "{p50}");
        assert!(median_pct(&rounds, 0.99).is_err());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
