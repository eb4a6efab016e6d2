//! Timing, process accounting and result formatting shared by the
//! workloads.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Each key's fastest sample: the minimum of the values that share a
/// key, in key order. Host noise (steal, preemption) only ever adds time,
/// so the fastest of an op's repetitions follows the op's own cost.
pub fn fastest_per_key(samples: impl IntoIterator<Item = (usize, f64)>) -> Vec<f64> {
    per_key(samples, |v| v.iter().copied().fold(f64::INFINITY, f64::min))
}

/// `stat` of the values that share a key, for each key in key order.
pub fn per_key(
    samples: impl IntoIterator<Item = (usize, f64)>,
    stat: impl Fn(&[f64]) -> f64,
) -> Vec<f64> {
    let mut groups: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (key, v) in samples {
        groups.entry(key).or_default().push(v);
    }
    groups.values().map(|g| stat(g)).collect()
}

/// The fastest of each run of `n` consecutive samples.
pub fn block_min(values: &[f64], n: usize) -> Vec<f64> {
    values
        .chunks(n)
        .map(|c| c.iter().copied().fold(f64::INFINITY, f64::min))
        .collect()
}

/// Equal slices a timed window is cut into for the throughput metric.
pub const SLICES: usize = 5;

/// Latencies (or any per-op value) with the time each op completed.
#[derive(Default)]
pub struct Timeline {
    /// `(seconds into the window, value)`.
    pub samples: Vec<(f64, f64)>,
}

impl Timeline {
    pub fn push(&mut self, done_s: f64, value: f64) {
        self.samples.push((done_s, value));
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn extend(&mut self, other: &Timeline) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// `stat` of the values completed in each of [`SLICES`] equal slices
    /// of a `secs`-second window, and the median over the slices:
    /// a burst of host noise shorter than a slice moves one slice, not
    /// the result.
    pub fn slice_median(&self, secs: f64, stat: impl Fn(&[f64]) -> f64) -> f64 {
        let n = SLICES;
        let mut slices = vec![Vec::new(); n];
        for &(t, v) in &self.samples {
            let i = (t / secs * n as f64) as usize;
            slices[i.min(n - 1)].push(v);
        }
        median(&slices.iter().map(|s| stat(s)).collect::<Vec<_>>())
    }

    /// Median over slices of the slice's completions per second.
    pub fn rate(&self, secs: f64) -> f64 {
        self.slice_median(secs, |s| s.len() as f64 / (secs / SLICES as f64))
    }
}

/// Microseconds since `t0`.
pub fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64 / 1e3
}

/// User + system CPU of the whole process (every thread, live or
/// exited), in microseconds, from `/proc/self/stat`.
pub fn process_cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    // Linux reports these in USER_HZ, which is 100 on every mainstream
    // architecture.
    ticks as f64 * 1e4
}

/// Cumulative `(steal, total)` ticks of all CPUs from `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of CPU time a hypervisor took from the machine between two
/// [`cpu_ticks`] readings, in percent.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1).max(1);
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Peak resident set of the process (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb * 1024.0 / 1e6
}

/// Sizes of the page files and WALs under a durable executor directory.
pub fn durable_bytes(dir: &Path) -> (u64, u64) {
    let mut pages = 0;
    let mut wal = 0;
    for entry in std::fs::read_dir(dir).expect("listing the durable directory") {
        let entry = entry.expect("directory entry");
        let len = entry.metadata().expect("file metadata").len();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".pages") {
            pages += len;
        } else if name.ends_with(".wal") {
            wal += len;
        }
    }
    (pages, wal)
}

/// Bytes of live user data: per row, an 8-byte tid plus a 4-byte item id
/// per item — the row as a client sends it.
pub fn user_bytes<'a>(rows: impl Iterator<Item = &'a Vec<u32>>) -> u64 {
    rows.map(|r| 8 + 4 * r.len() as u64).sum()
}

/// The commit the checkout was made from, when it carries git metadata.
pub fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown (no .git in the checkout)".into(),
    }
}

/// One reported metric.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in insertion-independent (sorted) order.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, Metric>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, Metric { value, unit });
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, m)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    pub fn print_table(&self) {
        for (name, m) in &self.0 {
            println!("  {name:<36} {:>16.4} {}", m.value, m.unit);
        }
    }
}

/// A finite JSON number with all its digits.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// A JSON string literal (the labels carry only printable ASCII).
pub fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&s), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn slice_medians_ignore_one_bad_slice() {
        let mut t = Timeline::default();
        for i in 0..1000 {
            let at = i as f64 / 100.0;
            // The second slice of a 10 s window is ten times slower.
            t.push(
                at,
                if (2.0..4.0).contains(&at) {
                    100.0
                } else {
                    10.0
                },
            );
        }
        assert_eq!(t.slice_median(10.0, median), 10.0);
        assert_eq!(t.slice_median(10.0, |s| percentile(s, 99.0)), 10.0);
        assert_eq!(t.rate(10.0), 100.0);
    }

    #[test]
    fn fastest_samples_drop_the_slow_repetitions() {
        let runs = [(2, 5.0), (0, 9.0), (2, 3.0), (0, 4.0), (1, 7.0)];
        assert_eq!(fastest_per_key(runs), vec![4.0, 7.0, 3.0]);
        assert_eq!(per_key(runs, median), vec![4.0, 7.0, 3.0]);
        assert_eq!(per_key(runs, |v| v.len() as f64), vec![2.0, 1.0, 2.0]);
        assert_eq!(
            block_min(&[5.0, 1.0, 8.0, 9.0, 2.0], 2),
            vec![1.0, 8.0, 2.0]
        );
    }

    #[test]
    fn process_counters_read() {
        assert!(process_cpu_us() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
