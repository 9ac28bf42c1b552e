//! Host descriptors recorded with every run: logical CPUs and the share
//! of CPU time the hypervisor stole while the run measured. They explain
//! an outlier run; they are not metrics.

/// Logical CPUs this process may run on (what `nproc` prints).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTimes {
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    pub total: u64,
    /// steal.
    pub steal: u64,
}

/// Parses the `cpu` line of `/proc/stat`. `guest` time is already
/// counted in `user`, so it is left out of the total.
pub fn parse_cpu_line(line: &str) -> Option<CpuTimes> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let v: Vec<u64> = fields
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    if v.len() < 8 {
        return None;
    }
    Some(CpuTimes {
        total: v.iter().sum(),
        steal: v[7],
    })
}

/// Current aggregate CPU times; `None` where `/proc/stat` is unreadable.
pub fn cpu_times() -> Option<CpuTimes> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse_cpu_line(stat.lines().next()?)
}

/// Share of CPU time stolen between two readings, `0..=1`.
pub fn steal_share(before: Option<CpuTimes>, after: Option<CpuTimes>) -> Option<f64> {
    let (a, b) = (before?, after?);
    let total = b.total.checked_sub(a.total)?;
    let steal = b.steal.checked_sub(a.steal)?;
    (total > 0).then(|| steal as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_diffs_the_cpu_line() {
        let a = parse_cpu_line("cpu  100 0 50 800 10 0 5 35 0 0").unwrap();
        assert_eq!(
            a,
            CpuTimes {
                total: 1000,
                steal: 35
            }
        );
        let b = parse_cpu_line("cpu  200 0 100 1550 10 0 5 135 7 0").unwrap();
        assert_eq!(steal_share(Some(a), Some(b)), Some(0.1));
        assert!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8").is_none());
    }
}
