//! Peak resident set size of this process, read from `/proc/self/status`.
//!
//! One workload runs per process, so the high-water mark is that
//! workload's footprint and nothing else's.

/// Extracts `VmHWM` (peak resident set, kB) from the text of a
/// `/proc/<pid>/status` file.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// Peak resident set of the current process in MB (10^6 bytes), or
/// `None` where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_kernel_format() {
        let status =
            "Name:\tbench\nVmPeak:\t  123456 kB\nVmHWM:\t    5312 kB\nVmRSS:\t    4000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(5312));
    }

    #[test]
    fn rejects_missing_or_malformed_fields() {
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 4000 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb(""), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn reads_this_process() {
        assert!(peak_rss_mb().expect("/proc/self/status") > 0.1);
    }
}
