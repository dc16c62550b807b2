//! Peak resident set size of this process.

/// `VmHWM` from `/proc/self/status`, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_hwm(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn parse_vm_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_high_water_mark_line() {
        let status = "Name:\tx\nVmPeak:\t  99999 kB\nVmHWM:\t   13124 kB\nVmRSS:\t  7972 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(13124.0 / 1024.0));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
    }
}
