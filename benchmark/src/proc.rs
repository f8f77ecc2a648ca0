//! Process accounting read from `/proc/self` (Linux only; elsewhere the
//! readings are 0 and the benchmark says so in the README).

/// User + system CPU time of this process so far, in milliseconds.
pub fn cpu_ms() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the
    // parenthesised command name (which may itself contain spaces).
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some(after) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    // USER_HZ is 100 on every Linux ABI this repository targets.
    ticks as f64 * 10.0
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn proc_readings_are_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(super::peak_rss_mb() > 0.0);
            let t0 = std::time::Instant::now();
            while t0.elapsed().as_millis() < 30 {
                std::hint::black_box(0u64);
            }
            assert!(super::cpu_ms() > 0.0);
        }
    }
}
