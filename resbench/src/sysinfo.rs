//! Process CPU, context-switch and memory figures from `/proc/self`.

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 by the Linux ABI on every mainstream architecture).
const USER_HZ: f64 = 100.0;

/// Cumulative CPU seconds of the whole process, threads that already
/// exited included: `(user, sys)`.
pub fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields after its
    // closing parenthesis are space separated, utime and stime being
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) / USER_HZ, ticks(12) / USER_HZ)
}

/// Voluntary plus involuntary context switches summed over the live
/// threads of this process (the simmpi pool threads live for the whole
/// run, so deltas over a run count their switches).
pub fn context_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .map(|task| {
            let status = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
            status_field(&status, "voluntary_ctxt_switches:")
                + status_field(&status, "nonvoluntary_ctxt_switches:")
        })
        .sum()
}

/// High-water resident set size of the process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM:") as f64 / 1024.0
}

fn status_field(status: &str, name: &str) -> u64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(name))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Logical CPUs available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    #[test]
    fn proc_figures_are_readable() {
        let (user, sys) = super::cpu_seconds();
        assert!(user >= 0.0 && sys >= 0.0);
        assert!(super::peak_rss_mib() > 0.0);
        assert!(super::context_switches() > 0);
    }
}
