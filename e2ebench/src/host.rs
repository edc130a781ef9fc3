//! Host facts recorded with every run, and the process's peak RSS.

use aggprov_engine::ExecOptions;

/// `VmHWM` of this process, in MB (NaN where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One line of host facts: CPUs, the engine's thread count as it will
/// actually run, whether `AGGPROV_THREADS` was set, the build profile and
/// the commit (when the checkout is a git repository).
pub fn facts() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = ExecOptions::from_env()
        .map_or_else(|e| format!("\"error: {e}\""), |o| o.threads().to_string());
    let env_set = std::env::var_os(aggprov_core::par::THREADS_ENV).is_some();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    // Only a checkout that is itself a repository names its commit; git
    // would otherwise report whatever repository encloses the directory.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"host_cpus\":{cpus},\"engine_threads\":{threads},\"aggprov_threads_set\":{env_set},\"profile\":\"{profile}\",\"commit\":\"{commit}\"}}"
    )
}
