//! The host stamp every result carries, and the process's memory high-water
//! mark.

use std::process::Command;

use crate::json::Json;

/// Worker threads of every context: `min(available_parallelism, 4)`.
pub fn pool_threads() -> usize {
    available_parallelism().min(4)
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The 1-minute load average.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU time the hypervisor gave to other guests while this one wanted to run,
/// summed over the CPUs, in seconds (`steal` of `/proc/stat`, in the 1/100 s
/// ticks that file always uses).
fn steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks / 100.0)
}

/// Measures which share of the machine's CPU time was stolen over a stretch
/// of a run. The hypervisor does not report all interference this way, but
/// what it reports identifies a disturbed run beyond doubt.
pub struct StealWatch {
    start: std::time::Instant,
    stolen_s: Option<f64>,
}

impl StealWatch {
    pub fn start() -> Self {
        StealWatch {
            start: std::time::Instant::now(),
            stolen_s: steal_seconds(),
        }
    }

    /// Stolen share of `elapsed × CPUs` since [`StealWatch::start`].
    pub fn fraction(&self) -> Option<f64> {
        let stolen = steal_seconds()? - self.stolen_s?;
        let offered = self.start.elapsed().as_secs_f64() * available_parallelism() as f64;
        Some(stolen / offered)
    }
}

/// Where and with what the numbers were measured.
pub fn stamp(seed: u64, seconds: f64, quick: bool) -> Json {
    let unknown = || "unknown".to_string();
    Json::object([
        (
            "available_parallelism",
            Json::Number(available_parallelism() as f64),
        ),
        ("pool_threads", Json::Number(pool_threads() as f64)),
        (
            "cpu_model",
            proc_field("/proc/cpuinfo", "model name")
                .unwrap_or_else(unknown)
                .into(),
        ),
        ("simd", tiled_qr::kernels::simd::active().name().into()),
        (
            "rustc",
            command_line("rustc", &["-V"])
                .unwrap_or_else(unknown)
                .into(),
        ),
        (
            "git_rev",
            command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(unknown)
                .into(),
        ),
        ("seed", Json::Number(seed as f64)),
        ("seconds", Json::Number(seconds)),
        ("comparable", Json::Bool(!quick)),
        (
            "load_average_1m",
            load_average().map_or(Json::Null, Json::Number),
        ),
    ])
}

/// Resets the kernel's resident-set high-water mark to the current resident
/// set, so a later [`peak_rss_mib`] covers only what ran in between. Best
/// effort: where the kernel refuses, the mark covers the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM")?;
    let kib: f64 = field.split_whitespace().next()?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_names_the_host() {
        let s = stamp(3, 1.5, true);
        assert_eq!(s.get("seed").and_then(Json::as_f64), Some(3.0));
        assert_eq!(s.get("comparable"), Some(&Json::Bool(false)));
        assert!(s.get("pool_threads").and_then(Json::as_f64).unwrap() >= 1.0);
        for key in ["cpu_model", "simd", "rustc", "git_rev"] {
            assert!(
                !s.get(key).and_then(Json::as_str).unwrap().is_empty(),
                "{key}"
            );
        }
    }

    #[test]
    fn steal_is_a_share_of_the_offered_cpu_time() {
        let watch = StealWatch::start();
        std::thread::sleep(std::time::Duration::from_millis(20));
        if let Some(f) = watch.fraction() {
            assert!((0.0..=1.0).contains(&f), "{f}");
        }
    }

    #[test]
    fn peak_rss_is_positive_where_proc_exists() {
        if let Some(mib) = peak_rss_mib() {
            assert!(mib > 0.0);
        }
    }
}
