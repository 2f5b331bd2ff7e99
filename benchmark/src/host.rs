//! What the numbers were measured on: cores, threads, file system, commit.

use std::path::Path;
use std::sync::OnceLock;

use crate::json::Json;

/// `(cores the process was given, the one it pinned itself to)`, once
/// [`pin_to_one_cpu`] has run.
static PINNED: OnceLock<(usize, Option<usize>)> = OnceLock::new();

/// Cores the process was given (before it pinned itself to one of them).
pub fn nproc() -> usize {
    PINNED.get().map_or_else(
        || std::thread::available_parallelism().map_or(1, usize::from),
        |p| p.0,
    )
}

/// The CPU the run is pinned to, if pinning worked.
pub fn pinned_cpu() -> Option<usize> {
    PINNED.get().and_then(|p| p.1)
}

// The C library's wrappers (std links it); `cpu_set_t` is 1024 bits.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and so every thread started after it, to the
/// highest-numbered CPU the process may use. Call it before anything spawns.
///
/// The box gives the benchmark a few vCPUs of a shared host, and the system
/// under test alone runs more threads than that. Left to the scheduler, a
/// request's hops land on one vCPU or on two from run to run, and every hop
/// that crosses wakes a halted vCPU through the hypervisor: the same code
/// answered a depth-1 request in 18 us or in 140 us, and did 53 k or 116 k
/// requests/s, depending on nothing the program controls. On one CPU the
/// threads take turns and the figures repeat within a few percent - and are
/// higher than the two-vCPU ones.
pub fn pin_to_one_cpu() {
    PINNED.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let mut mask = [0u64; 16];
        let bytes = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a live, writable buffer of `bytes` bytes; pid 0
        // is the calling thread.
        if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
            return (cores, None);
        }
        let Some(cpu) = (0..mask.len() * 64)
            .rev()
            .find(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        else {
            return (cores, None);
        };
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a live buffer of `bytes` bytes naming one CPU the
        // thread is allowed on.
        let ok = unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0;
        (cores, ok.then_some(cpu))
    });
}

/// Threads alive in this process right now.
pub fn threads_now() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(1)
}

/// `(device, fs type)` of the mount that holds `path`, from `/proc/mounts`.
pub fn filesystem_of(path: &Path) -> (String, String) {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (dev, at, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(at).then_some((at.len(), dev, fs))
        })
        .max_by_key(|&(len, _, _)| len)
        .map_or(("unknown".into(), "unknown".into()), |(_, dev, fs)| {
            (dev.to_string(), fs.to_string())
        })
}

/// The checked-out commit, read from `.git` by hand (the driver's checkout
/// is not a repository; there it is "unknown").
pub fn commit_hash(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown" } else { head }.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Per-run facts a workload adds to the host block.
#[derive(Debug, Clone, Default)]
pub struct Load {
    pub driver_threads: usize,
    pub connections: usize,
    /// Threads of the process that are neither the main thread, a driver,
    /// nor a client-library demultiplexer: the system under test's own.
    pub server_threads: usize,
    /// `(phase name, seconds or count, what it is)`.
    pub phases: Vec<(String, f64, String)>,
}

impl Load {
    /// Samples the process's thread count between phases, when the driver
    /// threads are gone and `client_side` client-library threads are known
    /// to be alive.
    pub fn observe_threads(&mut self, client_side: usize) {
        let seen = threads_now().saturating_sub(1 + client_side);
        self.server_threads = self.server_threads.max(seen);
    }

    /// More threads than CPUs to run them on. Pinned to one CPU that is
    /// every run, by design: the threads take turns.
    pub fn oversubscribed(&self) -> bool {
        let cpus = if pinned_cpu().is_some() { 1 } else { nproc() };
        self.driver_threads + self.server_threads > cpus
    }
}

pub fn host_block(load: &Load, data_dir: &Path, repo_root: &Path, seed: u64) -> Json {
    let (dev, fs) = filesystem_of(data_dir);
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        (
            "pinned_cpu",
            pinned_cpu().map_or(Json::Null, |c| Json::Num(c as f64)),
        ),
        ("driver_threads", Json::Num(load.driver_threads as f64)),
        ("connections", Json::Num(load.connections as f64)),
        ("server_threads", Json::Num(load.server_threads as f64)),
        ("oversubscribed", Json::Bool(load.oversubscribed())),
        (
            "network",
            Json::str("loopback TCP inside one process, not a link"),
        ),
        ("data_dir_device", Json::Str(dev)),
        ("data_dir_filesystem", Json::Str(fs)),
        (
            "storage_note",
            Json::str("fsync latency is this sandbox's virtual disk, not a device's"),
        ),
        ("commit", Json::Str(commit_hash(repo_root))),
        ("seed", Json::Num(seed as f64)),
        (
            "phases",
            Json::Arr(
                load.phases
                    .iter()
                    .map(|(name, len, what)| {
                        Json::obj([
                            ("name", Json::str(name.as_str())),
                            ("length", Json::Num(*len)),
                            ("what", Json::str(what.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_facts_are_readable_here() {
        assert!(nproc() >= 1);
        assert!(threads_now() >= 1);
        let (_, fs) = filesystem_of(Path::new("/proc/self"));
        assert_eq!(fs, "proc");
        let missing = commit_hash(Path::new("/nonexistent-repo"));
        assert_eq!(missing, "unknown");
    }

    #[test]
    fn oversubscription_counts_drivers_and_server_threads() {
        let mut load = Load {
            driver_threads: nproc(),
            ..Load::default()
        };
        assert!(!load.oversubscribed());
        load.server_threads = 1;
        assert!(load.oversubscribed());
    }
}
