//! Accounting read from `/proc/self`: per-thread on-CPU and run-queue
//! time, system-call counts and the resident-set high-water mark. All of
//! it is the process looking at itself; nothing here touches the program
//! under test.

use std::fs;

/// One thread's scheduler accounting at an instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadSample {
    pub tid: u32,
    /// The kernel's 15-byte thread name.
    pub name: String,
    pub on_cpu_ns: u64,
    pub runq_wait_ns: u64,
    /// Times the thread was put on a CPU.
    pub timeslices: u64,
}

/// The process's accounting at an instant.
#[derive(Debug, Clone, Default)]
pub struct ProcSample {
    pub threads: Vec<ThreadSample>,
    /// `syscr + syscw` of `/proc/self/io`: `read`- and `write`-class calls.
    /// Socket I/O through `recv` and `send` is not in it.
    pub io_syscalls: u64,
}

/// The three fields of one `schedstat` line: on-CPU nanoseconds,
/// run-queue-wait nanoseconds, timeslices.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64, u64)> {
    let mut fields = text.split_ascii_whitespace().map(|f| f.parse().ok());
    Some((fields.next()??, fields.next()??, fields.next()??))
}

/// `syscr + syscw` of a `/proc/<pid>/io` file.
pub fn parse_io_syscalls(text: &str) -> Option<u64> {
    let field = |key: &str| -> Option<u64> {
        text.lines().find_map(|l| l.strip_prefix(key)?.trim().parse().ok())
    };
    Some(field("syscr:")? + field("syscw:")?)
}

/// `VmHWM` of a `/proc/<pid>/status` file, in KiB.
pub fn parse_vm_hwm_kib(text: &str) -> Option<u64> {
    let rest = text.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Samples every live thread of this process. Threads that exit between
/// the directory listing and the read are skipped.
pub fn sample() -> ProcSample {
    let mut threads = Vec::new();
    if let Ok(entries) = fs::read_dir("/proc/self/task") {
        for entry in entries.flatten() {
            let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
                continue;
            };
            let dir = entry.path();
            let Some((on_cpu_ns, runq_wait_ns, timeslices)) =
                fs::read_to_string(dir.join("schedstat")).ok().and_then(|s| parse_schedstat(&s))
            else {
                continue;
            };
            let name = fs::read_to_string(dir.join("comm")).unwrap_or_default();
            threads.push(ThreadSample {
                tid,
                name: name.trim_end().to_owned(),
                on_cpu_ns,
                runq_wait_ns,
                timeslices,
            });
        }
    }
    let io_syscalls =
        fs::read_to_string("/proc/self/io").ok().and_then(|s| parse_io_syscalls(&s)).unwrap_or(0);
    ProcSample { threads, io_syscalls }
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let kib = fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kib(&s))
        .unwrap_or(0);
    kib as f64 / 1024.0
}

/// What the threads whose name starts with a prefix did between two
/// samples. Only threads alive at both ends count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuDelta {
    pub on_cpu_ns: u64,
    pub runq_wait_ns: u64,
    pub timeslices: u64,
}

impl ProcSample {
    /// Accounting accrued since `earlier` by threads named `prefix*`
    /// (the empty prefix selects every thread).
    pub fn since(&self, earlier: &ProcSample, prefix: &str) -> CpuDelta {
        let mut delta = CpuDelta::default();
        for now in self.threads.iter().filter(|t| t.name.starts_with(prefix)) {
            if let Some(then) = earlier.threads.iter().find(|t| t.tid == now.tid) {
                delta.on_cpu_ns += now.on_cpu_ns.saturating_sub(then.on_cpu_ns);
                delta.runq_wait_ns += now.runq_wait_ns.saturating_sub(then.runq_wait_ns);
                delta.timeslices += now.timeslices.saturating_sub(then.timeslices);
            }
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_line() {
        assert_eq!(parse_schedstat("515448257 8783161 36\n"), Some((515_448_257, 8_783_161, 36)));
        assert_eq!(parse_schedstat("12 13"), None);
        assert_eq!(parse_schedstat("a b c"), None);
    }

    #[test]
    fn io_file() {
        let text = "rchar: 3980\nwchar: 0\nsyscr: 9\nsyscw: 34\nread_bytes: 0\n";
        assert_eq!(parse_io_syscalls(text), Some(43));
        assert_eq!(parse_io_syscalls("rchar: 1\n"), None);
    }

    #[test]
    fn status_file() {
        let text = "Name:\tcat\nVmPeak:\t    5000 kB\nVmHWM:\t    1744 kB\nVmRSS:\t    1700 kB\n";
        assert_eq!(parse_vm_hwm_kib(text), Some(1744));
        assert_eq!(parse_vm_hwm_kib("VmRSS: 1 kB\n"), None);
    }

    #[test]
    fn deltas_select_by_name_prefix_and_skip_new_threads() {
        let t = |tid, name: &str, cpu, wait| ThreadSample {
            tid,
            name: name.to_owned(),
            on_cpu_ns: cpu,
            runq_wait_ns: wait,
            timeslices: cpu / 5,
        };
        let a =
            ProcSample { threads: vec![t(1, "gen", 10, 1), t(2, "rjms-x", 5, 0)], io_syscalls: 0 };
        let b = ProcSample {
            threads: vec![t(1, "gen", 30, 4), t(2, "rjms-x", 6, 2), t(3, "rjms-y", 99, 9)],
            io_syscalls: 0,
        };
        assert_eq!(b.since(&a, "rjms"), CpuDelta { on_cpu_ns: 1, runq_wait_ns: 2, timeslices: 0 });
        assert_eq!(b.since(&a, ""), CpuDelta { on_cpu_ns: 21, runq_wait_ns: 5, timeslices: 4 });
    }

    #[test]
    fn live_sample_sees_this_thread() {
        let s = sample();
        assert!(!s.threads.is_empty());
        assert!(peak_rss_mib() > 0.0);
    }
}
