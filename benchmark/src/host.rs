//! What the benchmark needs from the host: one pinned core, a malloc that
//! behaves the same in every run, and the process counters (`/proc/self`)
//! the diagnostics read.

use std::path::Path;

/// Words in the affinity mask handed to the kernel: 1024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
}

/// Pins the calling thread to the highest-numbered CPU it is allowed on
/// and returns that CPU, or −1 when the kernel refuses (the run then
/// continues unpinned and says so). Call before any thread is spawned:
/// threads inherit the mask, so server, shard and client threads all land
/// on the one core and every timing is single-core wall-clock.
///
/// The highest CPU rather than CPU 0, which takes most device interrupts.
pub fn pin_to_one_cpu() -> i64 {
    let mut allowed = [0u64; MASK_WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the byte size
    // passed; pid 0 names the calling thread. The kernel writes at most
    // that many bytes.
    let got =
        unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if got != 0 {
        return -1;
    }
    let Some(cpu) = (0..MASK_WORDS * 64)
        .rev()
        .find(|&cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
    else {
        return -1;
    };
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the byte size passed,
    // and names a CPU the kernel just reported as allowed.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if set == 0 {
        cpu as i64
    } else {
        -1
    }
}

/// Gives the calling thread the highest ordinary scheduling priority
/// (nice −20) and returns the nice value it now runs at: −20, or 0 when the
/// kernel refuses (no `CAP_SYS_NICE`). Threads spawned afterwards inherit
/// it. Pinning chooses the core; this keeps whatever else the guest runs —
/// a build, a shell, a monitoring agent — from taking half of that core:
/// against a nice-0 competitor the pinned threads keep 99 % of it.
pub fn raise_priority() -> i64 {
    const PRIO_PROCESS: i32 = 0;
    // SAFETY: plain integer arguments; `who` 0 names the calling thread.
    let set = unsafe { setpriority(PRIO_PROCESS, 0, -20) };
    if set == 0 {
        -20
    } else {
        0
    }
}

/// Fixes glibc malloc's thresholds for the life of the process. Left alone,
/// malloc raises its mmap threshold the first time a large block is freed,
/// and whether the snapshot and batch buffers (hundreds of KiB) then come
/// from the heap or from a fresh `mmap` each time — page faults and zeroing
/// included — depends on the order in which the server's threads happened
/// to free theirs: whole runs of `tcp_durable` landed in one of two modes,
/// 8.4 or 10.5 ms per set-up, for the same seed. Setting either threshold
/// switches the adjustment off; with these values every block under 32 MiB
/// comes from the heap and the heap is never trimmed.
pub fn steady_malloc() {
    #[cfg(target_env = "gnu")]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: plain integer arguments; called before any other thread
        // exists, as glibc asks of `mallopt`.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, 512 << 20);
        }
    }
}

/// CPUs the OS reports as available to this process (before pinning).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The numeric value of a `Key:   123 kB`-style line of
/// `/proc/self/status`; 0 when the file or key is missing (non-Linux).
fn status_field(key: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Live threads of this process.
pub fn threads() -> u64 {
    status_field("Threads")
}

/// Peak resident set size in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM") as f64 / 1024.0
}

/// Context switches (voluntary + involuntary) summed over every live
/// thread of the process. Threads that already exited are not counted, so
/// read it while the phase being measured is still running its threads.
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut total = 0;
    for task in tasks.flatten() {
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        for line in status.lines() {
            if let Some(rest) = line
                .strip_prefix("voluntary_ctxt_switches:")
                .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
            {
                total += rest.trim().parse::<u64>().unwrap_or(0);
            }
        }
    }
    total
}

/// CPU seconds (user + system) the whole process has consumed, from
/// `/proc/self/stat` at the kernel's 100 Hz tick; 0 when unreadable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the closing paren.
    let Some(after) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// 1 when `dir` lives on a memory filesystem (tmpfs/ramfs), else 0 —
/// `fsync` is free on the former and a disk round trip on the latter, which
/// is most of what separates two hosts' `tcp_durable` numbers.
pub fn on_memory_fs(dir: &Path) -> u64 {
    let (Ok(dir), Ok(mounts)) = (
        dir.canonicalize(),
        std::fs::read_to_string("/proc/self/mounts"),
    ) else {
        return 0;
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace().skip(1);
            Some((fields.next()?, fields.next()?))
        })
        .filter(|(mount, _)| dir.starts_with(mount))
        .max_by_key(|(mount, _)| mount.len())
        .map_or(0, |(_, fs)| u64::from(fs == "tmpfs" || fs == "ramfs"))
}
