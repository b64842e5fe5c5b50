//! Parsers for the few `/proc/self` files the benchmark reads: CPU time
//! (`stat`, the fallback of the CPU-time clocks), I/O counters (`io`),
//! resident memory (`status`) and the filesystem type under a path
//! (`mountinfo`).

use std::path::Path;

/// Clock ticks per second of `utime`/`stime` (`USER_HZ`, 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds from a `stat` line (`/proc/self/stat`
/// for the process, `/proc/thread-self/stat` for one thread).
pub fn parse_stat_cpu_s(text: &str) -> Option<f64> {
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After ')': state is field 3 of the line, utime 14 and stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// The `key: value` counters of `/proc/self/io`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounters {
    pub syscw: u64,
    pub wchar: u64,
    pub write_bytes: u64,
}

pub fn parse_io(text: &str) -> IoCounters {
    let mut io = IoCounters::default();
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let Ok(value) = value.trim().parse() else {
            continue;
        };
        match key.trim() {
            "syscw" => io.syscw = value,
            "wchar" => io.wchar = value,
            "write_bytes" => io.write_bytes = value,
            _ => {}
        }
    }
    io
}

/// `VmRSS` of a `/proc/self/status` text, in bytes.
pub fn parse_status_rss_bytes(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line["VmRSS:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// The filesystem type of the longest mount point that is a prefix of
/// `path` (absolute), from a `mountinfo` text.
pub fn parse_mountinfo_fstype(text: &str, path: &Path) -> Option<String> {
    let mut best: Option<(usize, String)> = None;
    for line in text.lines() {
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount_point), Some(fstype)) = (
            left.split_whitespace().nth(4),
            right.split_whitespace().next(),
        ) else {
            continue;
        };
        if path.starts_with(mount_point)
            && best
                .as_ref()
                .is_none_or(|(len, _)| mount_point.len() > *len)
        {
            best = Some((mount_point.len(), fstype.to_string()));
        }
    }
    best.map(|(_, fstype)| fstype)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// A CPU-time clock's reading in seconds, to the nanosecond: `stat`'s
/// 10 ms ticks are too coarse to time a few tens of milliseconds. `stat`
/// is the fallback.
fn cpu_clock_s(clock: i32, stat: &str) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on).
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return parse_stat_cpu_s(&read(stat)).unwrap_or(0.0);
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds the whole process has used.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID, "/proc/self/stat")
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID, "/proc/thread-self/stat")
}

pub fn io() -> IoCounters {
    parse_io(&read("/proc/self/io"))
}

pub fn rss_bytes() -> u64 {
    parse_status_rss_bytes(&read("/proc/self/status")).unwrap_or(0)
}

pub fn fstype(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    parse_mountinfo_fstype(&read("/proc/self/mountinfo"), &path).unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_spaces_in_the_command_name() {
        let line = "4242 (perf bench) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 75 0 0 20 0 3 0 \
                    99 123456 789 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(parse_stat_cpu_s(line), Some(3.25));
        assert_eq!(parse_stat_cpu_s("garbage"), None);
    }

    #[test]
    fn io_counters_parse_by_key() {
        let text = "rchar: 3980\nwchar: 512\nsyscr: 9\nsyscw: 4\nread_bytes: 0\n\
                    write_bytes: 8192\ncancelled_write_bytes: 0\n";
        assert_eq!(
            parse_io(text),
            IoCounters {
                syscw: 4,
                wchar: 512,
                write_bytes: 8192
            }
        );
        assert_eq!(parse_io(""), IoCounters::default());
    }

    #[test]
    fn status_rss_is_in_bytes() {
        let text = "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmRSS:\t    1536 kB\nThreads:\t3\n";
        assert_eq!(parse_status_rss_bytes(text), Some(1536 * 1024));
        assert_eq!(parse_status_rss_bytes("Name: x\n"), None);
    }

    #[test]
    fn mountinfo_picks_the_longest_prefix() {
        let text = "22 1 252:0 / / rw,relatime shared:1 - ext4 /dev/vda rw\n\
                    30 22 0:26 / /dev/shm rw,nosuid shared:2 - tmpfs tmpfs rw,size=1024k\n";
        let fs = |p: &str| parse_mountinfo_fstype(text, Path::new(p));
        assert_eq!(fs("/dev/shm/j.log").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/home/x").as_deref(), Some("ext4"));
        // A sibling sharing a string prefix is not under the mount.
        assert_eq!(fs("/dev/shmx").as_deref(), Some("ext4"));
    }
}
