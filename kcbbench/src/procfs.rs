//! Resource counters read from `/proc`, so every figure about the program
//! under test is taken from outside it.
//!
//! - `wchar` of `/proc/self/io`: a reaped child's I/O counters are folded
//!   into its parent's, so the benchmark's own delta across spawning and
//!   reaping one child is the bytes that child handed to write-family
//!   syscalls. `write_bytes` is not used: it follows page-cache writeback,
//!   which lands whenever the kernel flushes, not when the program writes.
//! - `VmHWM` of `/proc/<pid>/status`: the peak resident set of a live
//!   process. The kernel drops it when the process exits, so a child's
//!   peak is the last value a poller saw.
//! - `cutime + cstime` of `/proc/self/stat`: CPU time of reaped children.

use std::path::Path;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, which Linux fixes at 100 on every architecture it exports
/// to user space).
pub const CLOCK_TICKS_PER_S: f64 = 100.0;

/// The `wchar` line of a `/proc/<pid>/io` document.
pub fn parse_wchar(io: &str) -> Option<u64> {
    io.lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
}

/// The `VmHWM` line of a `/proc/<pid>/status` document, in kB. `None` for
/// a process without an address space (a zombie or a kernel thread).
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
}

/// `cutime + cstime` (fields 16 and 17) of a `/proc/<pid>/stat` line, in
/// clock ticks.
pub fn parse_children_cpu_ticks(stat: &str) -> Option<u64> {
    // Field 2 is the command name in parentheses and may itself hold
    // spaces or parentheses; the fields after the last ')' start at 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let cutime: u64 = fields.get(16 - 3)?.parse().ok()?;
    let cstime: u64 = fields.get(17 - 3)?.parse().ok()?;
    Some(cutime + cstime)
}

fn read(path: impl AsRef<Path>) -> std::io::Result<String> {
    std::fs::read_to_string(path)
}

fn malformed(what: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("no {what} in /proc"),
    )
}

/// This process's `wchar`, reaped children included.
pub fn self_wchar() -> std::io::Result<u64> {
    parse_wchar(&read("/proc/self/io")?).ok_or_else(|| malformed("wchar"))
}

/// CPU seconds (user + system) of this process's reaped children.
pub fn self_children_cpu_s() -> std::io::Result<f64> {
    let ticks =
        parse_children_cpu_ticks(&read("/proc/self/stat")?).ok_or_else(|| malformed("cutime"))?;
    Ok(ticks as f64 / CLOCK_TICKS_PER_S)
}

/// Peak resident set of a live process, in kB; `None` once it has exited.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    read(format!("/proc/{pid}/status"))
        .ok()
        .as_deref()
        .and_then(parse_vm_hwm_kb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wchar_is_read_from_its_own_line() {
        let io = "rchar: 4096\nwchar: 28064263\nsyscr: 10\nsyscw: 7\n\
                  read_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n";
        assert_eq!(parse_wchar(io), Some(28_064_263));
        assert_eq!(parse_wchar("rchar: 1\n"), None);
    }

    #[test]
    fn vm_hwm_is_in_kb_and_absent_for_zombies() {
        let live = "Name:\trepro\nVmPeak:\t  912340 kB\nVmHWM:\t  301544 kB\nVmRSS:\t 12 kB\n";
        assert_eq!(parse_vm_hwm_kb(live), Some(301_544));
        let zombie = "Name:\trepro\nState:\tZ (zombie)\nThreads:\t1\n";
        assert_eq!(parse_vm_hwm_kb(zombie), None);
    }

    #[test]
    fn children_cpu_skips_a_command_name_with_spaces_and_parens() {
        // Fields 3..=17 after the name: state ppid pgrp session tty tpgid
        // flags minflt cminflt majflt cmajflt utime stime cutime cstime.
        let stat = "4242 (my (odd) name) S 1 4242 4242 0 -1 4194560 10 20 0 0 \
                    7 3 1544 29 20 0 1 0 12345 0 0";
        assert_eq!(parse_children_cpu_ticks(stat), Some(1544 + 29));
        assert_eq!(parse_children_cpu_ticks("4242 (short) S 1 2"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        assert!(self_wchar().is_ok());
        assert!(self_children_cpu_s().expect("stat") >= 0.0);
        assert!(vm_hwm_kb(std::process::id()).expect("own status") > 0);
    }
}
