//! Running `hsa` as a child process with exact kernel accounting: each
//! batch child is reaped with `wait4`, whose resource usage carries the
//! child's own peak resident set; a long-lived server's peak is its
//! `VmHWM`, read while it runs.

use std::io::{self, Read};
use std::os::raw::{c_int, c_long};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux process accounting (wait4, /proc) on a 64-bit target");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    /// Peak resident set in KiB.
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// Wait for child `pid` and return its raw wait status and rusage.
fn wait_child(pid: u32) -> io::Result<(c_int, Rusage)> {
    let pid = c_int::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable locals whose
        // layouts match the C `int` and 64-bit Linux `struct rusage` that
        // wait4 writes; `pid` names a child of this process that nothing
        // else reaps (the `Child` handle is never waited on).
        let ret = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if ret == pid {
            return Ok((status, usage));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// One finished `hsa` invocation.
#[derive(Debug)]
pub struct ChildRun {
    /// Spawn to reaped.
    pub wall: Duration,
    /// Everything it printed on stdout.
    pub stdout: Vec<u8>,
    /// Exit code, or `None` when a signal ended it.
    pub exit_code: Option<i32>,
    /// Peak resident set, in KiB, from the kernel's accounting.
    pub max_rss_kib: u64,
}

/// Run `cmd` to completion, collecting stdout; stderr goes to `stderr`.
pub fn run(cmd: &mut Command, stderr: Stdio) -> io::Result<ChildRun> {
    let start = Instant::now();
    let mut child = cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(stderr).spawn()?;
    let mut stdout = Vec::new();
    let read = child.stdout.take().map(|mut out| out.read_to_end(&mut stdout));
    // Reap even when reading failed, so no zombie outlives the run.
    let (status, usage) = wait_child(child.id())?;
    let wall = start.elapsed();
    if let Some(r) = read {
        r?;
    }
    let exit_code = if status & 0x7f == 0 { Some((status >> 8) & 0xff) } else { None };
    Ok(ChildRun { wall, stdout, exit_code, max_rss_kib: usage.ru_maxrss.max(0) as u64 })
}

/// Peak resident set (`VmHWM`, KiB) of a live process.
pub fn vm_hwm_kib(pid: u32) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc status"))
}
