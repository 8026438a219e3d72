//! Runs one child process to completion and reports what it cost:
//! wall time, user+system CPU and peak resident set, the last two from
//! the `rusage` that `wait4(2)` fills in for exactly that child.

use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the ledger reads Linux's 64-bit `struct rusage` layout");

/// `struct rusage` on 64-bit Linux: two `timeval`s (seconds,
/// microseconds), `ru_maxrss` in KiB, then thirteen more `long`s this
/// harness does not read.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    // std already links libc; declaring the one call avoids a crate.
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// What one child cost and how it ended.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// `ru_maxrss`. Linux seeds a spawned child's high-water mark with
    /// that of the address space it was spawned from, so this is the
    /// larger of the child's own peak and the *harness's* peak at
    /// spawn time: compare against [`own_peak_rss_kib`] before
    /// believing it.
    pub maxrss_kib: u64,
    /// The child exited normally with status 0.
    pub ok: bool,
}

impl Cost {
    /// Folds a sibling invocation of the same pass into this one:
    /// times add, peak memory is the larger, any failure fails both.
    pub fn absorb(&mut self, other: Cost) {
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
        self.maxrss_kib = self.maxrss_kib.max(other.maxrss_kib);
        self.ok &= other.ok;
    }
}

/// This process's own peak resident set (`VmHWM`), in KiB.
pub fn own_peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| "/proc/self/status has no VmHWM".to_string())
}

/// Spawns `program args…` with stdout and stderr redirected to the
/// given files (truncated), waits for it, and returns its cost. The
/// wall clock runs from just before the spawn to the return of the
/// wait.
pub fn run(program: &Path, args: &[&str], stdout: &Path, stderr: &Path) -> Result<Cost, String> {
    let create =
        |p: &Path| File::create(p).map_err(|e| format!("cannot create `{}`: {e}", p.display()));
    let mut command = Command::new(program);
    command
        .args(args)
        .stdin(Stdio::null())
        .stdout(create(stdout)?)
        .stderr(create(stderr)?);
    let start = Instant::now();
    let child = command
        .spawn()
        .map_err(|e| format!("cannot run `{}`: {e}", program.display()))?;
    let pid = i32::try_from(child.id()).map_err(|_| "child pid out of range".to_string())?;
    let mut status = 0i32;
    let mut usage = RUsage::default();
    // SAFETY: `pid` is a live child of this process that nothing else
    // waits for (`child.wait()` is never called, and dropping a
    // `Child` does not reap it); `status` and `usage` are valid,
    // exclusively borrowed and laid out as the kernel writes them
    // (see `RUsage`). The loop only retries the interrupted call.
    let reaped = loop {
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r != -1 || std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            break r;
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    if reaped != pid {
        return Err(format!(
            "wait4({pid}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    Ok(Cost {
        wall_s,
        cpu_s: secs(usage.utime) + secs(usage.stime),
        maxrss_kib: u64::try_from(usage.maxrss).unwrap_or(0),
        // WIFEXITED && WEXITSTATUS == 0: the whole status word is 0.
        ok: status == 0,
    })
}
