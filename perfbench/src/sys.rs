//! Process-level facts: peak memory, CPU count, source revision, and a
//! guard that points standard output at `/dev/null`.

use std::fs::File;
use std::io::Write;
use std::os::fd::AsRawFd;
use std::path::Path;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The checked-out commit, read from `.git` under the working
/// directory; `"unknown"` outside a git checkout.
pub fn source_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .unwrap_or_default()
            .trim()
            .to_string(),
        None => head.to_string(),
    };
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev
    }
}

extern "C" {
    fn dup(fd: i32) -> i32;
    fn dup2(src: i32, dst: i32) -> i32;
    fn close(fd: i32) -> i32;
}

const STDOUT_FD: i32 = 1;

/// While alive, file descriptor 1 points at `/dev/null`, so the paper
/// experiments' tables cost their formatting but never reach the
/// benchmark's own output. Dropping it restores the original stdout.
pub struct SilencedStdout {
    saved: i32,
}

impl SilencedStdout {
    pub fn new() -> std::io::Result<SilencedStdout> {
        let null = File::options().write(true).open("/dev/null")?;
        std::io::stdout().flush()?;
        // SAFETY: `dup` only duplicates descriptor 1, which stays open for
        // the life of the process; it touches no Rust-owned memory.
        let saved = unsafe { dup(STDOUT_FD) };
        if saved < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: both descriptors are open (`null` is owned above and
        // closed only when it drops after this call); `dup2` atomically
        // repoints fd 1 and leaves `null` itself untouched.
        if unsafe { dup2(null.as_raw_fd(), STDOUT_FD) } < 0 {
            let err = std::io::Error::last_os_error();
            // SAFETY: `saved` came from the successful `dup` above and is
            // owned by nothing else.
            unsafe { close(saved) };
            return Err(err);
        }
        Ok(SilencedStdout { saved })
    }
}

impl Drop for SilencedStdout {
    fn drop(&mut self) {
        let _ = std::io::stdout().flush();
        // SAFETY: `saved` is the descriptor `dup` returned in `new`, owned
        // solely by this guard; restoring it onto fd 1 and then closing
        // the duplicate leaves exactly the original stdout open.
        unsafe {
            dup2(self.saved, STDOUT_FD);
            close(self.saved);
        }
    }
}
