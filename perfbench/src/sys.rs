//! Run metadata read from the runtime: peak RSS, filesystem type of the
//! checkpoint directory, available parallelism and the source commit.

use std::path::Path;

#[cfg(target_os = "linux")]
mod ffi {
    extern "C" {
        pub fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
        pub fn statfs(path: *const std::ffi::c_char, buf: *mut [u64; 32]) -> i32;
    }
}

/// High-water resident set size of this process, in MB (`getrusage`,
/// whose `ru_maxrss` Linux reports in KiB). `NaN` off Linux.
pub fn peak_rss_mb() -> f64 {
    #[cfg(target_os = "linux")]
    {
        // `struct rusage` is two `timeval`s (4 longs) then 14 longs,
        // `ru_maxrss` first among them.
        let mut usage = [0i64; 18];
        // SAFETY: the buffer is exactly `sizeof(struct rusage)` on 64-bit
        // Linux and `RUSAGE_SELF` (0) is a valid selector.
        if unsafe { ffi::getrusage(0, &mut usage) } == 0 {
            return usage[4] as f64 / 1024.0;
        }
    }
    f64::NAN
}

/// Filesystem type of `dir` by `statfs` magic number.
pub fn fs_type(dir: &Path) -> String {
    #[cfg(target_os = "linux")]
    {
        use std::os::unix::ffi::OsStrExt;
        let Ok(path) = std::ffi::CString::new(dir.as_os_str().as_bytes()) else {
            return "unknown".into();
        };
        // `struct statfs` is 120 bytes on 64-bit Linux with `f_type` (a
        // long) first; the buffer leaves room to spare.
        let mut buf = [0u64; 32];
        // SAFETY: `path` is NUL-terminated and the buffer is larger than
        // the struct the kernel fills.
        if unsafe { ffi::statfs(path.as_ptr(), &mut buf) } == 0 {
            return match buf[0] as u32 {
                0x0102_1994 => "tmpfs".into(),
                0xEF53 => "ext4".into(),
                0x794C_7630 => "overlayfs".into(),
                0x5846_5342 => "xfs".into(),
                0x9123_683E => "btrfs".into(),
                0x6969 => "nfs".into(),
                magic => format!("0x{magic:x}"),
            };
        }
    }
    "unknown".into()
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the checkout was made from: `.git/HEAD` resolved through
/// a loose or packed ref, or `"unknown"` in a checkout without `.git`.
pub fn commit() -> String {
    let resolve = || -> Option<String> {
        let head = std::fs::read_to_string(".git/HEAD").ok()?;
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
            return Some(id.trim().to_string());
        }
        let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
        packed
            .lines()
            .find(|l| l.ends_with(reference))
            .and_then(|l| l.split_whitespace().next())
            .map(str::to_string)
    };
    resolve().unwrap_or_else(|| "unknown".into())
}
