//! The environment fingerprint written into every result file: enough to
//! tell whether two result files are comparable at all.

use crate::json::Value;
use islabel_core::kernel;
use std::path::Path;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`
/// (longest mount-point prefix wins); `"unknown"` off Linux.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut cols = line.split_whitespace();
            let (_dev, mount, fstype) = (cols.next()?, cols.next()?, cols.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype.to_string())
}

/// The fingerprint object. The kernel tier is only *recorded*: the
/// harness never sets `ISLABEL_KERNEL_TIER` or forces a tier.
pub fn fingerprint(seed: u64, scratch: &Path) -> Value {
    Value::obj([
        (
            "git_commit",
            Value::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::str(command_line("rustc", &["--version"]))),
        (
            "profile",
            Value::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "nproc",
            Value::int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        (
            "kernel_detected_tier",
            Value::str(kernel::detected_tier().name()),
        ),
        (
            "kernel_active_tier",
            Value::str(kernel::active_tier().name()),
        ),
        (
            "islabel_kernel_tier_env_set",
            Value::Bool(std::env::var_os("ISLABEL_KERNEL_TIER").is_some()),
        ),
        ("scratch_filesystem", Value::str(filesystem_of(scratch))),
        ("seed", Value::int(seed)),
        (
            "wal_flush_policy",
            Value::str(format!(
                "fsync every {} records (DEFAULT_WAL_SYNC_EVERY)",
                islabel_core::DEFAULT_WAL_SYNC_EVERY
            )),
        ),
    ])
}

/// Peak resident set size of this process (`VmHWM`), in MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_names_every_field() {
        let fp = fingerprint(42, Path::new(env!("CARGO_MANIFEST_DIR")));
        for key in [
            "git_commit",
            "rustc",
            "profile",
            "nproc",
            "kernel_detected_tier",
            "kernel_active_tier",
            "islabel_kernel_tier_env_set",
            "scratch_filesystem",
            "seed",
            "wal_flush_policy",
        ] {
            assert!(fp.get(key).is_some(), "missing {key}");
        }
        assert_eq!(fp.get("seed").unwrap().as_f64(), Some(42.0));
        assert!(fp.get("nproc").unwrap().as_f64().unwrap() >= 1.0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib() > 0.0);
        }
    }
}
