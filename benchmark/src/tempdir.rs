//! Unique-per-call, clean-on-drop scratch directories for artifacts and
//! write-ahead logs.
//!
//! Every directory name carries the process id, a nanosecond timestamp
//! and a process-wide counter, so concurrent benchmark processes — and the
//! smoke test's five children — never share a path (the
//! `$TMP/…-<pid>` flake pattern the test suite has).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A directory that is removed, with everything in it, on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh directory under `base` (created if missing).
    pub fn new_in(base: &Path) -> std::io::Result<Self> {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        // ordering: Relaxed — a uniqueness ticket, publishes no data.
        let ticket = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = base.join(format!("run-{}-{nanos}-{ticket}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: a leftover scratch directory must not turn a
        // finished run into a failure.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directories_are_unique_and_removed_on_drop() {
        // Inside the package's (git-ignored) build directory, not `$TMP`.
        let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/tempdir-test");
        let a = TempDir::new_in(&base).unwrap();
        let b = TempDir::new_in(&base).unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.join("artifact.islx"), b"x").unwrap();
        let (pa, pb) = (a.path().to_path_buf(), b.path().to_path_buf());
        assert!(pa.is_dir() && pb.is_dir());
        drop(a);
        assert!(!pa.exists(), "dropped directory must be gone");
        assert!(pb.is_dir(), "a sibling's drop must not touch this one");
        drop(b);
        assert!(!pb.exists());
    }
}
