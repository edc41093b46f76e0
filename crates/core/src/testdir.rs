//! A fresh scratch directory per call, for the unit tests that touch the
//! file system: no two calls share one, in one process or across
//! processes, and it goes with everything in it when dropped. The crates
//! whose unit tests write files (`islabel-core`, `islabel-store`,
//! `islabel-extmem`, `islabel-serve`) each include this one file as their
//! `testdir` module.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory only its owner writes to, removed on drop.
pub(crate) struct TestDir(PathBuf);

impl TestDir {
    /// Creates `<crate>-<tag>-<pid>-<n>` under the system temp directory,
    /// skipping any name a crashed earlier run left behind.
    pub(crate) fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        loop {
            // ordering: Relaxed — only uniqueness of the number matters.
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let name = format!(
                "{}-{tag}-{}-{n}",
                env!("CARGO_PKG_NAME"),
                std::process::id()
            );
            let dir = std::env::temp_dir().join(name);
            match std::fs::create_dir(&dir) {
                Ok(()) => return Self(dir),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => panic!("create {}: {e}", dir.display()),
            }
        }
    }
}

impl std::ops::Deref for TestDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}
