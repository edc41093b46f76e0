//! Named byte-stream storage with full I/O accounting.
//!
//! The external-memory algorithms only ever touch storage three ways:
//! sequential writes (creating a file), sequential scans (reading a file
//! front to back), and positioned reads (fetching one vertex label). The
//! [`Storage`] trait captures exactly those operations, and both backends
//! route every byte through a shared [`IoStats`]:
//!
//! * [`MemStorage`] — files live in memory; used by tests and by benchmarks
//!   that want counted-I/O determinism without disk noise.
//! * [`DirStorage`] — files live in a directory on the real filesystem.

use crate::iostats::IoStats;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::Arc;

/// Shared handle to a storage backend.
pub type StorageHandle = Arc<dyn Storage>;

/// A named byte-stream store. Names are flat (no directories).
pub trait Storage: Send + Sync {
    /// Creates (or truncates) `name` and returns a sequential writer. The
    /// file becomes visible to readers when the writer is dropped.
    fn create(&self, name: &str) -> io::Result<Box<dyn Write + Send>>;

    /// Opens `name` for a sequential scan from the start.
    fn open(&self, name: &str) -> io::Result<Box<dyn Read + Send>>;

    /// Reads exactly `buf.len()` bytes at `offset`, charging one seek.
    fn read_at(&self, name: &str, offset: u64, buf: &mut [u8]) -> io::Result<()>;

    /// Deletes `name` (idempotent).
    fn delete(&self, name: &str) -> io::Result<()>;

    /// Whether `name` exists.
    fn exists(&self, name: &str) -> bool;

    /// Size of `name` in bytes.
    fn len(&self, name: &str) -> io::Result<u64>;

    /// The I/O counters shared by all streams of this storage.
    fn stats(&self) -> Arc<IoStats>;
}

fn not_found(name: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("no such storage object: {name}"),
    )
}

// ---------------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------------

/// In-memory storage backend.
#[derive(Default)]
pub struct MemStorage {
    files: Arc<RwLock<HashMap<String, Arc<Vec<u8>>>>>,
    stats: Arc<IoStats>,
}

impl std::fmt::Debug for MemStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemStorage").finish_non_exhaustive()
    }
}

impl MemStorage {
    /// Creates an empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store wrapped in a [`StorageHandle`].
    pub fn handle() -> StorageHandle {
        Arc::new(Self::new())
    }

    /// Names currently stored (sorted; for tests/diagnostics).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.files.read().keys().cloned().collect();
        v.sort();
        v
    }
}

struct MemWriter {
    name: String,
    buf: Vec<u8>,
    files: Arc<RwLock<HashMap<String, Arc<Vec<u8>>>>>,
    stats: Arc<IoStats>,
}

impl Write for MemWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.stats.record_write(data.len() as u64);
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for MemWriter {
    fn drop(&mut self) {
        let data = std::mem::take(&mut self.buf);
        self.files
            .write()
            .insert(std::mem::take(&mut self.name), Arc::new(data));
    }
}

struct MemReader {
    data: Arc<Vec<u8>>,
    pos: usize,
    stats: Arc<IoStats>,
}

impl Read for MemReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        if n > 0 {
            self.stats.record_read(n as u64);
        }
        Ok(n)
    }
}

impl Storage for MemStorage {
    fn create(&self, name: &str) -> io::Result<Box<dyn Write + Send>> {
        Ok(Box::new(MemWriter {
            name: name.to_string(),
            buf: Vec::new(),
            files: Arc::clone(&self.files),
            stats: Arc::clone(&self.stats),
        }))
    }

    fn open(&self, name: &str) -> io::Result<Box<dyn Read + Send>> {
        let data = self
            .files
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| not_found(name))?;
        Ok(Box::new(MemReader {
            data,
            pos: 0,
            stats: Arc::clone(&self.stats),
        }))
    }

    fn read_at(&self, name: &str, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let data = self
            .files
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| not_found(name))?;
        let start = offset as usize;
        let end = start + buf.len();
        if end > data.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("read_at past end of {name}: {end} > {}", data.len()),
            ));
        }
        buf.copy_from_slice(&data[start..end]);
        self.stats.record_seek();
        self.stats.record_read(buf.len() as u64);
        Ok(())
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        self.files.write().remove(name);
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.files.read().contains_key(name)
    }

    fn len(&self, name: &str) -> io::Result<u64> {
        self.files
            .read()
            .get(name)
            .map(|d| d.len() as u64)
            .ok_or_else(|| not_found(name))
    }

    fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }
}

// ---------------------------------------------------------------------------
// Directory backend
// ---------------------------------------------------------------------------

/// Filesystem-backed storage rooted at a directory.
pub struct DirStorage {
    root: PathBuf,
    stats: Arc<IoStats>,
}

impl std::fmt::Debug for DirStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirStorage")
            .field("root", &self.root)
            .finish_non_exhaustive()
    }
}

impl DirStorage {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            stats: Arc::new(IoStats::new()),
        })
    }

    /// Creates a store wrapped in a [`StorageHandle`].
    pub fn handle(root: impl Into<PathBuf>) -> io::Result<StorageHandle> {
        Ok(Arc::new(Self::new(root)?))
    }

    fn path(&self, name: &str) -> PathBuf {
        // Flat namespace; reject path traversal outright.
        assert!(
            !name.contains('/') && !name.contains('\\') && name != "." && name != "..",
            "storage names must be flat: {name}"
        );
        self.root.join(name)
    }
}

struct CountingWriter<W: Write> {
    inner: W,
    stats: Arc<IoStats>,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(data)?;
        self.stats.record_write(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

struct CountingReader<R: Read> {
    inner: R,
    stats: Arc<IoStats>,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n > 0 {
            self.stats.record_read(n as u64);
        }
        Ok(n)
    }
}

impl Storage for DirStorage {
    fn create(&self, name: &str) -> io::Result<Box<dyn Write + Send>> {
        let f = std::fs::File::create(self.path(name))?;
        Ok(Box::new(CountingWriter {
            inner: io::BufWriter::new(f),
            stats: Arc::clone(&self.stats),
        }))
    }

    fn open(&self, name: &str) -> io::Result<Box<dyn Read + Send>> {
        let f = std::fs::File::open(self.path(name))?;
        Ok(Box::new(CountingReader {
            inner: io::BufReader::new(f),
            stats: Arc::clone(&self.stats),
        }))
    }

    fn read_at(&self, name: &str, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let mut f = std::fs::File::open(self.path(name))?;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)?;
        self.stats.record_seek();
        self.stats.record_read(buf.len() as u64);
        Ok(())
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn exists(&self, name: &str) -> bool {
        self.path(name).exists()
    }

    fn len(&self, name: &str) -> io::Result<u64> {
        Ok(std::fs::metadata(self.path(name))?.len())
    }

    fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(storage: &dyn Storage) {
        // Create, read back, read_at, len, delete.
        {
            let mut w = storage.create("a.bin").unwrap();
            w.write_all(b"hello world").unwrap();
            w.flush().unwrap();
        }
        assert!(storage.exists("a.bin"));
        assert_eq!(storage.len("a.bin").unwrap(), 11);

        let mut r = storage.open("a.bin").unwrap();
        let mut buf = Vec::new();
        r.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"hello world");

        let mut mid = [0u8; 5];
        storage.read_at("a.bin", 6, &mut mid).unwrap();
        assert_eq!(&mid, b"world");

        let snap = storage.stats().snapshot();
        assert!(snap.bytes_written >= 11);
        assert!(snap.bytes_read >= 16);
        assert_eq!(snap.seeks, 1);

        storage.delete("a.bin").unwrap();
        assert!(!storage.exists("a.bin"));
        assert!(storage.open("a.bin").is_err());
        storage.delete("a.bin").unwrap(); // idempotent
    }

    #[test]
    fn mem_storage_contract() {
        exercise(&MemStorage::new());
    }

    #[test]
    fn dir_storage_contract() {
        let dir = crate::testdir::TestDir::new("dir-storage");
        exercise(&DirStorage::new(&*dir).unwrap());
    }

    #[test]
    fn mem_read_at_past_end_errors() {
        let s = MemStorage::new();
        {
            let mut w = s.create("x").unwrap();
            w.write_all(b"abc").unwrap();
        }
        let mut buf = [0u8; 4];
        assert!(s.read_at("x", 1, &mut buf).is_err());
    }

    #[test]
    fn overwrite_replaces_content() {
        let s = MemStorage::new();
        {
            let mut w = s.create("x").unwrap();
            w.write_all(b"first").unwrap();
        }
        {
            let mut w = s.create("x").unwrap();
            w.write_all(b"2nd").unwrap();
        }
        assert_eq!(s.len("x").unwrap(), 3);
    }

    #[test]
    #[should_panic(expected = "flat")]
    fn dir_storage_rejects_traversal() {
        let dir = crate::testdir::TestDir::new("traversal");
        let s = DirStorage::new(&*dir).unwrap();
        let _ = s.exists("../evil");
    }

    #[test]
    fn names_listed_sorted() {
        let s = MemStorage::new();
        for n in ["c", "a", "b"] {
            let mut w = s.create(n).unwrap();
            w.write_all(b"x").unwrap();
        }
        assert_eq!(s.names(), vec!["a", "b", "c"]);
    }
}
