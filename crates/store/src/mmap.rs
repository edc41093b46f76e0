//! Read-only memory mapping with a heap fallback.
//!
//! This is one of the workspace's two product unsafe zones (`lint.toml
//! [unsafe] allowed_files`; the other is the prefetch hint in
//! `islabel-core`): a minimal shim over `mmap(2)`/`munmap(2)` declared
//! directly against libc, since the offline build cannot pull the `libc`
//! or `memmap2` crates. Everything else in the workspace forbids or
//! denies `unsafe_code` and consumes the mapping through the safe
//! [`MappedFile`] API.
//!
//! Design rules that keep the unsafety contained:
//!
//! - The mapping is always `PROT_READ` + `MAP_PRIVATE`: the kernel
//!   guarantees nothing can write through it, and writes to the file by
//!   other processes are not reflected (no aliasing with `&[u8]`).
//! - The mapped length is captured once at creation and never changes;
//!   the pointer is never exposed, only reborrowed as `&[u8]` tied to
//!   `&self`.
//! - Typed views (`&[u32]`, `&[u64]`) are produced only after explicit
//!   alignment and length checks, and only on little-endian targets
//!   (section bytes are little-endian on disk); elsewhere the casts
//!   return `None` and callers fall back to copying parses.
//! - If `mmap` is unavailable or fails, we silently fall back to reading
//!   the file into an 8-byte-aligned heap buffer — same API, no unsafe
//!   on that path.

#![allow(unsafe_code)]

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

#[cfg(unix)]
mod sys {
    //! The raw syscall surface. Constants match the Linux and BSD ABIs
    //! for the flags we use (PROT_READ and MAP_PRIVATE are 1 and 2 on
    //! every supported unix).

    pub(super) const PROT_READ: i32 = 1;
    pub(super) const MAP_PRIVATE: i32 = 2;
    /// Linux-only: prefault the whole mapping in the `mmap` call itself,
    /// so the validate-on-open pass reads at memory speed instead of
    /// taking one soft page fault per 4 KiB.
    #[cfg(target_os = "linux")]
    pub(super) const MAP_POPULATE: i32 = 0x8000;

    extern "C" {
        // SAFETY: signatures match POSIX mmap/munmap as exported by the
        // platform libc that std already links against.
        pub(super) fn mmap(
            addr: *mut u8,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut u8;
        pub(super) fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    /// `MAP_FAILED` is `(void*)-1`, not null.
    pub(super) fn map_failed() -> *mut u8 {
        usize::MAX as *mut u8
    }
}

#[cfg(unix)]
use std::os::unix::io::AsRawFd;

enum Backing {
    /// A live `mmap` region: base pointer and exact byte length.
    #[cfg(unix)]
    Map { ptr: *mut u8, len: usize },
    /// Heap fallback: the file copied into a `u64`-backed (8-aligned)
    /// buffer. `len` is the real byte length; the buffer is padded up.
    Heap { buf: Vec<u64>, len: usize },
}

/// A read-only view of a file's bytes, memory-mapped when possible and
/// heap-loaded otherwise. The base is always 8-byte aligned (page
/// alignment for mappings, `Vec<u64>` alignment for the fallback), which
/// is what makes in-place `u32`/`u64` section views sound.
pub struct MappedFile {
    backing: Backing,
}

impl std::fmt::Debug for MappedFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedFile")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

// SAFETY: the region is immutable for the lifetime of the value — the
// kernel mapping is PROT_READ/MAP_PRIVATE and the heap variant is never
// written after construction — so sharing references across threads is
// sound, exactly as for a Vec<u8> behind &self.
unsafe impl Send for MappedFile {}
// SAFETY: as above; all access is through &self and read-only.
unsafe impl Sync for MappedFile {}

impl Drop for MappedFile {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Map { ptr, len } = self.backing {
            // SAFETY: ptr/len are exactly what mmap returned for this
            // value and the mapping has not been unmapped before (Drop
            // runs once); after this, no &[u8] borrows remain because
            // they were all tied to &self.
            unsafe {
                let _ = sys::munmap(ptr, len);
            }
        }
    }
}

fn read_aligned(file: &mut File, len: usize) -> io::Result<Vec<u64>> {
    let words = len.div_ceil(8);
    let mut buf = vec![0u64; words];
    let mut read = 0usize;
    while read < len {
        // Safe little-endian staging copy: read into a byte chunk, then
        // store whole words. Chunked to bound the temporary.
        let take = (len - read).min(1 << 20);
        let mut tmp = vec![0u8; take];
        file.read_exact(&mut tmp)?;
        for (i, b) in tmp.iter().enumerate() {
            let at = read + i;
            if let Some(w) = buf.get_mut(at / 8) {
                *w |= (*b as u64) << ((at % 8) * 8);
            }
        }
        read += take;
    }
    Ok(buf)
}

impl MappedFile {
    /// Opens `path` read-only and maps it (falling back to a heap copy if
    /// mapping fails or the platform has no `mmap`).
    pub fn open(path: &Path) -> io::Result<MappedFile> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        if len == 0 {
            return Ok(MappedFile {
                backing: Backing::Heap {
                    buf: Vec::new(),
                    len: 0,
                },
            });
        }
        #[cfg(unix)]
        {
            let fd = file.as_raw_fd();
            #[cfg(target_os = "linux")]
            let flags = sys::MAP_PRIVATE | sys::MAP_POPULATE;
            #[cfg(not(target_os = "linux"))]
            let flags = sys::MAP_PRIVATE;
            // SAFETY: fd is a valid open descriptor for the duration of
            // the call; len > 0; addr null lets the kernel pick; the
            // mapping is read-only and private so it cannot alias any
            // mutable state. The File may close after this — a private
            // read-only mapping outlives its descriptor.
            let ptr = unsafe { sys::mmap(std::ptr::null_mut(), len, sys::PROT_READ, flags, fd, 0) };
            // An old kernel may reject MAP_POPULATE outright; retry plain.
            // SAFETY: same contract as above, flags differ only.
            #[cfg(target_os = "linux")]
            let ptr = if ptr == sys::map_failed() || ptr.is_null() {
                unsafe {
                    sys::mmap(
                        std::ptr::null_mut(),
                        len,
                        sys::PROT_READ,
                        sys::MAP_PRIVATE,
                        fd,
                        0,
                    )
                }
            } else {
                ptr
            };
            if ptr != sys::map_failed() && !ptr.is_null() {
                return Ok(MappedFile {
                    backing: Backing::Map { ptr, len },
                });
            }
        }
        let buf = read_aligned(&mut file, len)?;
        Ok(MappedFile {
            backing: Backing::Heap { buf, len },
        })
    }

    /// Wraps an in-memory byte buffer (copied into aligned storage).
    /// Used by tests and by readers over non-file sources.
    pub fn from_vec(bytes: Vec<u8>) -> MappedFile {
        let len = bytes.len();
        let mut buf = vec![0u64; len.div_ceil(8)];
        for (at, b) in bytes.iter().enumerate() {
            if let Some(w) = buf.get_mut(at / 8) {
                *w |= (*b as u64) << ((at % 8) * 8);
            }
        }
        MappedFile {
            backing: Backing::Heap { buf, len },
        }
    }

    /// Total mapped bytes.
    pub fn len(&self) -> usize {
        match &self.backing {
            #[cfg(unix)]
            Backing::Map { len, .. } => *len,
            Backing::Heap { len, .. } => *len,
        }
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the bytes are served by a real kernel mapping (`true`) or
    /// the heap fallback (`false`). Surfaced in `stats --file`.
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(unix)]
            Backing::Map { .. } => true,
            Backing::Heap { .. } => false,
        }
    }

    /// The whole region as bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            Backing::Map { ptr, len } => {
                // SAFETY: ptr..ptr+len is a live PROT_READ mapping owned
                // by self (unmapped only in Drop); it is never written
                // through, and the returned borrow is tied to &self so it
                // cannot outlive the mapping. u8 has no alignment or
                // validity requirements.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
            Backing::Heap { buf, len } => {
                let ptr = buf.as_ptr() as *const u8;
                // SAFETY: buf owns at least `len` bytes (it was sized as
                // ceil(len/8) u64 words) and u8 reads of initialized u64
                // storage are always valid; the borrow is tied to &self.
                unsafe { std::slice::from_raw_parts(ptr, *len) }
            }
        }
    }
}

/// Views `bytes` as little-endian `u32`s in place. Returns `None` if the
/// length is not a multiple of 4, the base is not 4-aligned, or the
/// target is big-endian (where an in-place view would read wrong values —
/// callers then fall back to a copying parse).
pub fn cast_u32s(bytes: &[u8]) -> Option<&[u32]> {
    #[cfg(target_endian = "little")]
    {
        if !bytes.len().is_multiple_of(4) || !(bytes.as_ptr() as usize).is_multiple_of(4) {
            return None;
        }
        // SAFETY: the pointer is 4-aligned and the region holds
        // len/4 u32s of initialized memory; every bit pattern is a valid
        // u32, and on this (little-endian) target the in-memory order
        // matches the on-disk order. Borrow is tied to `bytes`.
        Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u32, bytes.len() / 4) })
    }
    #[cfg(not(target_endian = "little"))]
    {
        let _ = bytes;
        None
    }
}

/// Views `bytes` as little-endian `u64`s in place; same contract as
/// [`cast_u32s`] with 8-byte alignment.
pub fn cast_u64s(bytes: &[u8]) -> Option<&[u64]> {
    #[cfg(target_endian = "little")]
    {
        if !bytes.len().is_multiple_of(8) || !(bytes.as_ptr() as usize).is_multiple_of(8) {
            return None;
        }
        // SAFETY: 8-aligned pointer, len/8 u64s of initialized memory,
        // all bit patterns valid, little-endian target matches the disk
        // byte order. Borrow is tied to `bytes`.
        Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u64, bytes.len() / 8) })
    }
    #[cfg(not(target_endian = "little"))]
    {
        let _ = bytes;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_preserves_bytes_and_alignment() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let m = MappedFile::from_vec(data.clone());
        assert_eq!(m.bytes(), &data[..]);
        assert_eq!(m.len(), 1000);
        assert!(!m.is_mapped());
        assert_eq!(m.bytes().as_ptr() as usize % 8, 0);
    }

    #[test]
    fn open_maps_a_real_file() {
        let dir = crate::testdir::TestDir::new("mmap");
        let path = dir.join("words");
        let data: Vec<u8> = (0..4096u32).flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(&path, &data).unwrap();
        let m = MappedFile::open(&path).unwrap();
        assert_eq!(m.len(), data.len());
        assert_eq!(m.bytes(), &data[..]);
        // On unix this should be a real mapping.
        #[cfg(unix)]
        assert!(m.is_mapped());
        let words = cast_u32s(m.bytes()).unwrap();
        assert_eq!(words[0], 0);
        assert_eq!(words[4095], 4095);
    }

    #[test]
    fn empty_file_is_fine() {
        let dir = crate::testdir::TestDir::new("mmap-empty");
        let path = dir.join("empty");
        std::fs::write(&path, b"").unwrap();
        let m = MappedFile::open(&path).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.bytes(), b"");
    }

    #[test]
    fn casts_enforce_length_and_alignment() {
        let m = MappedFile::from_vec(vec![1, 0, 0, 0, 2, 0, 0, 0]);
        let b = m.bytes();
        assert_eq!(cast_u32s(b), Some(&[1u32, 2][..]));
        assert_eq!(cast_u64s(b), Some(&[(2u64 << 32) | 1][..]));
        assert!(cast_u32s(&b[..3]).is_none()); // length
        assert!(cast_u32s(&b[1..5]).is_none()); // alignment
        assert!(cast_u64s(&b[4..]).is_none()); // alignment
    }

    #[test]
    fn threads_can_share_a_mapping() {
        let m = std::sync::Arc::new(MappedFile::from_vec(vec![7u8; 64]));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || m.bytes().iter().map(|&b| b as u64).sum::<u64>())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 7 * 64);
        }
    }
}
