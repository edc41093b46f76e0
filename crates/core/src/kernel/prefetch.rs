//! The software-prefetch hint — `islabel-core`'s only `unsafe`, confined
//! here behind a safe entry point (`lint.toml [unsafe] allowed_files`).

#![allow(unsafe_code)]

/// Best-effort prefetch of `slice[i]` into the nearest cache level. Safe
/// and bounds-checked: out-of-range indexes are a no-op, as is the whole
/// call on architectures without a stable prefetch intrinsic. This is a
/// *hint* — it never reads memory, so it cannot fault, alias, or change
/// any result; it only overlaps a future miss with present work.
#[inline(always)]
pub fn prefetch_index<T>(slice: &[T], i: usize) {
    if i < slice.len() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `_mm_prefetch` performs no memory access and cannot
        // fault on any address — it is a pure cache hint — and the
        // pointer is in bounds of `slice` anyway (`i < slice.len()`).
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(slice.as_ptr().add(i).cast::<i8>(), _MM_HINT_T0);
        }
    }
}

/// Cache-line size the hints step by.
const LINE_BYTES: usize = 64;

/// Best-effort prefetch of every cache line `slice` touches, issued
/// back to back so the misses overlap instead of arriving one line at a
/// time as a scan reaches them. One [`prefetch_index`] per line, plus the
/// last element, whose line a slice starting mid-line would otherwise
/// miss. Same contract: a hint, a no-op on an empty slice.
#[inline]
pub fn prefetch_lines<T>(slice: &[T]) {
    let step = (LINE_BYTES / std::mem::size_of::<T>().max(1)).max(1);
    let mut i = 0;
    while i < slice.len() {
        prefetch_index(slice, i);
        i += step;
    }
    prefetch_index(slice, slice.len().wrapping_sub(1));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_a_safe_noop_observably() {
        let v: Vec<u64> = (0..100).collect();
        prefetch_index(&v, 0);
        prefetch_index(&v, 99);
        prefetch_index(&v, 100); // out of range: no-op
        prefetch_index::<u64>(&[], 0);
        prefetch_lines(&v);
        prefetch_lines(&v[3..]);
        prefetch_lines::<u64>(&[]);
        prefetch_lines::<()>(&[(); 5]);
        assert_eq!(v[99], 99);
    }
}
