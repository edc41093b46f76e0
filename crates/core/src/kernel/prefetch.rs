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
        assert_eq!(v[99], 99);
    }
}
