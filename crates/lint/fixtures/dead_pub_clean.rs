// Fixture for rule `dead-pub`, linted as `crates/demo/src/lib.rs`: every
// public item has a caller or an allow-list entry (`Signature`), and what
// the rule ignores — private and `pub(crate)` items, methods, fields,
// re-exports, test modules — stays quiet.

pub fn called() -> u8 {
    helper()
}

fn helper() -> u8 {
    1
}

pub(crate) fn crate_only() {}

pub struct Kept {
    pub field: u8,
}

impl Kept {
    pub fn method_names_never_count(&self) {}
}

pub use std::fmt::Debug as Reexported;

pub fn from_bench() {}

pub struct Signature;

#[cfg(test)]
mod tests {
    pub fn test_helpers_never_count() {}
}
