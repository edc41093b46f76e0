// Fixture for rule `dead-pub`, linted as `crates/demo/src/lib.rs`. The
// test's caller files name `called`, `Kept` and `from_bench` only, so
// seven items are dead: l9 fn (named only in this file), l12 type, l14
// const, l16 static, l18 trait, l20 mod and l21 the fn inside it.

pub fn called() -> u8 {
    orphan()
}
pub fn orphan() -> u8 {
    1
}
pub struct Unused;

pub const LIMIT: u8 = 3;

pub static COUNT: u8 = 0;

pub trait Quiet {}

pub mod inner {
    pub fn deep() {}
}

pub struct Kept;

impl Kept {
    pub fn method_names_never_count(&self) {}
}

pub fn from_bench() {}

#[cfg(test)]
mod tests {
    pub fn test_helpers_never_count() {}
}
