// Fixture for rule `dead-pub`, linted as `crates/demo/src/inner.rs`. The
// crate root re-exports all three types in one `pub use … ;` and names
// `FromRoot` again after the `;`; the integration test names `Called`. A
// re-export is not a caller, so exactly one item is dead: l10's type.

pub struct Called;

pub struct FromRoot;

pub struct Reexported;
