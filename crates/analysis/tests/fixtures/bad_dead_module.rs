//! Deliberately bad: a crate root declaring one public module that no
//! other file reaches. The test workspace around it supplies the module
//! files and a second crate.

pub mod named;
pub mod orphan;
pub mod reexported;

#[cfg(test)]
pub mod test_only;

pub use reexported::Thing;
