//! Shared support for the `ulmt-core` integration tests.

pub mod reference;
