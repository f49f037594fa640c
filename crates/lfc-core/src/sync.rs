//! Crate-local virtual-atomics facade: re-exports
//! [`lfc_runtime::sync`], the single switch between `std::sync::atomic`
//! (normal builds) and the `lfc-model` instrumented shadow memory
//! (`--cfg lfc_model`). Every protocol atomic in this crate — the batch
//! node `next` links, the submit/await spins — must import from here,
//! never from `std` directly. (The adaptivity heat counter deliberately
//! stays on `std`, like the `lfc_runtime::metrics` event counters: no
//! protocol decision's *correctness* reads it, and instrumenting it would
//! only multiply scheduling points.)

pub use lfc_runtime::sync::*;
