//! Offline stand-in for the `crossbeam` crate: only `channel::unbounded`
//! and its types, as a facade over `std::sync::mpsc` (whose channel is
//! crossbeam's own implementation since Rust 1.67).
//!
//! No workspace crate depends on it. It is kept for the benchmark package,
//! whose channel-hop probe times the channel the executor relays through.

pub mod channel {
    //! Unbounded channels: `std::sync::mpsc` under crossbeam's names.

    pub use std::sync::mpsc::{Receiver, RecvError, RecvTimeoutError, SendError, Sender};

    /// Creates an unbounded channel (`std::sync::mpsc::channel`).
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}
