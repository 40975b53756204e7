//! The simulated crowd: worker models, answer models, and the
//! deterministic event loop ([`engine`] drives one `world::World` under
//! one lock).

pub mod answer;
pub mod engine;
pub mod latency;
pub mod worker;
pub(crate) mod world;
