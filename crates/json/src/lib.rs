//! The workspace's one JSON codec: a [`Json`] value, its writer
//! (`Display`) and its parser ([`Json::parse`]).
//!
//! It carries the server's newline-delimited wire protocol, the
//! `aggprov-lint --json` report and the `BENCH_pr<N>.json` perf
//! trajectory files. The build environment is offline (no serde), and
//! those formats need only scalars, arrays and string-keyed objects, so
//! this is a small hand-rolled recursive-descent parser plus an escaping
//! writer. Integers are kept exact (`i64`) and separate from floats so
//! statement parameters round-trip without loss; objects are `BTreeMap`s,
//! so rendering is deterministic (keys in sorted order).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(missing_debug_implementations)]

mod json;

pub use json::Json;
