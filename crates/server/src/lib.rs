//! The serving layer: a multi-client TCP server over one provenance
//! database, built on the engine's epoch snapshots.
//!
//! # Wire protocol
//!
//! Newline-delimited JSON: one request object per line in, one response
//! object per line out, over a plain TCP stream. Requests carry an `op`
//! and an optional `id` (echoed back verbatim); responses carry
//! `"ok": true` plus op-specific fields, or `"ok": false` with an
//! `error` string. A failed request never closes the connection and
//! never takes the server down.
//!
//! ```text
//! → {"id":1,"op":"sql","sql":"CREATE TABLE r (d TEXT, s NUM); INSERT INTO r VALUES ('d1', 20) PROVENANCE p1;"}
//! ← {"epoch":42,"id":1,"ok":true}
//! → {"id":2,"op":"refresh"}
//! ← {"epoch":42,"id":2,"invalidated":[],"ok":true}
//! → {"id":3,"op":"query","sql":"SELECT d, SUM(s) AS total FROM r GROUP BY d"}
//! ← {"columns":["d","total"],"count":1,"id":3,"ok":true,"rows":[{"annotation":"δ(p1)","values":["d1","SUM⟨(p1)⊗20⟩"]}]}
//! ```
//!
//! ## Session lifecycle
//!
//! Each connection is a session. At connect time the session pins a
//! [`DbSnapshot`](aggprov_engine::DbSnapshot) of the current epoch; every
//! read op (`prepare`, `execute`, `query`, `tables`, and the provenance
//! interrogation ops) runs against that frozen epoch with **no lock
//! held**, so readers never block each other or the writer. The `sql` op
//! is the write path: it takes the single write lock, mutates
//! copy-on-write, and atomically publishes the next epoch — existing
//! snapshots are untouched. A session observes newer epochs only when it
//! asks to, via `refresh` (which also re-prepares its held statements and
//! reports any that no longer plan). Statement and result handles are
//! session-scoped integers; dropping the connection drops them all.
//!
//! ## Ops
//!
//! | op | fields | effect |
//! |----|--------|--------|
//! | `ping` | | liveness + pinned epoch |
//! | `tables` | | table names in the snapshot |
//! | `sql` | `sql` | run a SQL script on the live database |
//! | `refresh` | | re-pin to the newest epoch |
//! | `prepare` | `sql` | plan once → `stmt` handle |
//! | `execute` | `stmt`, `args?`, `store?` | run a prepared statement |
//! | `query` | `sql`, `args?`, `store?` | one-shot prepare + execute |
//! | `valuate` | `result`, `bindings?`, `default?` | ℕ-valuate a stored result |
//! | `delete_tokens` | `result`, `tokens`, `store?` | deletion propagation |
//! | `clearance` | `result`, `levels?`, `default_level?`, `cred` | security view |
//! | `close` | `stmt` \| `result` | drop a handle |
//! | `bye` | | close the connection |
//! | `shutdown` | | stop the server (drain + exit) |
//!
//! `"store": true` on `execute`/`query`/`delete_tokens` parks the
//! **symbolic** result under a `result` handle, so the paper's "evaluate
//! once, interrogate many times" workflow works over the wire: the
//! interrogation ops re-read the stored annotations without ever
//! re-running the query.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod client;
pub mod server;
pub mod session;

pub use aggprov_json::Json;
pub use client::{Client, ClientError};
pub use server::{Server, ShutdownHandle};
pub use session::Session;
