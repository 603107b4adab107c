//! # tetris-server
//!
//! The remote front half of the compilation service: a dependency-free
//! HTTP/1.1 server over `std::net::TcpListener` that accepts named
//! compilation batches, fans them into the [`tetris_engine`] worker pool,
//! and serves results and cache/pool counters back as JSON.
//!
//! Combined with the engine's disk cache tier ([`tetris_engine::DiskCache`])
//! this turns the in-process engine into a *restartable service*: results
//! persist under the cache directory, so a restarted server answers old
//! batches from disk instead of the compilers.
//!
//! ```no_run
//! use tetris_server::CompileServer;
//! use tetris_engine::EngineConfig;
//!
//! let server = CompileServer::bind("127.0.0.1:7421", EngineConfig::default()).unwrap();
//! println!("listening on http://{}", server.local_addr());
//! server.serve_forever();
//! ```
//!
//! The wire protocol (see [`http`] for the full route list):
//!
//! ```text
//! POST /batch      {"jobs": [{"workload": "LiH-JW", "backend": "tetris",
//!                             "device": "heavy-hex"}]}   → {"job_ids": [1]}
//! GET  /job/1      → {"id": 1, "status": "done", "cached": false, …}
//! GET  /stats      → {"threads": 8, "cache": {…}, …}
//! ```

#![warn(missing_docs)]

// The front end is a `poll(2)` reactor over raw unix descriptors; this is
// the one place the platform is decided.
#[cfg(not(unix))]
compile_error!("tetris-server runs on unix only: its front end is a poll(2) reactor");

pub mod conn;
pub mod http;
pub mod json;
pub mod notify;
pub mod poll;
pub(crate) mod reactor;
pub mod registry;

pub use http::{AppState, CompileServer, ServerConfig, ServerHandle};
pub use notify::Notifier;
