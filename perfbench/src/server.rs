//! The in-process compile server under test.

use crate::check::{self, Tally};
use crate::client::Conn;
use crate::spec::JobSpec;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tetris_engine::EngineConfig;
use tetris_server::{AppState, CompileServer, ServerConfig, ServerHandle};

/// Engine workers: fixed, so figures compare across machines with the
/// same core count (the reference box has 2).
pub const WORKERS: usize = 2;

/// A running server on an ephemeral loopback port; drained on drop.
pub struct Server {
    /// Shared state, for reading engine and scheduler counters.
    pub state: Arc<AppState>,
    /// Bound address.
    pub addr: SocketAddr,
    handle: ServerHandle,
}

impl Server {
    /// Binds, starts the front end and waits until `/healthz` answers.
    pub fn start(cache_dir: Option<PathBuf>, max_inflight: usize) -> Result<Server, String> {
        let engine = EngineConfig {
            threads: WORKERS,
            cache_capacity: 4096,
            cache_dir,
            cache_max_bytes: None,
        };
        let config = ServerConfig {
            max_inflight,
            ..ServerConfig::default()
        };
        let server = CompileServer::bind_with("127.0.0.1:0", engine, config)
            .map_err(|e| format!("cannot bind the server: {e}"))?;
        let addr = server.local_addr();
        let handle = server.handle();
        let state = server.serve_background();
        let ready = Conn::open(addr).and_then(|mut c| c.call("GET", "/healthz", ""));
        match ready {
            Ok((_, r)) if r.status == 200 => Ok(Server {
                state,
                addr,
                handle,
            }),
            Ok((_, r)) => Err(format!("/healthz answered {}", r.status)),
            Err(e) => Err(format!("server not reachable: {e}")),
        }
    }

    /// Starts a server and pre-seeds its cache with `jobs` in one streamed
    /// batch, tallying the results. Returns the server and the set-up
    /// seconds.
    pub fn seeded(
        cache_dir: Option<PathBuf>,
        max_inflight: usize,
        jobs: &[JobSpec],
        tally: &mut Tally,
    ) -> Result<(Server, f64), String> {
        let t0 = Instant::now();
        let server = Server::start(cache_dir, max_inflight)?;
        match check::post_and_tally(&mut server.connect()?, jobs, false, tally) {
            Some(r) if r.status == 200 => Ok((server, t0.elapsed().as_secs_f64())),
            Some(r) => Err(format!("pre-seeding answered {}", r.status)),
            None => Err("pre-seeding failed".into()),
        }
    }

    /// Opens a client connection.
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(self.addr).map_err(|e| format!("connect: {e}"))
    }
}

impl Drop for Server {
    /// Drains the front end and waits (bounded) until it has let go of
    /// the shared state, so the engine, its cache and its workers are
    /// freed before the next server starts and peak memory repeats.
    fn drop(&mut self) {
        self.handle.shutdown();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&self.state) > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
