//! The serving process: `asterix-server`'s router over one `Instance`,
//! run as a child of the benchmark so its memory is measured apart from
//! the benchmark's own reference data.
//!
//! The child binds an OS-assigned loopback port, prints `LISTEN <addr>`
//! and serves until its standard input closes — so it also ends when the
//! benchmark process dies.

use asterix_adm::IndexKind;
use asterix_core::{DurabilityConfig, Instance, InstanceConfig};
use asterix_server::{AsterixServer, ServerConfig};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

/// Simulated cluster partitions.
pub const PARTITIONS: usize = 4;

/// Storage of the durable ingest workload: a buffer cache far below the
/// data size and small memory components, so flushes and merges happen
/// within a run.
pub const SMALL_CACHE_PAGES: usize = 4;
pub const SMALL_MEM_BUDGET: usize = 64 * 1024;
pub const SMALL_MAX_COMPONENTS: usize = 4;

/// How the child configures its instance.
#[derive(Clone, Debug)]
pub enum Storage {
    /// In-memory instance with the default storage configuration.
    Default,
    /// Durable instance in `dir` with the small storage configuration,
    /// bulk-loaded with the first `preload` reviews of `seed` and a
    /// keyword index on `summary`, flushed before serving.
    Durable {
        dir: PathBuf,
        preload: usize,
        seed: u64,
    },
}

/// The instance configuration of `storage` (used by the child, and by
/// the benchmark when it reopens a durable directory).
pub fn instance_config(storage: &Storage) -> InstanceConfig {
    let mut config = InstanceConfig::with_partitions(PARTITIONS);
    if let Storage::Durable { dir, .. } = storage {
        config.storage.buffer_cache_pages = SMALL_CACHE_PAGES;
        config.storage.mem_component_budget = SMALL_MEM_BUDGET;
        config.storage.max_components = SMALL_MAX_COMPONENTS;
        config.durability = DurabilityConfig::at(dir);
    }
    config
}

/// Entry point of `simbench serve ...` (the child process).
pub fn child_main(args: &[String]) -> Result<(), String> {
    let storage = match args {
        [mode] if mode == "memory" => Storage::Default,
        [mode, dir, preload, seed] if mode == "durable" => Storage::Durable {
            dir: PathBuf::from(dir),
            preload: preload.parse().map_err(|e| format!("preload: {e}"))?,
            seed: seed.parse().map_err(|e| format!("seed: {e}"))?,
        },
        _ => return Err("usage: simbench serve memory | durable <dir> <preload> <seed>".into()),
    };
    let db = Instance::open(instance_config(&storage)).map_err(|e| e.to_string())?;
    if let Storage::Durable { preload, seed, .. } = &storage {
        let records = asterix_datagen::amazon_reviews(*preload, *seed);
        db.create_dataset("Reviews", "id")
            .map_err(|e| e.to_string())?;
        db.load("Reviews", records).map_err(|e| e.to_string())?;
        db.create_index("Reviews", "summary_kw", "summary", IndexKind::Keyword)
            .map_err(|e| e.to_string())?;
        db.flush("Reviews").map_err(|e| e.to_string())?;
    }
    let server =
        AsterixServer::start(Arc::new(db), ServerConfig::ephemeral()).map_err(|e| e.to_string())?;
    println!("LISTEN {}", server.local_addr());
    // Serve until the parent closes our stdin (or dies).
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    Ok(())
}

/// A running serving process.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Start a child serving `storage`.
    pub fn spawn(storage: &Storage) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve");
        match storage {
            Storage::Default => {
                cmd.arg("memory");
            }
            Storage::Durable { dir, preload, seed } => {
                cmd.arg("durable")
                    .arg(dir)
                    .arg(preload.to_string())
                    .arg(seed.to_string());
            }
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start the server: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match read {
            Ok(_) => line
                .trim()
                .strip_prefix("LISTEN ")
                .and_then(|a| a.parse().ok()),
            Err(_) => None,
        };
        match addr {
            Some(addr) => Ok(ServerProc { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not start (said {line:?})"))
            }
        }
    }

    /// Peak resident memory of the serving process, in bytes.
    pub fn peak_rss_bytes(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb * 1024)
    }

    /// Kill the process (as `kill -9` would) and wait for it to end.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            match e.file_type() {
                Ok(t) if t.is_dir() => total += dir_bytes(&e.path()),
                Ok(t) if t.is_file() => total += e.metadata().map_or(0, |m| m.len()),
                _ => {}
            }
        }
    }
    total
}
