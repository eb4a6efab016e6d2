//! The engine under test: a durable mmap executor with two shards and two
//! pool threads, loaded with the generated rows and checkpointed.

use crate::gen::NBITS;
use crate::measure::us_since;
use sg_exec::{DurabilityConfig, ExecConfig, FsyncPolicy, Partitioner, ShardedExecutor};
use sg_obs::{IngestObs, Registry, StoreObs};
use sg_sig::Signature;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub const SHARDS: usize = 2;
/// Where durable executors live while a run lasts.
const RUN_DIR: &str = ".perfbench_run";
/// Rows per `write_batch` call while loading.
pub const LOAD_BATCH: usize = 2500;

/// What one durable load cost, from the benchmark's timers and the
/// ingest/store registries.
#[derive(Debug, Clone, Default)]
pub struct LoadCost {
    pub rows: u64,
    pub load_us: f64,
    /// Latency of each `write_batch` call: the ack latency of every row
    /// in it.
    pub batch_us: Vec<f64>,
    pub wal_bytes: u64,
    pub wal_syncs: u64,
    pub cow_pages: u64,
    pub checkpoint_ms: f64,
}

pub struct Engine {
    pub exec: Arc<ShardedExecutor>,
    pub dir: PathBuf,
    pub registry: Arc<Registry>,
    pub ingest: Arc<IngestObs>,
    pub store: Arc<StoreObs>,
}

pub fn config(pool_frames: usize) -> ExecConfig {
    ExecConfig {
        shards: SHARDS,
        threads: SHARDS,
        partitioner: Partitioner::RoundRobin,
        page_size: 4096,
        pool_frames,
        tree: None,
    }
}

/// The flush policy of every workload: each group commit syncs its WAL
/// before it is acknowledged.
pub const FSYNC: FsyncPolicy = FsyncPolicy::Always;

/// Opens the durable mmap executor at `dir`, with the ingest and store
/// registries attached.
pub fn open(dir: &Path, pool_frames: usize) -> Result<Engine, String> {
    let durability = DurabilityConfig {
        fsync: FSYNC,
        ..DurabilityConfig::mmap(dir)
    };
    let exec = ShardedExecutor::open_durable(NBITS, &config(pool_frames), &durability)
        .map_err(|e| format!("opening the durable executor: {e}"))?;
    let registry = Arc::new(Registry::default());
    let ingest = exec.register_ingest_obs(&registry, "ingest");
    let store = exec
        .register_store_obs(&registry, "store")
        .ok_or("the executor did not open in mmap mode")?;
    Ok(Engine {
        exec: Arc::new(exec),
        dir: dir.to_path_buf(),
        registry,
        ingest,
        store,
    })
}

impl Engine {
    /// Inserts `rows` (tid = index) durably, then checkpoints.
    pub fn load(&self, rows: &[Vec<u32>]) -> Result<LoadCost, String> {
        let wal0 = (self.ingest.wal_bytes.get(), self.ingest.wal_syncs.get());
        let cow0 = self.store.pages_freed.get();
        let t0 = Instant::now();
        let mut batch_us = Vec::new();
        for (chunk_no, chunk) in rows.chunks(LOAD_BATCH).enumerate() {
            let base = (chunk_no * LOAD_BATCH) as u64;
            let ops = chunk
                .iter()
                .enumerate()
                .map(|(i, items)| sg_exec::WriteOp::Insert {
                    tid: base + i as u64,
                    sig: Signature::from_items(NBITS, items),
                })
                .collect();
            let b0 = Instant::now();
            let acks = self.exec.write_batch(ops);
            batch_us.push(us_since(b0));
            for ack in acks {
                match ack {
                    Ok(a) if a.applied => {}
                    Ok(a) => return Err(format!("load insert of tid {} not applied", a.tid)),
                    Err(e) => return Err(format!("load insert failed: {e}")),
                }
            }
        }
        let load_us = us_since(t0);
        let t1 = Instant::now();
        self.exec
            .checkpoint()
            .map_err(|e| format!("checkpoint after load: {e}"))?;
        Ok(LoadCost {
            rows: rows.len() as u64,
            load_us,
            batch_us,
            wal_bytes: self.ingest.wal_bytes.get() - wal0.0,
            wal_syncs: self.ingest.wal_syncs.get() - wal0.1,
            cow_pages: self.store.pages_freed.get() - cow0,
            checkpoint_ms: us_since(t1) / 1e3,
        })
    }
}

/// A fresh directory for set-up `n`'s durable executor, inside the
/// checkout.
pub fn fresh_dir(workload: &str, n: usize) -> PathBuf {
    let dir = Path::new(RUN_DIR).join(format!("{workload}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Removes whatever durable directories this process left behind (a
/// failed run stops before its own clean-up).
pub fn remove_run_dirs(workload: &str) {
    for n in 0..crate::SETUPS {
        remove_dir(&fresh_dir(workload, n));
    }
}

/// Removes a durable directory and, when it is left empty, the parent.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}
