//! `serve-ingest`: the loaded index behind an in-process `sg_serve::Server`
//! (default serve and batch policy, admin listener off) with the
//! checkpointer running. One closed-loop loopback connection on its own
//! client thread alternates one write with one query.

use crate::engine::{self, Engine, LoadCost};
use crate::gen::{Data, Query, Write, WriteStream, DISTINCT_QUERIES, NBITS};
use crate::layers::{self, SpanLog};
use crate::measure::{
    block_min, cpu_ticks, durable_bytes, fastest_per_key, median, peak_rss_mb, percentile,
    process_cpu_us, steal_pct, us_since, user_bytes, Metrics, Timeline,
};
use crate::{Ladder, Outcome, Params};
use sg_exec::{Checkpointer, QueryOptions, QueryRequest, ShardedExecutor};
use sg_obs::HistogramSnapshot;
use sg_serve::{
    decode_request, decode_response, encode_request, encode_response, Client, Response,
    ServeConfig, Server,
};
use sg_sig::Signature;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Interval of the background checkpointer.
pub const CHECKPOINT_MS: u64 = 2000;
/// Closed-loop connections, one client thread each. One: with two on a
/// 2-vCPU host, one connection's write queued behind the other's query
/// on the pool threads, and any loss of host capacity showed up
/// amplified in every latency.
const CONNS: u64 = 1;
/// Consecutive writes of a connection whose fastest is its write-latency
/// sample (writes never repeat, so this stands in for the read side's
/// fastest run of each query).
const WRITE_BLOCK: usize = 4;
/// Frames per shard pool: the resident size (every applied write batch
/// swaps in a fresh view with an empty pool anyway).
const FRAMES: usize = 1024;
/// Write + query pairs per connection during set-up.
const WARM_PAIRS: usize = 50;
/// Rotation queries run directly on the executor after the window to
/// measure `pct_data_compared` (the wire carries no query stats): one
/// cycle of the rotation.
const PCT_PROBES: usize = DISTINCT_QUERIES;

/// What a connection's acknowledged writes did to its tid range.
#[derive(Default)]
struct Model {
    /// `Some(items)` for a live tid, `None` for a deleted one.
    tids: HashMap<u64, Option<Vec<u32>>>,
    /// Tids whose write failed: their state is unknown and they are not
    /// checked (the failed write already counts against `ok_ratio`).
    unknown: Vec<u64>,
}

/// One connection's client, write stream and model.
struct Conn {
    conn: u64,
    client: Client,
    writes: WriteStream,
    model: Model,
    next_query: usize,
    next_id: u64,
}

impl Conn {
    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// The next write, acknowledged or not; returns its latency when it
    /// was acknowledged as expected.
    fn write(&mut self) -> Option<f64> {
        let w = self.writes.next().expect("write streams are endless");
        let req = w.wire(self.id());
        let t0 = Instant::now();
        let resp = self.client.call(&req);
        let us = us_since(t0);
        match resp {
            Ok(Response::Ack { applied: true, .. }) => {
                let tid = w.tid();
                let state = match w {
                    Write::Insert { items, .. } | Write::Upsert { items, .. } => Some(items),
                    Write::Delete { .. } => None,
                };
                self.model.tids.insert(tid, state);
                Some(us)
            }
            _ => {
                self.model.unknown.push(w.tid());
                None
            }
        }
    }

    /// The rotation index of this connection's next query.
    fn next_index(&mut self, n: usize) -> usize {
        let idx = (self.next_query * CONNS as usize + self.conn as usize) % n;
        self.next_query += 1;
        idx
    }

    /// The next query over the wire; its rotation index and latency when
    /// it was answered.
    fn query(&mut self, queries: &[Query]) -> Option<(usize, f64)> {
        let idx = self.next_index(queries.len());
        let req = queries[idx].wire(self.id());
        let t0 = Instant::now();
        let resp = self.client.call(&req);
        let us = us_since(t0);
        answered(resp.ok()?).then_some((idx, us))
    }
}

fn answered(resp: Response) -> bool {
    matches!(resp, Response::Neighbors { .. } | Response::Tids { .. })
}

struct Ready {
    engine: Engine,
    data: Data,
    reqs: Vec<QueryRequest>,
    server: Server,
    checkpointer: Checkpointer,
    conns: Vec<Conn>,
    load: LoadCost,
}

impl Ready {
    /// Stops the checkpointer, closes the connections, drains the server
    /// and hands back the engine and the connections' models.
    fn tear_down(self) -> (Engine, Vec<Model>) {
        self.checkpointer.stop();
        let models = self.conns.into_iter().map(|c| c.model).collect();
        let _ = self.server.join();
        (self.engine, models)
    }
}

/// Generation + durable load + checkpoint + server start + `WARM_PAIRS`
/// write/query pairs per connection.
fn set_up(p: &Params, n: usize) -> Result<Ready, String> {
    let data = Data::generate(p.seed);
    let engine = engine::open(&engine::fresh_dir(p.workload, n), FRAMES)?;
    let load = engine.load(&data.rows)?;
    engine.exec.register_obs(&engine.registry, "exec");
    let config = ServeConfig {
        admin_addr: None,
        ..ServeConfig::default()
    };
    let server = Server::start(
        Arc::clone(&engine.exec),
        Arc::clone(&engine.registry),
        config,
    )
    .map_err(|e| format!("starting the server: {e}"))?;
    let checkpointer = engine
        .exec
        .start_checkpointer(Duration::from_millis(CHECKPOINT_MS));
    let mut conns = Vec::new();
    for conn in 0..CONNS {
        conns.push(Conn {
            conn,
            client: Client::connect(server.local_addr())
                .map_err(|e| format!("connecting to the server: {e}"))?,
            writes: data.writes(conn),
            model: Model::default(),
            next_query: 0,
            next_id: 0,
        });
    }
    for c in &mut conns {
        for _ in 0..WARM_PAIRS {
            c.write().ok_or("a warm-up write was not acknowledged")?;
            c.query(&data.queries)
                .ok_or("a warm-up query was not answered")?;
        }
    }
    let reqs = data.queries.iter().map(|q| q.request()).collect();
    Ok(Ready {
        engine,
        data,
        reqs,
        server,
        checkpointer,
        conns,
        load,
    })
}

/// A traced direct query: the client thread calls
/// `ShardedExecutor::query` itself, as the server would.
struct Direct {
    /// Rotation index.
    idx: usize,
    exec_us: f64,
    shard_us: Vec<f64>,
    merge_us: f64,
    stats: sg_tree::QueryStats,
}

impl Direct {
    fn slowest_shard_us(&self) -> f64 {
        self.shard_us.iter().copied().fold(0.0, f64::max)
    }
}

/// A traced wire query: the client round trip and the codec work for its
/// request and response.
struct Wire {
    /// Rotation index.
    idx: usize,
    codec_us: f64,
    rtt_us: f64,
}

#[derive(Default)]
struct ConnWindow {
    /// When the window started: the timelines count from here.
    start: Option<Instant>,
    writes: Timeline,
    queries: Timeline,
    /// Rotation index of each entry of `queries`.
    query_idx: Vec<usize>,
    failed: u64,
    direct: Vec<Direct>,
    wire: Vec<Wire>,
    spans: SpanLog,
}

impl ConnWindow {
    /// Seconds since the window started.
    fn now(&self) -> f64 {
        self.start.expect("window started").elapsed().as_secs_f64()
    }
}

/// The traced half's query of a write/query pair. Pairs alternate between
/// a direct executor call and a wire call, so each runs right after the
/// connection's write, on a view as cold as the untraced queries see; the
/// ladder compares the two populations' medians. (With one connection
/// and an even rotation, even rotation indices go direct and odd ones
/// over the wire.)
fn traced_query(
    c: &mut Conn,
    exec: &ShardedExecutor,
    queries: &[Query],
    reqs: &[QueryRequest],
    w: &mut ConnWindow,
    origin: Instant,
) {
    let direct = c.next_query.is_multiple_of(2);
    let idx = c.next_index(queries.len());
    let trace = (c.conn << 40) | c.next_query as u64;
    let at = |t: Instant| (t - origin).as_nanos() as u64;
    let ns = |us: f64| (us * 1e3) as u64;
    if direct {
        let t0 = Instant::now();
        let Ok(resp) = exec.query(&reqs[idx], &QueryOptions::default()) else {
            w.failed += 1;
            return;
        };
        let exec_us = us_since(t0);
        let shard_us: Vec<f64> = resp
            .per_shard
            .iter()
            .map(|s| s.resources.cpu_ns as f64 / 1e3)
            .collect();
        w.spans.push(trace, "exec.query", None, at(t0), ns(exec_us));
        for &us in &shard_us {
            w.spans
                .push(trace, "core.query", Some("exec.query"), at(t0), ns(us));
        }
        w.direct.push(Direct {
            idx,
            exec_us,
            shard_us,
            merge_us: resp.merge_ns as f64 / 1e3,
            stats: resp.stats,
        });
        return;
    }
    let req = queries[idx].wire(c.id());
    let t1 = Instant::now();
    let resp = c.client.call(&req);
    let rtt_us = us_since(t1);
    let Ok(resp) = resp else {
        w.failed += 1;
        return;
    };
    let c0 = Instant::now();
    let ok = decode_request(&encode_request(&req)).is_ok()
        && decode_response(&encode_response(&resp)).is_ok();
    let codec_us = us_since(c0);
    if !ok || !answered(resp) {
        w.failed += 1;
        return;
    }
    w.queries.push(w.now(), rtt_us);
    w.query_idx.push(idx);
    w.spans.push(trace, "client.call", None, at(t1), ns(rtt_us));
    w.spans
        .push(trace, "serve.codec", None, at(c0), ns(codec_us));
    w.wire.push(Wire {
        idx,
        codec_us,
        rtt_us,
    });
}

struct Window {
    conns: Vec<ConnWindow>,
    secs: f64,
    cpu_us: f64,
    /// Host steal over the window, percent.
    steal_pct: f64,
}

impl Window {
    fn attempted(&self) -> u64 {
        self.ops().len() as u64 + self.conns.iter().map(|c| c.failed).sum::<u64>()
    }

    fn queries(&self) -> Timeline {
        let mut t = Timeline::default();
        self.conns.iter().for_each(|c| t.extend(&c.queries));
        t
    }

    fn writes(&self) -> Timeline {
        let mut t = Timeline::default();
        self.conns.iter().for_each(|c| t.extend(&c.writes));
        t
    }

    /// Each rotation query's fastest answered run over the wire.
    fn fastest_queries(&self) -> Vec<f64> {
        fastest_per_key(self.conns.iter().flat_map(|c| {
            c.query_idx
                .iter()
                .zip(&c.queries.samples)
                .map(|(&idx, &(_, us))| (idx, us))
        }))
    }

    /// The fastest of each [`WRITE_BLOCK`] consecutive acknowledged
    /// writes of a connection.
    fn write_blocks(&self) -> Vec<f64> {
        self.conns
            .iter()
            .flat_map(|c| {
                let us: Vec<f64> = c.writes.samples.iter().map(|&(_, us)| us).collect();
                block_min(&us, WRITE_BLOCK)
            })
            .collect()
    }

    fn ops(&self) -> Timeline {
        let mut t = self.queries();
        t.extend(&self.writes());
        t
    }
}

fn run_window(r: &mut Ready, secs: f64, traced: bool, origin: Instant) -> Window {
    let exec = &r.engine.exec;
    let queries = &r.data.queries;
    let reqs = &r.reqs;
    let cpu0 = process_cpu_us();
    let ticks0 = cpu_ticks();
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(secs);
    let conns = std::thread::scope(|s| {
        let handles: Vec<_> = r
            .conns
            .iter_mut()
            .map(|c| {
                s.spawn(move || {
                    let mut w = ConnWindow {
                        start: Some(t0),
                        ..ConnWindow::default()
                    };
                    while Instant::now() < end {
                        match c.write() {
                            Some(us) => w.writes.push(w.now(), us),
                            None => w.failed += 1,
                        }
                        if traced {
                            traced_query(c, exec, queries, reqs, &mut w, origin);
                        } else {
                            match c.query(queries) {
                                Some((idx, us)) => {
                                    w.queries.push(w.now(), us);
                                    w.query_idx.push(idx);
                                }
                                None => w.failed += 1,
                            }
                        }
                    }
                    w
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Window {
        conns,
        secs: t0.elapsed().as_secs_f64(),
        cpu_us: process_cpu_us() - cpu0,
        steal_pct: steal_pct(ticks0, cpu_ticks()),
    }
}

/// Every tid the index should hold, with its items: the preloaded rows
/// plus each connection's acknowledged writes.
fn expected_state(data: &Data, models: &[&Model]) -> HashMap<u64, Vec<u32>> {
    let mut want: HashMap<u64, Vec<u32>> = data
        .rows
        .iter()
        .enumerate()
        .map(|(tid, items)| (tid as u64, items.clone()))
        .collect();
    for m in models {
        for (&tid, state) in &m.tids {
            match state {
                Some(items) => {
                    want.insert(tid, items.clone());
                }
                None => {
                    want.remove(&tid);
                }
            }
        }
        for tid in &m.unknown {
            want.remove(tid);
        }
    }
    want
}

/// Tids whose indexed state differs from `want` (missing, stale, or
/// present though deleted), reading every shard's tree in full.
fn state_mismatches(
    exec: &ShardedExecutor,
    want: &HashMap<u64, Vec<u32>>,
    models: &[&Model],
) -> u64 {
    let mut have: HashMap<u64, Signature> = HashMap::new();
    for shard in 0..exec.shards() {
        have.extend(exec.with_shard(shard, |t| t.dump()));
    }
    for m in models {
        for tid in &m.unknown {
            have.remove(tid);
        }
    }
    let mut bad = 0;
    for (tid, items) in want {
        if have.get(tid) != Some(&Signature::from_items(NBITS, items)) {
            bad += 1;
        }
    }
    bad + have.keys().filter(|t| !want.contains_key(t)).count() as u64
}

fn hist_delta_mean(before: &HistogramSnapshot, after: &HistogramSnapshot) -> f64 {
    let n = after.count - before.count;
    if n == 0 {
        0.0
    } else {
        (after.sum - before.sum) as f64 / n as f64
    }
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut ready: Option<Ready> = None;
    for n in 0..crate::SETUPS {
        if let Some(old) = ready.take() {
            let (engine, _) = old.tear_down();
            let dir = engine.dir.clone();
            drop(engine);
            engine::remove_dir(&dir);
        }
        let t0 = Instant::now();
        ready = Some(set_up(p, n)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut r = ready.expect("at least one set-up");
    let reg = Arc::clone(&r.engine.registry);
    let ingest = Arc::clone(&r.engine.ingest);
    let store = Arc::clone(&r.engine.store);
    let counters = |reg: &sg_obs::Registry| {
        (
            ingest.writes.get(),
            ingest.wal_bytes.get(),
            ingest.wal_syncs.get(),
            store.pages_freed.get(),
            reg.counter("serve.requests").get(),
            reg.counter("serve.busy_rejected").get(),
        )
    };
    let c0 = counters(&reg);
    let h0 = (
        ingest.checkpoint_ns.snapshot(),
        ingest.write_ns.snapshot(),
        reg.histogram("serve.batch_size").snapshot(),
    );

    let origin = Instant::now();
    let first_secs = if p.trace { p.seconds / 2.0 } else { p.seconds };
    let w1 = run_window(&mut r, first_secs, false, origin);
    let w2 = p
        .trace
        .then(|| run_window(&mut r, p.seconds / 2.0, true, origin));
    let c1 = counters(&reg);
    let h1 = (
        ingest.checkpoint_ns.snapshot(),
        ingest.write_ns.snapshot(),
        reg.histogram("serve.batch_size").snapshot(),
    );
    drop((ingest, store));

    // Space, the executor-level probe and the live state check, before
    // the drain.
    let models: Vec<&Model> = r.conns.iter().map(|c| &c.model).collect();
    let want = expected_state(&r.data, &models);
    let (pages, wal) = durable_bytes(&r.engine.dir);
    // Before the checks and probes, which are not part of the workload.
    let peak_rss = peak_rss_mb();
    let live_user = user_bytes(want.values());
    let live_bad = state_mismatches(&r.engine.exec, &want, &models);
    let exec = Arc::clone(&r.engine.exec);
    let live_rows = exec.len() as f64;
    let probe_stats: Vec<sg_tree::QueryStats> = r
        .reqs
        .iter()
        .take(PCT_PROBES)
        .filter_map(|q| {
            exec.query(q, &QueryOptions::default())
                .ok()
                .map(|resp| resp.stats)
        })
        .collect();
    let probe_failed = (PCT_PROBES - probe_stats.len()) as u64;
    let pct = 100.0
        * probe_stats
            .iter()
            .map(|s| s.data_compared as f64)
            .sum::<f64>()
        / probe_stats.len().max(1) as f64
        / live_rows;
    let probes: Vec<Signature> = r
        .data
        .queries
        .iter()
        .take(60)
        .map(|q| Signature::from_items(NBITS, &q.items))
        .collect();
    let sig = p.trace.then(|| layers::sig_cost(&exec, &probes));
    drop(exec);

    // Drain, drop, reopen, and check every acknowledged write again.
    let load = r.load.clone();
    let (engine, models) = r.tear_down();
    let models: Vec<&Model> = models.iter().collect();
    let dir = engine.dir.clone();
    drop(engine);
    let reopened_bad = match engine::open(&dir, FRAMES) {
        Ok(e) => state_mismatches(&e.exec, &want, &models),
        Err(_) => want.len() as u64,
    };
    engine::remove_dir(&dir);

    let mut windows = vec![&w1];
    windows.extend(w2.as_ref());
    let attempted: u64 = windows.iter().map(|w| w.attempted()).sum::<u64>() + PCT_PROBES as u64;
    let op_failed: u64 = windows
        .iter()
        .flat_map(|w| w.conns.iter().map(|c| c.failed))
        .sum();
    let failed = op_failed + live_bad + reopened_bad + probe_failed;
    let query_us = w1.fastest_queries();
    let write_us = w1.write_blocks();
    let mut notes = vec![
        format!(
            "storage=mmap fsync=always checkpointer every {CHECKPOINT_MS} ms; {CONNS} closed-loop connection(s); default ServeConfig/BatchPolicy, admin off"
        ),
        format!(
            "{} queries and {} writes in {:.2} s ({:.1} % host steal); query percentiles over the fastest runs of {} rotation queries, write percentiles over the fastest of each {WRITE_BLOCK} consecutive writes ({} blocks); the p99s have {} and {} samples above them",
            w1.queries().len(),
            w1.writes().len(),
            w1.secs,
            w1.steal_pct,
            query_us.len(),
            write_us.len(),
            query_us.len() / 100,
            write_us.len() / 100
        ),
        format!(
            "state check: {} tids expected, {live_bad} wrong while serving, {reopened_bad} wrong after reopen",
            want.len()
        ),
        format!(
            "pct_data_compared from {} rotation queries run directly on the final index",
            probe_stats.len()
        ),
        "space_amp user bytes: 8-byte tid + 4 bytes per item of every live row".to_string(),
    ];
    let mut m = Metrics::default();
    if !p.trace {
        m.set("setup_s", median(&setup_s), "s");
        m.set("ops_per_s", w1.ops().rate(w1.secs), "1/s");
        m.set("query_p50_us", median(&query_us), "us");
        m.set("query_p99_us", percentile(&query_us, 99.0), "us");
        m.set("write_p50_us", median(&write_us), "us");
        m.set(
            "cpu_us_per_op",
            w1.cpu_us / w1.ops().len().max(1) as f64,
            "us",
        );
        m.set("peak_rss_mb", peak_rss, "MB");
        m.set(
            "space_amp",
            (pages + wal) as f64 / live_user as f64,
            "ratio",
        );
        m.set("pct_data_compared", pct, "%");
        m.set(
            "ok_ratio",
            (attempted - failed.min(attempted)) as f64 / attempted as f64,
            "ratio",
        );
        return Ok(Outcome {
            attempted,
            failed,
            metrics: m,
            notes,
            ladder: None,
        });
    }

    let w2 = w2.expect("traced window");
    let sig = sig.expect("traced run");
    let mut spans = SpanLog::default();
    let mut direct: Vec<Direct> = Vec::new();
    let mut wire: Vec<Wire> = Vec::new();
    for c in w2.conns {
        spans.extend(c.spans);
        direct.extend(c.direct);
        wire.extend(c.wire);
    }
    spans
        .write(&crate::spans_path(p))
        .map_err(|e| format!("writing the span log: {e}"))?;
    let col = |f: &dyn Fn(&Direct) -> f64| direct.iter().map(f).collect::<Vec<f64>>();
    let per = |f: &dyn Fn(&sg_tree::QueryStats) -> u64| {
        direct.iter().map(|t| f(&t.stats) as f64).sum::<f64>() / direct.len().max(1) as f64
    };
    // The ladder's steps use the estimator of `query_p50_us`: the median
    // over rotation queries of each query's fastest traced run.
    let fastest =
        |f: &dyn Fn(&Direct) -> f64| median(&fastest_per_key(direct.iter().map(|t| (t.idx, f(t)))));
    let exec_p50 = fastest(&|t| t.exec_us);
    let core_p50 = fastest(&Direct::slowest_shard_us);
    let codec_p50 = median(&wire.iter().map(|t| t.codec_us).collect::<Vec<_>>());
    let rtt_p50 = median(&fastest_per_key(wire.iter().map(|t| (t.idx, t.rtt_us))));
    let client_p50 = median(&query_us);
    let logical = per(&|s| s.io.logical_reads);
    let physical = per(&|s| s.io.physical_reads);
    let writes = (c1.0 - c0.0) as f64;
    let requests = (c1.4 - c0.4) as f64;

    m.set("sig.decode_ns_per_node", sig.decode_ns_per_node, "ns");
    m.set("sig.sweep_ns_per_node", sig.sweep_ns_per_node, "ns");
    m.set(
        "sig.bytes_decoded_per_query",
        per(&|s| s.resources.bytes_decoded),
        "B",
    );
    m.set(
        "sig.lane_ops_per_query",
        per(&|s| s.resources.lane_ops),
        "count",
    );
    m.set(
        "core.query_us",
        median(
            &direct
                .iter()
                .flat_map(|t| t.shard_us.iter().copied())
                .collect::<Vec<_>>(),
        ),
        "us",
    );
    m.set("core.nodes_per_query", per(&|s| s.nodes_accessed), "count");
    m.set(
        "core.dist_computations_per_query",
        per(&|s| s.dist_computations),
        "count",
    );
    m.set(
        "pager.pool_hit_rate",
        1.0 - physical / logical.max(1e-9),
        "ratio",
    );
    m.set("pager.logical_reads_per_query", logical, "count");
    m.set("pager.physical_reads_per_query", physical, "count");
    m.set(
        "pager.wal_bytes_per_write",
        (c1.1 - c0.1) as f64 / writes,
        "B",
    );
    m.set(
        "pager.wal_syncs_per_write",
        (c1.2 - c0.2) as f64 / writes,
        "count",
    );
    m.set(
        "store.checkpoint_ms",
        hist_delta_mean(&h0.0, &h1.0) / 1e6,
        "ms",
    );
    m.set(
        "store.cow_pages_per_write",
        (c1.3 - c0.3) as f64 / writes,
        "count",
    );
    m.set("store.file_bytes_per_row", pages as f64 / live_rows, "B");
    m.set(
        "exec.fanout_us",
        median(&col(&|t| t.exec_us - t.slowest_shard_us())),
        "us",
    );
    m.set("exec.merge_us", median(&col(&|t| t.merge_us)), "us");
    m.set(
        "exec.write_us_per_op",
        hist_delta_mean(&h0.1, &h1.1) / 1e3,
        "us",
    );
    m.set("serve.codec_us", codec_p50, "us");
    m.set("serve.overhead_us", rtt_p50 - exec_p50, "us");
    m.set(
        "serve.batch_size_mean",
        hist_delta_mean(&h0.2, &h1.2),
        "count",
    );
    m.set(
        "serve.busy_ratio",
        (c1.5 - c0.5) as f64 / requests.max(1.0),
        "ratio",
    );
    m.set("client.query_samples", w1.queries().len() as f64, "count");
    m.set("client.write_p99_us", percentile(&write_us, 99.0), "us");
    // Half the traced pairs bypass the server, so the halves' ops/s do
    // not compare; the wire queries do, each made right after a write.
    m.set(
        "obs.trace_overhead_pct",
        100.0 * (rtt_p50 - client_p50) / client_p50,
        "%",
    );
    notes.push(format!(
        "ladder from {} direct and {} wire traced queries, alternating after each write; client p50 from {} untraced queries; sig micro pass over {} node pages; checkpoints: {} in the run, load checkpoint {:.1} ms",
        direct.len(),
        wire.len(),
        w1.queries().len(),
        sig.nodes,
        h1.0.count - h0.0.count,
        load.checkpoint_ms
    ));
    let ladder = Ladder::new(
        client_p50,
        vec![
            ("core", core_p50),
            ("exec", exec_p50 - core_p50),
            ("serve.codec", codec_p50),
            ("serve.batcher_wire", rtt_p50 - exec_p50 - codec_p50),
        ],
    );
    ladder.record(&mut m);
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
        notes,
        ladder: Some(ladder),
    })
}
