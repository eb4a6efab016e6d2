//! `read-resident`: one closed-loop caller runs the query rotation
//! through `ShardedExecutor::query` on the loaded, checkpointed index,
//! whose pools hold every node.

use crate::engine::{self, Engine, LoadCost};
use crate::gen::{Data, NBITS};
use crate::layers::{self, SpanLog};
use crate::measure::{
    cpu_ticks, durable_bytes, fastest_per_key, median, peak_rss_mb, per_key, percentile,
    process_cpu_us, steal_pct, us_since, user_bytes, Metrics, Timeline,
};
use crate::oracle::{output_digest, Oracle};
use crate::{Ladder, Outcome, Params};
use sg_exec::{QueryOptions, QueryRequest};
use sg_sig::Signature;
use sg_tree::{QueryStats, SharedBound};
use std::time::Instant;

/// Frames per shard pool: about three times the ~320 nodes of a
/// 25 000-row shard, so every node stays cached.
pub const FRAMES: usize = 1024;
/// Rotation queries run before the first timed window.
const WARM_QUERIES: usize = 150;

struct Ready {
    engine: Engine,
    data: Data,
    reqs: Vec<QueryRequest>,
    load: LoadCost,
}

/// Generation + durable load + checkpoint + `WARM_QUERIES` warm-up
/// queries (a fixed count, so the pools start every window in the same
/// state).
fn set_up(p: &Params, n: usize) -> Result<Ready, String> {
    let data = Data::generate(p.seed);
    let engine = engine::open(&engine::fresh_dir(p.workload, n), FRAMES)?;
    let load = engine.load(&data.rows)?;
    let reqs: Vec<QueryRequest> = data.queries.iter().map(|q| q.request()).collect();
    let opts = QueryOptions::default();
    for r in reqs.iter().take(WARM_QUERIES) {
        engine
            .exec
            .query(r, &opts)
            .map_err(|e| format!("warm-up query: {e}"))?;
    }
    Ok(Ready {
        engine,
        data,
        reqs,
        load,
    })
}

/// One traced query: the caller-timed executor call and the per-shard
/// times the executor reports for `SgTree::query` on each shard view.
struct Traced {
    /// Rotation index.
    idx: usize,
    exec_us: f64,
    shard_us: Vec<f64>,
    merge_us: f64,
}

impl Traced {
    fn slowest_shard_us(&self) -> f64 {
        self.shard_us.iter().copied().fold(0.0, f64::max)
    }
}

#[derive(Default)]
struct Window {
    /// Latency of every answered query.
    lat: Timeline,
    /// `(rotation index, answer digest)` of every answered query.
    answers: Vec<(usize, u64)>,
    errors: u64,
    /// Physical page reads the executor reported over the window.
    physical_reads: u64,
    traced: Vec<Traced>,
    secs: f64,
    cpu_us: f64,
    /// Host steal over the window, percent.
    steal_pct: f64,
    next: usize,
}

impl Window {
    fn ops(&self) -> u64 {
        self.lat.len() as u64
    }

    /// Each rotation query's fastest run in the window. A burst of host
    /// noise slows some of a query's runs, not all of them, so
    /// percentiles over these follow the query mix rather than the noise.
    fn per_query_us(&self) -> Vec<f64> {
        fastest_per_key(
            self.answers
                .iter()
                .zip(&self.lat.samples)
                .map(|(&(idx, _), &(_, us))| (idx, us)),
        )
    }
}

fn run_window(
    r: &Ready,
    start: usize,
    secs: f64,
    traced: bool,
    spans: &mut SpanLog,
    origin: Instant,
) -> Window {
    let opts = QueryOptions::default();
    let mut w = Window::default();
    let cpu0 = process_cpu_us();
    let ticks0 = cpu_ticks();
    let t0 = Instant::now();
    let mut i = start;
    while t0.elapsed().as_secs_f64() < secs {
        let idx = i % r.reqs.len();
        let q0 = Instant::now();
        let res = r.engine.exec.query(&r.reqs[idx], &opts);
        let lat = us_since(q0);
        i += 1;
        let resp = match res {
            Ok(resp) => resp,
            Err(_) => {
                w.errors += 1;
                continue;
            }
        };
        w.lat.push(t0.elapsed().as_secs_f64(), lat);
        w.answers.push((idx, output_digest(&resp.output)));
        w.physical_reads += resp.stats.io.physical_reads;
        if traced {
            let t = Traced {
                idx,
                exec_us: lat,
                shard_us: resp
                    .per_shard
                    .iter()
                    .map(|s| s.resources.cpu_ns as f64 / 1e3)
                    .collect(),
                merge_us: resp.merge_ns as f64 / 1e3,
            };
            let at = (q0 - origin).as_nanos() as u64;
            let id = i as u64;
            spans.push(id, "exec.query", None, at, (lat * 1e3) as u64);
            for &us in &t.shard_us {
                spans.push(id, "core.query", Some("exec.query"), at, (us * 1e3) as u64);
            }
            spans.push(id, "exec.merge", Some("exec.query"), at, resp.merge_ns);
            w.traced.push(t);
        }
    }
    w.secs = t0.elapsed().as_secs_f64();
    w.cpu_us = process_cpu_us() - cpu0;
    w.steal_pct = steal_pct(ticks0, cpu_ticks());
    w.next = i;
    w
}

/// Compares every answer against the brute-force digest of its query.
fn check_answers(data: &Data, windows: &[&Window]) -> u64 {
    let oracle = Oracle::new(&data.rows);
    let mut want: Vec<Option<u64>> = vec![None; data.queries.len()];
    let mut wrong = 0;
    for w in windows {
        for &(idx, got) in &w.answers {
            let d = *want[idx].get_or_insert_with(|| oracle.digest(&data.queries[idx]));
            if d != got {
                wrong += 1;
            }
        }
    }
    wrong
}

/// The count metrics' source: one cycle of the rotation, each query run
/// shard by shard on this thread through `SgTree::query_shared`
/// with one k-NN bound shared in shard order — what the executor does,
/// minus the thread interleaving that makes its counts vary run to run.
/// The shard trees read through their own pools, sized like the views'.
fn count_pass(r: &Ready) -> Result<Vec<QueryStats>, String> {
    let opts = QueryOptions::default();
    let exec = &r.engine.exec;
    r.reqs
        .iter()
        .map(|req| {
            let bound = SharedBound::new();
            let mut total = QueryStats::default();
            for shard in 0..exec.shards() {
                let resp = exec
                    .with_shard(shard, |t| t.query_shared(req, &opts, &bound))
                    .map_err(|e| format!("count-pass query: {e}"))?;
                total.add(&resp.stats);
            }
            Ok(total)
        })
        .collect()
}

fn per_query(cycle: &[QueryStats], f: impl Fn(&QueryStats) -> u64) -> f64 {
    cycle.iter().map(|s| f(s) as f64).sum::<f64>() / cycle.len().max(1) as f64
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut loads = Vec::new();
    let mut ready: Option<Ready> = None;
    for n in 0..crate::SETUPS {
        if let Some(old) = ready.take() {
            let dir = old.engine.dir.clone();
            drop(old);
            engine::remove_dir(&dir);
        }
        let t0 = Instant::now();
        let next = set_up(p, n)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        loads.push(next.load.clone());
        ready = Some(next);
    }
    let r = ready.expect("at least one set-up");

    let origin = Instant::now();
    let mut spans = SpanLog::default();
    let first_secs = if p.trace { p.seconds / 2.0 } else { p.seconds };
    let w1 = run_window(&r, 0, first_secs, false, &mut spans, origin);
    let w2 = p
        .trace
        .then(|| run_window(&r, w1.next, p.seconds / 2.0, true, &mut spans, origin));
    let (pages, wal) = durable_bytes(&r.engine.dir);
    // Before the checks and probes, which are not part of the workload.
    let peak_rss = peak_rss_mb();
    let live = r.data.rows.len() as f64;
    let space_amp = (pages + wal) as f64 / user_bytes(r.data.rows.iter()) as f64;

    let mut windows = vec![&w1];
    windows.extend(w2.as_ref());
    let wrong = check_answers(&r.data, &windows);
    let counts = count_pass(&r)?;
    let c = &counts;
    let query_us = w1.per_query_us();
    // Every set-up loads the same rows in the same calls: each call's
    // median over the set-ups, like `setup_s`. (Their fastest spread
    // further between seeds: three loads are too few for a minimum.)
    let write_us = per_key(
        loads
            .iter()
            .flat_map(|l| l.batch_us.iter().copied().enumerate()),
        median,
    );
    let attempted: u64 = windows.iter().map(|w| w.ops() + w.errors).sum();
    let failed = windows.iter().map(|w| w.errors).sum::<u64>() + wrong;

    let mut notes = vec![
        format!("storage=mmap fsync=always pool_frames_per_shard={FRAMES} checkpoint=once after load"),
        format!(
            "queries: {} in {:.2} s ({:.1} % host steal); latency percentiles over the fastest runs of {} rotation queries ({:.1} runs each; the p99 has {} above it); {:.2} physical page reads per query",
            w1.ops(),
            w1.secs,
            w1.steal_pct,
            query_us.len(),
            w1.ops() as f64 / query_us.len().max(1) as f64,
            query_us.len() / 100,
            w1.physical_reads as f64 / w1.ops().max(1) as f64
        ),
        format!("count metrics from a serial pass over {} rotation queries", c.len()),
        format!(
            "writes: the durable loads of the {} set-ups; latency percentiles over the {} write_batch calls (up to {} rows each), each call's median over the set-ups",
            loads.len(),
            write_us.len(),
            engine::LOAD_BATCH
        ),
        format!("space_amp user bytes: 8-byte tid + 4 bytes per item, {} live rows", live),
    ];
    let mut m = Metrics::default();
    if !p.trace {
        m.set("setup_s", median(&setup_s), "s");
        m.set("ops_per_s", w1.lat.rate(w1.secs), "1/s");
        m.set("query_p50_us", median(&query_us), "us");
        m.set("query_p99_us", percentile(&query_us, 99.0), "us");
        m.set("write_p50_us", median(&write_us), "us");
        m.set("cpu_us_per_op", w1.cpu_us / w1.ops().max(1) as f64, "us");
        m.set("peak_rss_mb", peak_rss, "MB");
        m.set("space_amp", space_amp, "ratio");
        m.set(
            "pct_data_compared",
            100.0 * per_query(c, |s| s.data_compared) / live,
            "%",
        );
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
    let probes: Vec<Signature> = r
        .data
        .queries
        .iter()
        .take(60)
        .map(|q| Signature::from_items(NBITS, &q.items))
        .collect();
    let sig = layers::sig_cost(&r.engine.exec, &probes);
    spans
        .write(&crate::spans_path(p))
        .map_err(|e| format!("writing the span log: {e}"))?;

    let t = &w2.traced;
    // The ladder's steps use the estimator of `query_p50_us`: the median
    // over rotation queries of each query's fastest traced run.
    let exec_p50 = median(&fastest_per_key(t.iter().map(|q| (q.idx, q.exec_us))));
    let core_p50 = median(&fastest_per_key(
        t.iter().map(|q| (q.idx, q.slowest_shard_us())),
    ));
    let all_shards: Vec<f64> = t.iter().flat_map(|q| q.shard_us.iter().copied()).collect();
    let fanout: Vec<f64> = t.iter().map(|q| q.exec_us - q.slowest_shard_us()).collect();
    let merge: Vec<f64> = t.iter().map(|q| q.merge_us).collect();
    let client_p50 = median(&query_us);
    let logical = per_query(c, |s| s.io.logical_reads);
    let physical = per_query(c, |s| s.io.physical_reads);
    let ld = &r.load;

    m.set("sig.decode_ns_per_node", sig.decode_ns_per_node, "ns");
    m.set("sig.sweep_ns_per_node", sig.sweep_ns_per_node, "ns");
    m.set(
        "sig.bytes_decoded_per_query",
        per_query(c, |s| s.resources.bytes_decoded),
        "B",
    );
    m.set(
        "sig.lane_ops_per_query",
        per_query(c, |s| s.resources.lane_ops),
        "count",
    );
    m.set("core.query_us", median(&all_shards), "us");
    m.set(
        "core.nodes_per_query",
        per_query(c, |s| s.nodes_accessed),
        "count",
    );
    m.set(
        "core.dist_computations_per_query",
        per_query(c, |s| s.dist_computations),
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
        ld.wal_bytes as f64 / ld.rows as f64,
        "B",
    );
    m.set(
        "pager.wal_syncs_per_write",
        ld.wal_syncs as f64 / ld.rows as f64,
        "count",
    );
    m.set("store.checkpoint_ms", ld.checkpoint_ms, "ms");
    m.set(
        "store.cow_pages_per_write",
        ld.cow_pages as f64 / ld.rows as f64,
        "count",
    );
    m.set("store.file_bytes_per_row", pages as f64 / live, "B");
    m.set("exec.fanout_us", median(&fanout), "us");
    m.set("exec.merge_us", median(&merge), "us");
    m.set("exec.write_us_per_op", ld.load_us / ld.rows as f64, "us");
    for name in ["serve.codec_us", "serve.overhead_us"] {
        m.set(name, 0.0, "us");
    }
    m.set("serve.batch_size_mean", 0.0, "count");
    m.set("serve.busy_ratio", 0.0, "ratio");
    m.set("client.query_samples", w1.ops() as f64, "count");
    m.set("client.write_p99_us", percentile(&write_us, 99.0), "us");
    let untraced_ops = w1.lat.rate(w1.secs);
    let traced_ops = w2.lat.rate(w2.secs);
    m.set(
        "obs.trace_overhead_pct",
        100.0 * (untraced_ops - traced_ops) / untraced_ops,
        "%",
    );
    notes.push(format!(
        "sig micro pass: {} node pages; ladder from {} traced queries; client p50 from {} untraced queries",
        sig.nodes,
        t.len(),
        w1.ops()
    ));
    notes.push(format!(
        "sig share of the slowest shard (nodes/shard x (decode + sweep)): ~{:.1} us of {:.1} us",
        per_query(c, |s| s.nodes_accessed) / engine::SHARDS as f64
            * (sig.decode_ns_per_node + sig.sweep_ns_per_node)
            / 1e3,
        core_p50
    ));
    let ladder = Ladder::new(
        client_p50,
        vec![
            ("core", core_p50),
            ("exec", exec_p50 - core_p50),
            ("serve.codec", 0.0),
            ("serve.batcher_wire", 0.0),
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
