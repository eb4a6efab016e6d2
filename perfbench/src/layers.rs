//! Traced-run instruments: the `sig` layer's per-node decode and sweep
//! costs, and the in-memory span log written out when the run ends.

use crate::gen::NBITS;
use sg_exec::ShardedExecutor;
use sg_sig::{Metric, Signature};
use sg_tree::{QueryProbe, SoaNode};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Per-node costs of the two halves of a node visit.
pub struct SigCost {
    pub nodes: usize,
    pub decode_ns_per_node: f64,
    pub sweep_ns_per_node: f64,
}

/// Every node page of every shard, read through the shard tree's buffer
/// pool by walking down from the root recorded in the tree's meta page
/// (page 0: magic, nbits, then the root page id at bytes 12..20).
fn node_pages(exec: &ShardedExecutor) -> Vec<Arc<[u8]>> {
    let mut pages = Vec::new();
    for shard in 0..exec.shards() {
        exec.with_shard(shard, |tree| {
            let meta = tree.pool().read(0);
            let root = u64::from_le_bytes(meta[12..20].try_into().expect("8 bytes"));
            let mut stack = vec![root];
            while let Some(id) = stack.pop() {
                let page = tree.pool().read(id);
                let node = SoaNode::decode(NBITS, &page);
                if !node.is_leaf() {
                    stack.extend((0..node.len()).map(|i| node.ptr(i)));
                }
                pages.push(page);
            }
        });
    }
    pages
}

/// Times `SoaNode::decode` over every node page, and the Hamming kernel
/// sweep (lower bound per directory entry, exact distance per leaf
/// entry) of every decoded node against each probe.
pub fn sig_cost(exec: &ShardedExecutor, probes: &[Signature]) -> SigCost {
    const DECODE_PASSES: usize = 20;
    let pages = node_pages(exec);
    let t0 = Instant::now();
    for _ in 0..DECODE_PASSES {
        for page in &pages {
            black_box(SoaNode::decode(NBITS, black_box(page)));
        }
    }
    let decode_ns = t0.elapsed().as_nanos() as f64;
    let nodes: Vec<SoaNode> = pages.iter().map(|p| SoaNode::decode(NBITS, p)).collect();
    let probes: Vec<QueryProbe> = probes.iter().map(QueryProbe::new).collect();
    let metric = Metric::hamming();
    let t1 = Instant::now();
    let mut acc = 0.0;
    for probe in &probes {
        for node in &nodes {
            for i in 0..node.len() {
                acc += if node.is_leaf() {
                    node.dist(i, probe, &metric)
                } else {
                    node.mindist(i, probe, &metric)
                };
            }
        }
    }
    black_box(acc);
    let sweep_ns = t1.elapsed().as_nanos() as f64;
    SigCost {
        nodes: pages.len(),
        decode_ns_per_node: decode_ns / (DECODE_PASSES * pages.len()) as f64,
        sweep_ns_per_node: sweep_ns / (probes.len() * pages.len()).max(1) as f64,
    }
}

/// One span recorded by the benchmark around a call into a layer. Spans
/// of one request share `trace`; `parent` names the enclosing span.
pub struct Span {
    pub trace: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Spans kept in memory during the traced window.
#[derive(Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn push(
        &mut self,
        trace: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
        dur_ns: u64,
    ) {
        self.spans.push(Span {
            trace,
            name,
            parent,
            start_ns,
            dur_ns,
        });
    }

    pub fn extend(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Writes one JSON object per span to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            writeln!(
                out,
                "{{\"trace\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"dur_ns\": {}}}",
                s.trace, s.name, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}
