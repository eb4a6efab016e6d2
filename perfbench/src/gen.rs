//! Inputs, all derived from the `--seed`: Quest T10.I6 baskets over 1000
//! items, the §5.1-style query stream drawn from the same pattern pool,
//! and the per-connection write streams of `serve-ingest`.
//!
//! The pattern pool — the data distribution — is part of the benchmark's
//! definition and does not change with the seed; the seed draws the rows,
//! the queries and the writes from it. A seed-dependent pool would change
//! how clustered the data is, and with it every cost, by far more than the
//! run-to-run noise the benchmark's bounds allow.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sg_exec::QueryRequest;
use sg_quest::basket::{BasketParams, PatternPool};
use sg_serve::{ContainmentMode, MetricName, Request};
use sg_sig::{Metric, Signature};

/// Signature width: the item universe of the Quest generator.
pub const NBITS: u32 = 1000;
/// Rows loaded before any workload starts.
pub const ROWS: usize = 50_000;
/// Result size of the k-NN queries.
pub const K: usize = 10;
/// Inclusive Hamming radius of the range queries.
pub const RADIUS: f64 = 4.0;
/// Distinct queries in the rotation (a third of each kind). The timed
/// windows cycle through them, so each query runs several times in a
/// window; the count metrics and `pct_data_compared` cover one full
/// cycle.
pub const DISTINCT_QUERIES: usize = 1200;
/// Seed of the pattern pool the rows, queries and writes are drawn from.
const POOL_SEED: u64 = 0x5347_2d74_7265_6531;
/// First tid of connection `c`'s write range is `(c + 1) * TID_STRIDE`,
/// far above the preloaded tids `0..ROWS`.
pub const TID_STRIDE: u64 = 1 << 32;

/// The three query kinds the rotation cycles through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// k-NN, k = [`K`], Hamming.
    Knn,
    /// Hamming range, radius [`RADIUS`].
    Range,
    /// Supersets of a 2-item subset of the drawn basket.
    Containing,
}

/// One query of the rotation: its kind and the item set it sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub kind: Kind,
    pub items: Vec<u32>,
}

impl Query {
    /// The executor-level request.
    pub fn request(&self) -> QueryRequest {
        let q = Signature::from_items(NBITS, &self.items);
        match self.kind {
            Kind::Knn => QueryRequest::Knn {
                q,
                k: K,
                metric: Metric::hamming(),
            },
            Kind::Range => QueryRequest::Range {
                q,
                eps: RADIUS,
                metric: Metric::hamming(),
            },
            Kind::Containing => QueryRequest::Containing { q },
        }
    }

    /// The same query as a wire frame. The generous deadline keeps a slow
    /// fsync from turning a query into a `DEADLINE_EXCEEDED`.
    pub fn wire(&self, id: u64) -> Request {
        let items = self.items.clone();
        let timeout_ms = Some(30_000);
        match self.kind {
            Kind::Knn => Request::Knn {
                id,
                items,
                k: K as u64,
                metric: MetricName::Hamming,
                timeout_ms,
                trace_id: None,
            },
            Kind::Range => Request::Range {
                id,
                items,
                radius: RADIUS,
                timeout_ms,
                trace_id: None,
            },
            Kind::Containing => Request::Containment {
                id,
                mode: ContainmentMode::Containing,
                items,
                timeout_ms,
                trace_id: None,
            },
        }
    }
}

/// Everything one seed determines.
pub struct Data {
    pool: PatternPool,
    seed: u64,
    /// Row `i` has tid `i`.
    pub rows: Vec<Vec<u32>>,
    pub queries: Vec<Query>,
}

impl Data {
    pub fn generate(seed: u64) -> Data {
        let pool = PatternPool::new(BasketParams::standard(10, 6), POOL_SEED);
        let rows = pool.dataset(ROWS, seed).transactions;
        let mut pick = StdRng::seed_from_u64(seed ^ 0x7175_6572_795f_6b69);
        let queries = pool
            .queries(DISTINCT_QUERIES, seed)
            .into_iter()
            .enumerate()
            .map(|(i, basket)| match i % 3 {
                0 => Query {
                    kind: Kind::Knn,
                    items: basket,
                },
                1 => Query {
                    kind: Kind::Range,
                    items: basket,
                },
                _ => Query {
                    kind: Kind::Containing,
                    items: two_item_subset(&basket, &mut pick),
                },
            })
            .collect();
        Data {
            pool,
            seed,
            rows,
            queries,
        }
    }

    /// The write stream of connection `conn`.
    pub fn writes(&self, conn: u64) -> WriteStream {
        WriteStream {
            pool: self.pool.clone(),
            rng: StdRng::seed_from_u64(self.seed ^ 0x7772_6974_6573_0000 ^ conn),
            next_tid: (conn + 1) * TID_STRIDE,
            live: Vec::new(),
        }
    }
}

/// A sorted subset of at most two items of `basket`.
fn two_item_subset(basket: &[u32], rng: &mut StdRng) -> Vec<u32> {
    if basket.len() <= 2 {
        return basket.to_vec();
    }
    let a = rng.gen_range(0..basket.len());
    let mut b = rng.gen_range(0..basket.len() - 1);
    if b >= a {
        b += 1;
    }
    let mut out = vec![basket[a], basket[b]];
    out.sort_unstable();
    out
}

/// One write of a connection's stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Write {
    Insert { tid: u64, items: Vec<u32> },
    Upsert { tid: u64, items: Vec<u32> },
    Delete { tid: u64 },
}

impl Write {
    pub fn tid(&self) -> u64 {
        match self {
            Write::Insert { tid, .. } | Write::Upsert { tid, .. } | Write::Delete { tid } => *tid,
        }
    }

    pub fn wire(&self, id: u64) -> Request {
        let timeout_ms = Some(30_000);
        match self {
            Write::Insert { tid, items } => Request::Insert {
                id,
                tid: *tid,
                items: items.clone(),
                timeout_ms,
                trace_id: None,
            },
            Write::Upsert { tid, items } => Request::Upsert {
                id,
                tid: *tid,
                items: items.clone(),
                timeout_ms,
                trace_id: None,
            },
            Write::Delete { tid } => Request::Delete {
                id,
                tid: *tid,
                timeout_ms,
                trace_id: None,
            },
        }
    }
}

/// The `crash_ops` shape over fresh pattern-pool rows: ~70 % inserts of
/// new tids, ~15 % upserts and ~15 % deletes of tids this stream inserted
/// earlier. Streams of different connections never share a tid, so each
/// connection's acknowledged writes form an exact model of its range.
pub struct WriteStream {
    pool: PatternPool,
    rng: StdRng,
    next_tid: u64,
    live: Vec<u64>,
}

impl Iterator for WriteStream {
    type Item = Write;

    fn next(&mut self) -> Option<Write> {
        let roll: f64 = self.rng.gen();
        if roll < 0.70 || self.live.is_empty() {
            let tid = self.next_tid;
            self.next_tid += 1;
            self.live.push(tid);
            let items = self.pool.transaction(&mut self.rng);
            return Some(Write::Insert { tid, items });
        }
        let at = self.rng.gen_range(0..self.live.len());
        if roll < 0.85 {
            let items = self.pool.transaction(&mut self.rng);
            Some(Write::Upsert {
                tid: self.live[at],
                items,
            })
        } else {
            Some(Write::Delete {
                tid: self.live.swap_remove(at),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_request_streams() {
        let a = Data::generate(7);
        let b = Data::generate(7);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.queries, b.queries);
        for conn in 0..2 {
            let wa: Vec<Write> = a.writes(conn).take(2000).collect();
            let wb: Vec<Write> = b.writes(conn).take(2000).collect();
            assert_eq!(wa, wb);
        }
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        let a = Data::generate(7);
        let b = Data::generate(8);
        assert_ne!(a.rows, b.rows);
        assert_ne!(a.queries, b.queries);
    }

    #[test]
    fn write_streams_have_the_crash_ops_shape_and_disjoint_tids() {
        let data = Data::generate(3);
        let w0: Vec<Write> = data.writes(0).take(10_000).collect();
        let w1: Vec<Write> = data.writes(1).take(10_000).collect();
        let share = |w: &[Write], f: fn(&Write) -> bool| {
            w.iter().filter(|x| f(x)).count() as f64 / w.len() as f64
        };
        let inserts = share(&w0, |w| matches!(w, Write::Insert { .. }));
        let deletes = share(&w0, |w| matches!(w, Write::Delete { .. }));
        assert!((0.65..0.75).contains(&inserts), "inserts {inserts}");
        assert!((0.12..0.18).contains(&deletes), "deletes {deletes}");
        let r0 = TID_STRIDE..2 * TID_STRIDE;
        assert!(w0.iter().all(|w| r0.contains(&w.tid())));
        assert!(w1.iter().all(|w| !r0.contains(&w.tid())));
    }

    #[test]
    fn the_rotation_cycles_through_the_three_kinds() {
        let data = Data::generate(1);
        assert_eq!(data.queries.len(), DISTINCT_QUERIES);
        for (i, q) in data.queries.iter().enumerate() {
            let want = [Kind::Knn, Kind::Range, Kind::Containing][i % 3];
            assert_eq!(q.kind, want);
            assert!(!q.items.is_empty());
        }
    }
}
