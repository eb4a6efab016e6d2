//! Brute-force answers over the generated rows, independent of the
//! engine's signature and kernel code, and a digest to compare answers
//! without keeping them.

use crate::gen::{Kind, Query, K, NBITS, RADIUS};
use sg_exec::QueryOutput;

const WORDS: usize = NBITS.div_ceil(64) as usize;

type Bits = [u64; WORDS];

fn bits(items: &[u32]) -> Bits {
    let mut b = [0u64; WORDS];
    for &i in items {
        b[(i / 64) as usize] |= 1 << (i % 64);
    }
    b
}

/// The rows as bitsets; row `i` has tid `i`.
pub struct Oracle {
    rows: Vec<Bits>,
}

impl Oracle {
    pub fn new(rows: &[Vec<u32>]) -> Oracle {
        Oracle {
            rows: rows.iter().map(|r| bits(r)).collect(),
        }
    }

    fn hamming(a: &Bits, b: &Bits) -> u32 {
        a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
    }

    /// Digest of the exact answer to `q`, in the canonical order the
    /// engine promises: `(dist, tid)` for distance queries, ascending tid
    /// for id sets.
    pub fn digest(&self, q: &Query) -> u64 {
        let qb = bits(&q.items);
        match q.kind {
            Kind::Knn | Kind::Range => {
                let mut hits: Vec<(u32, u64)> = self
                    .rows
                    .iter()
                    .enumerate()
                    .map(|(tid, r)| (Self::hamming(&qb, r), tid as u64))
                    .filter(|&(d, _)| q.kind == Kind::Knn || f64::from(d) <= RADIUS)
                    .collect();
                hits.sort_unstable();
                if q.kind == Kind::Knn {
                    hits.truncate(K);
                }
                neighbors_digest(hits.iter().map(|&(d, tid)| (f64::from(d), tid)))
            }
            Kind::Containing => tids_digest(self.rows.iter().enumerate().filter_map(|(tid, r)| {
                r.iter()
                    .zip(&qb)
                    .all(|(row, q)| row & q == *q)
                    .then_some(tid as u64)
            })),
        }
    }
}

/// FNV-1a over a stream of words.
fn fnv(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

pub fn neighbors_digest(pairs: impl Iterator<Item = (f64, u64)>) -> u64 {
    fnv(std::iter::once(1).chain(pairs.flat_map(|(d, tid)| [d.to_bits(), tid])))
}

pub fn tids_digest(tids: impl Iterator<Item = u64>) -> u64 {
    fnv(std::iter::once(2).chain(tids))
}

/// Digest of an engine answer, comparable with [`Oracle::digest`].
pub fn output_digest(out: &QueryOutput) -> u64 {
    match out {
        QueryOutput::Neighbors(v) => neighbors_digest(v.iter().map(|n| (n.dist, n.tid))),
        QueryOutput::Tids(v) => tids_digest(v.iter().copied()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knn_range_and_containing_on_a_tiny_table() {
        let rows = vec![
            vec![1, 2, 3],
            vec![1, 2],
            vec![7, 8, 9, 10, 11, 12],
            vec![2, 3],
        ];
        let o = Oracle::new(&rows);
        let knn = Query {
            kind: Kind::Knn,
            items: vec![1, 2, 3],
        };
        // Four rows < K: every row, by (dist, tid).
        let want = neighbors_digest([(0.0, 0), (1.0, 1), (1.0, 3), (9.0, 2)].into_iter());
        assert_eq!(o.digest(&knn), want);
        let range = Query {
            kind: Kind::Range,
            items: vec![1, 2, 3],
        };
        let want = neighbors_digest([(0.0, 0), (1.0, 1), (1.0, 3)].into_iter());
        assert_eq!(o.digest(&range), want);
        let containing = Query {
            kind: Kind::Containing,
            items: vec![2, 3],
        };
        assert_eq!(o.digest(&containing), tids_digest([0, 3].into_iter()));
    }
}
