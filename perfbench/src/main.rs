//! One command for the SG-tree engine's end-to-end and per-layer costs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <read-resident|serve-ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs against the durable mmap executor (2 shards, 2
//! pool threads, fsync on every group commit) loaded with 50 000 Quest
//! T10.I6 baskets. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! prints the per-layer metrics and the latency ladder, from a run that
//! times half its window untraced and half traced. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `perfbench/README.md`.

mod engine;
mod gen;
mod layers;
mod measure;
mod oracle;
mod read;
mod serve;

use measure::{json_num, json_str, Metrics};
use std::path::PathBuf;
use std::process::ExitCode;

/// Set-ups per run; `setup_s` is their median and the last one is used.
pub const SETUPS: usize = 3;

const WORKLOADS: [&str; 2] = ["read-resident", "serve-ingest"];

pub struct Params {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back for printing.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub notes: Vec<String>,
    pub ladder: Option<Ladder>,
}

/// The latency ladder: per-layer increments, outermost last, plus the
/// residual that makes them sum to the client-observed median.
pub struct Ladder {
    pub client_p50_us: f64,
    pub steps: Vec<(&'static str, f64)>,
    pub residual_us: f64,
}

impl Ladder {
    pub fn new(client_p50_us: f64, steps: Vec<(&'static str, f64)>) -> Ladder {
        let explained: f64 = steps.iter().map(|(_, us)| us).sum();
        Ladder {
            client_p50_us,
            steps,
            residual_us: client_p50_us - explained,
        }
    }

    pub fn record(&self, m: &mut Metrics) {
        for &(layer, us) in &self.steps {
            let name = match layer {
                "core" => "ladder.core_us",
                "exec" => "ladder.exec_us",
                "serve.codec" => "ladder.serve_codec_us",
                "serve.batcher_wire" => "ladder.serve_batcher_wire_us",
                other => unreachable!("no ladder metric for layer {other}"),
            };
            m.set(name, us, "us");
        }
        m.set("client.residual_us", self.residual_us, "us");
        m.set("ladder.client_p50_us", self.client_p50_us, "us");
    }

    fn print(&self) {
        println!("ladder (p50 increments, us; they sum to the untraced client p50):");
        let mut total = 0.0;
        for &(layer, us) in &self.steps {
            total += us;
            println!("  + {layer:<20} {us:>12.2}   cumulative {total:>12.2}");
        }
        println!("  + {:<20} {:>12.2}", "client.residual", self.residual_us);
        println!(
            "  = {:<20} {:>12.2}",
            "client-observed p50",
            total + self.residual_us
        );
    }
}

pub fn spans_path(p: &Params) -> PathBuf {
    PathBuf::from(".perfbench_out").join(format!("spans-{}-seed{}.jsonl", p.workload, p.seed))
}

fn parse_args() -> Result<Params, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value.as_str())
                        .ok_or(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Params {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn labels(p: &Params) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let checkpoint = if p.workload == "serve-ingest" {
        format!("every {} ms", serve::CHECKPOINT_MS)
    } else {
        "once, after the load".into()
    };
    let fields = [
        ("workload", json_str(p.workload)),
        ("seed", p.seed.to_string()),
        ("seconds", json_num(p.seconds)),
        ("trace", p.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("kernel", json_str(sg_sig::kernels::active().kind.name())),
        ("storage", json_str("mmap")),
        ("fsync", json_str(&format!("{:?}", engine::FSYNC))),
        ("checkpoint", json_str(&checkpoint)),
        ("shards", engine::SHARDS.to_string()),
        ("pool_threads", engine::SHARDS.to_string()),
        ("rows", gen::ROWS.to_string()),
        ("git_rev", json_str(&measure::git_rev())),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let params = match parse_args() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if params.workload == "serve-ingest" {
        serve::run(&params)
    } else {
        read::run(&params)
    };
    engine::remove_run_dirs(params.workload);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", params.workload);
            return ExitCode::FAILURE;
        }
    };
    println!("labels: {}", labels(&params));
    for note in &out.notes {
        println!("note: {note}");
    }
    out.metrics.print_table();
    if let Some(ladder) = &out.ladder {
        ladder.print();
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        out.metrics.to_json()
    );
    ExitCode::SUCCESS
}
