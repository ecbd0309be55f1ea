//! The FlexWAN repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <heuristic_sweep|exact_colgen|churn_service> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload sets up its inputs from the
//! seed (timed separately, as `setup_s`), runs whole passes of its work for
//! about `--seconds`, checks the outputs, prints a readable report and, as
//! the last line of standard output, one JSON object with the metrics.
//! `--trace 0` reports the end-to-end metrics of untraced passes;
//! `--trace 1` reports the per-layer ledger of a traced pass. A failed
//! correctness check prints `"correct": false` and exits with code 1.
//! See `benchmark/WORKLOADS.md` for what each workload measures.

mod churn;
mod exact;
mod heuristic;
mod instances;
mod ledger;
mod openloop;
mod report;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Outcome;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (7u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 || seconds > 600 {
        return Err(format!("--seconds must be 1..=600, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

/// Wall times of a workload's set-up, taken in batches spread over the
/// run: one batch before the first pass and one after every pass, each of
/// at least five set-ups and until 20 ms are spent. `setup_s` is the
/// median of every set-up of the run: spread over the whole run, it does
/// not hang on the host's speed at one moment, and on the reference host
/// it reads steadier from run to run than the fastest set-up or the
/// fastest batch.
#[derive(Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Times one batch of set-ups and returns the last one's result.
    pub fn batch<T>(&mut self, mut f: impl FnMut() -> T) -> T {
        let t0 = Instant::now();
        let n0 = self.0.len();
        let mut last = None;
        while self.0.len() - n0 < 5
            || (t0.elapsed() < Duration::from_millis(20) && self.0.len() - n0 < 50)
        {
            let t = Instant::now();
            last = Some(std::hint::black_box(f()));
            self.0.push(t.elapsed().as_secs_f64());
        }
        last.expect("at least one set-up")
    }

    /// The median set-up time of the run, in seconds.
    pub fn setup_s(&self) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        stats::nearest_rank(&sorted, 0.5)
    }
}

/// Whether a run that started at `t0` and has made `passes` passes, the
/// last taking `last_s`, starts another: always below `min` passes, and
/// otherwise only when one more pass still ends within `budget`.
pub fn another_pass(t0: Instant, budget: Duration, passes: usize, min: usize, last_s: f64) -> bool {
    passes < min || t0.elapsed().as_secs_f64() + last_s <= budget.as_secs_f64()
}

/// Worker threads the load may use: the machine's, capped at 8.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(8)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out: Outcome = match args.workload.as_str() {
        "heuristic_sweep" => heuristic::run(&args),
        "exact_colgen" => exact::run(&args),
        "churn_service" => churn::run(&args),
        other => {
            eprintln!("error: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        let closes = out.ledger_closes();
        out.check(closes, || {
            "ledger layers plus unattributed_ms differ from trace.wall_ms".into()
        });
    }
    let set = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    println!(
        "{} seed={} trace={} threads={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        nproc()
    );
    for &(name, unit) in set {
        println!(
            "  {name:<28} {:>16.4} {unit}",
            out.metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    println!("  ops attempted {} failed {}", out.attempted, out.failed);
    for f in &out.failures {
        println!("  CHECK FAILED: {f}");
    }
    println!("{}", out.result_line(args.trace));
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
