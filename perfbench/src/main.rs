//! The repository's benchmark: end-to-end metrics with tracing off, or
//! per-layer metrics from a traced run, for one workload.
//!
//! ```text
//! perfbench --workload <replay-1m|paper-fig7|service-live|planner-pso|all>
//!           [--seed N] [--seconds S] [--trace 0|1] [--record] [--perturb-reference]
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. The
//! exit code is 0 only when every output check passed.

mod layers;
mod live;
mod reference;
mod report;
mod run;
mod stats;
mod workloads;

use report::Metrics;
use run::{check, round, traced_round, Verdict};
use stats::median;
use std::time::{Duration, Instant};
use workloads::{Inputs, Workload, DEFAULT_SEED};

/// Set-ups per run, at least and at most; between the two, set-up
/// repeats until a second has passed. `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 200;
/// Untraced rounds per run, at least and at most; between the two,
/// rounds repeat while the next one fits in `--seconds` (judged by the
/// longest so far).
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 500;
/// Rounds run the sharded replays in every `SHARD_EVERY`th round, the
/// first included: `sharded_inv_per_s` is not bounded, and the time goes
/// to the operations whose metrics are.
const SHARD_EVERY: usize = 4;
/// Untraced/traced round pairs in a traced run.
const TRACED_PAIRS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
    perturb: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] \
         [--record] [--perturb-reference]",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 50.0,
        trace: false,
        record: false,
        perturb: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"))
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--record" => args.record = true,
            "--perturb-reference" => args.perturb = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        usage("--workload is required");
    }
    args
}

fn main() {
    let args = parse_args();
    if args.workload == "all" {
        std::process::exit(report::run_all(args.seed, args.seconds, args.trace));
    }
    let Some(workload) = Workload::from_name(&args.workload) else {
        usage(&format!("unknown workload {}", args.workload));
    };
    println!("{}", report::provenance(workload, args.seed));
    let reference = reference::lookup(workload.name(), args.seed, args.perturb);
    println!(
        "reference: {}",
        if reference.is_some() {
            "recorded values for this seed are checked"
        } else {
            "none recorded for this seed; path-against-path checks only"
        }
    );

    let mut setups = Vec::new();
    let mut inputs = None;
    let start = Instant::now();
    while setups.len() < MIN_SETUPS
        || (start.elapsed() < Duration::from_secs(1) && setups.len() < MAX_SETUPS)
    {
        // Drop the previous build first, so set-ups do not stack up.
        drop(inputs.take());
        let t = Instant::now();
        let built = Inputs::build(workload, args.seed);
        setups.push(t.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up");

    let mut verdict = Verdict::default();
    let metrics = if args.trace {
        traced(&inputs, &mut verdict, reference.as_ref())
    } else {
        untraced(&inputs, &args, &setups, &mut verdict, reference.as_ref())
    };

    for f in &verdict.failures {
        println!("CHECK FAILED: {f}");
    }
    for n in &verdict.notes {
        println!("DISCREPANCY (reported, not failed): {n}");
    }
    let failed_frac = verdict.failed as f64 / verdict.attempted.max(1) as f64;
    println!(
        "failed_frac: {failed_frac} ({} of {} operations failed)",
        verdict.failed, verdict.attempted
    );
    let correct = verdict.failed == 0 && verdict.attempted > 0;
    println!(
        "{}",
        metrics.to_json(correct, verdict.attempted, verdict.failed)
    );
    std::process::exit(if correct { 0 } else { 1 });
}

/// End-to-end metrics from untraced rounds, for `--seconds`.
fn untraced(
    inputs: &Inputs,
    args: &Args,
    setups: &[f64],
    verdict: &mut Verdict,
    reference: Option<&reference::Reference>,
) -> Metrics {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut rows: Vec<report::RoundRow> = Vec::new();
    let mut samples = report::Samples::default();
    let mut longest = Duration::ZERO;
    while rows.len() < MIN_ROUNDS || (start.elapsed() + longest < budget && rows.len() < MAX_ROUNDS)
    {
        let t = Instant::now();
        let r = round(inputs, rows.len() % SHARD_EVERY == 0);
        verdict.absorb(check(inputs, &r, reference));
        if rows.is_empty() {
            report::print_first_round(inputs, &r);
            if args.record {
                print!(
                    "{}",
                    reference::render(inputs.workload.name(), inputs.seed, &r)
                );
            }
        }
        samples.absorb(&r);
        let row = report::RoundRow::of(&r);
        println!("  round {}: {}", rows.len() + 1, row.describe());
        rows.push(row);
        longest = longest.max(t.elapsed());
    }
    report::end_to_end(inputs, setups, &rows, &samples)
}

/// Per-layer metrics from a traced round, with the tracing overhead
/// against an untraced round of the same work.
fn traced(
    inputs: &Inputs,
    verdict: &mut Verdict,
    reference: Option<&reference::Reference>,
) -> Metrics {
    // Untraced and traced rounds alternate; each figure is the median
    // over the traced rounds, and the overhead the ratio of the median
    // busy round times (wall time less the open-loop source's waits).
    let mut plain_ns = Vec::new();
    let mut runs = Vec::new();
    for _ in 0..TRACED_PAIRS {
        let t = Instant::now();
        let r = round(inputs, true);
        let source_ns = r.live.log.source_ns;
        plain_ns.push((t.elapsed().as_nanos() as u64 - source_ns) as f64);
        verdict.absorb(check(inputs, &r, reference));
        let layers = traced_round(inputs);
        runs.push((report::RoundRow::of(&r), layers));
    }
    report::per_layer(
        inputs,
        median(&plain_ns),
        &runs,
        verdict.shard_stream_mismatches,
    )
}
