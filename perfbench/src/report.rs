//! What a run prints: provenance, a human-readable table, and the final
//! JSON line.

use crate::live::{max_rate, OpenLoopLog};
use crate::run::{lag_p99_ms, nproc, Layers, Live, Round};
use crate::stats::{median, per_item_upper_quartile, upper_quartile, LatencySummary};
use crate::workloads::{Inputs, Workload};
use ecolife_core::{compare, RunSummary};
use std::fmt::Write as _;

/// Named metrics with units, in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.0.push((name, value, unit));
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// The end-to-end metrics a run prints, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("inv_per_s", "1/s"),
    ("sharded_inv_per_s", "1/s"),
    ("ingest_p50_us", "us"),
    ("ingest_p99_us", "us"),
    ("max_rate_inv_per_s", "1/s"),
    ("search_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// End-to-end metrics printed on every run but left out of the result
/// line, and so out of `BENCHMARK.json`'s bounded list: on the 2-vCPU
/// host the benchmark was built on, their spread over ten runs reached
/// 0.30 to 0.79 (sharded throughput needs both CPUs free; a p99 of
/// microsecond-scale ingest follows every contended spell), above the
/// largest bound the list allows. The traced run reports them as
/// `sim.shard.inv_per_s` and `service.ingest_p99_us`.
pub const UNBOUNDED: [&str; 2] = ["sharded_inv_per_s", "ingest_p99_us"];

/// Peak resident memory of this process (MiB), from `VmHWM`.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `none` outside a git checkout.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{r}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "none".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where and with what a result was measured.
pub fn provenance(workload: Workload, seed: u64) -> String {
    format!(
        "provenance: workload={} seed={seed} nproc={} cpu=\"{}\" git={} rustc=\"{}\"",
        workload.name(),
        nproc(),
        cpu_model(),
        git_sha(),
        env!("PERFBENCH_RUSTC"),
    )
}

/// What one live run contributes to its round's line.
#[derive(Debug, Clone)]
pub struct LiveRow {
    pub latency: LatencySummary,
    pub max_rate: f64,
    pub lag_p99_ms: f64,
    pub backlog_max: u32,
}

impl LiveRow {
    fn of(l: &Live) -> Self {
        LiveRow {
            latency: l.latency(),
            max_rate: l.max_rate,
            lag_p99_ms: lag_p99_ms(&l.log),
            backlog_max: l.log.backlog.iter().copied().max().unwrap_or(0),
        }
    }
}

/// The numbers one untraced round contributes to its line.
#[derive(Debug, Clone)]
pub struct RoundRow {
    pub seq_invocations: u64,
    pub seq_secs: f64,
    /// Zero in rounds without sharded replays.
    pub shard_invocations: u64,
    pub shard_secs: f64,
    pub live: LiveRow,
    pub search_s: f64,
}

impl RoundRow {
    pub fn of(r: &Round) -> Self {
        RoundRow {
            seq_invocations: r.seq_invocations(),
            seq_secs: r.seq_secs.iter().sum(),
            shard_invocations: r.shard_invocations(),
            shard_secs: r.shard_secs.iter().sum(),
            live: LiveRow::of(&r.live),
            search_s: r.plan_secs,
        }
    }

    pub fn inv_per_s(&self) -> f64 {
        self.seq_invocations as f64 / self.seq_secs
    }

    /// `None` in rounds without sharded replays.
    pub fn sharded_inv_per_s(&self) -> Option<f64> {
        (self.shard_invocations > 0).then(|| self.shard_invocations as f64 / self.shard_secs)
    }

    pub fn describe(&self) -> String {
        let mut s = format!("seq {:.0} inv/s, ", self.inv_per_s());
        if let Some(x) = self.sharded_inv_per_s() {
            let _ = write!(s, "sharded {x:.0} inv/s, ");
        }
        let _ = write!(s, "search {:.4} s", self.search_s);
        let l = &self.live;
        let _ = write!(
            s,
            ", live p50 {:.2} us p99 {:.2} us",
            l.latency.p50_ns as f64 / 1e3,
            l.latency.p99_ns as f64 / 1e3
        );
        if let Some((label, v)) = l.latency.top {
            let _ = write!(s, " {label} {:.2} us", v as f64 / 1e3);
        }
        let _ = write!(
            s,
            " (n={}), lag p99 {:.3} ms, backlog max {}, max rate {:.0} inv/s",
            l.latency.samples, l.lag_p99_ms, l.backlog_max, l.max_rate
        );
        s
    }
}

/// Every timed sample of a run's rounds.
#[derive(Debug, Default)]
pub struct Samples {
    seq_invocations: u64,
    /// Per scheme, the wall time of each of its sequential replays (s).
    seq_secs: Vec<Vec<f64>>,
    shard_invocations: u64,
    shard_secs: Vec<Vec<f64>>,
    search_s: Vec<f64>,
    /// Per live run, per arrival: latency and service cost (ns).
    latency_ns: Vec<Vec<u64>>,
    cost_ns: Vec<Vec<u64>>,
}

fn push_each(all: &mut Vec<Vec<f64>>, round: &[f64]) {
    all.resize(round.len().max(all.len()), Vec::new());
    for (a, &r) in all.iter_mut().zip(round) {
        a.push(r);
    }
}

impl Samples {
    pub fn absorb(&mut self, r: &Round) {
        self.seq_invocations = r.seq_invocations();
        push_each(&mut self.seq_secs, &r.seq_secs);
        if !r.sharded.is_empty() {
            self.shard_invocations = r.shard_invocations();
        }
        push_each(&mut self.shard_secs, &r.shard_secs);
        self.search_s.push(r.plan_secs);
        self.latency_ns.push(r.live.log.latency_ns.clone());
        self.cost_ns.push(r.live.log.cost_ns.clone());
    }
}

fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p: f64| v[((v.len() - 1) as f64 * p).round() as usize];
    (q(0.25), median(values), q(0.75))
}

/// End-to-end metrics over every sample of the run, each printed with
/// the quartiles of its per-round figures. Every repeated measurement is
/// taken at the upper quartile of its repeats — the time three quarters
/// of them stayed within: each scheme's replay time (throughput is the
/// invocations over their sum), the search time, and each arrival's
/// latency and service cost over the live runs, from which the latency
/// percentiles and the maximum rate follow. `setup_s` is the median
/// set-up.
pub fn end_to_end(inputs: &Inputs, setups: &[f64], rows: &[RoundRow], s: &Samples) -> Metrics {
    let col = |f: fn(&RoundRow) -> f64| rows.iter().map(f).collect::<Vec<_>>();
    let live_col = |f: fn(&LiveRow) -> f64| rows.iter().map(|r| f(&r.live)).collect::<Vec<_>>();
    let sum_uq = |per: &[Vec<f64>]| per.iter().map(|v| upper_quartile(v)).sum::<f64>();
    let latency = LatencySummary::of(&mut per_item_upper_quartile(&s.latency_ns));
    let limit_ns = (crate::workloads::LIMIT_MS * 1e6) as u64;
    let cost = per_item_upper_quartile(&s.cost_ns);
    let columns: [(&str, f64, Vec<f64>); 8] = [
        ("setup_s", median(setups), setups.to_vec()),
        (
            "inv_per_s",
            s.seq_invocations as f64 / sum_uq(&s.seq_secs),
            col(RoundRow::inv_per_s),
        ),
        (
            "sharded_inv_per_s",
            s.shard_invocations as f64 / sum_uq(&s.shard_secs),
            rows.iter()
                .filter_map(RoundRow::sharded_inv_per_s)
                .collect(),
        ),
        (
            "ingest_p50_us",
            latency.p50_ns as f64 / 1e3,
            live_col(|l| l.latency.p50_ns as f64 / 1e3),
        ),
        (
            "ingest_p99_us",
            latency.p99_ns as f64 / 1e3,
            live_col(|l| l.latency.p99_ns as f64 / 1e3),
        ),
        (
            "max_rate_inv_per_s",
            max_rate(inputs.live_window(), &cost, limit_ns),
            live_col(|l| l.max_rate),
        ),
        ("search_s", upper_quartile(&s.search_s), s.search_s.clone()),
        ("peak_rss_mib", peak_rss_mib(), vec![peak_rss_mib()]),
    ];
    println!(
        "end-to-end ({}; {} rounds, {} live runs of {} arrivals at {} inv/s, p99 limit {} ms; \
         median of {} set-ups):",
        inputs.workload.name(),
        rows.len(),
        s.latency_ns.len(),
        inputs.live_window().len(),
        inputs.live.rate_per_s,
        crate::workloads::LIMIT_MS,
        setups.len(),
    );
    let mut m = Metrics::default();
    for ((name, value, values), (_, unit)) in columns.into_iter().zip(END_TO_END) {
        let (q1, _, q3) = quartiles(&values);
        let note = match name {
            "ingest_p50_us" | "ingest_p99_us" => format!(
                "  n={} arrivals{}",
                latency.samples,
                latency
                    .top
                    .map(|(label, v)| format!(", {label} {:.2} us", v as f64 / 1e3))
                    .unwrap_or_default()
            ),
            _ => String::new(),
        };
        let bounded = !UNBOUNDED.contains(&name);
        let tag = if bounded { "" } else { "  (not bounded)" };
        println!(
            "  {name:<20} {value:>14.4} {unit:<4} [per round q1 {q1:.4}, q3 {q3:.4}]{note}{tag}"
        );
        if bounded {
            m.push(name, value, unit);
        }
    }
    m
}

/// The first round's simulated results, and the Fig. 7 placements.
pub fn print_first_round(inputs: &Inputs, r: &Round) {
    for rep in &r.seq {
        let m = &rep.metrics;
        print!(
            "  {:<18} {:>8} inv  {:>12.3} g  {:>12} service ms  warm {:.4}  evicted {}",
            rep.name,
            m.invocations(),
            m.total_carbon_g(),
            m.total_service_ms(),
            m.warm_rate(),
            m.evicted_functions
        );
        if let Some(st) = &rep.stream {
            print!(
                "  stream {} events {} B tip {}",
                st.events,
                st.bytes,
                &st.tip[..16]
            );
        }
        println!();
    }
    if inputs.workload == Workload::PaperFig7 {
        let summary = |name: &str| {
            r.seq
                .iter()
                .find(|x| x.name == name)
                .map(|x| RunSummary::from_metrics(x.name, &x.metrics))
                .expect("every Fig. 7 scheme ran")
        };
        let (st, co2) = (summary("Service-Time-Opt"), summary("CO2-Opt"));
        for name in ["EcoLife", "Oracle"] {
            let c = compare(&summary(name), &st, &co2);
            println!(
                "  Fig. 7 placement: {name:<8} carbon +{:.2}% over CO2-Opt, service +{:.2}% \
                 over Service-Time-Opt",
                c.carbon_increase_pct, c.service_increase_pct
            );
        }
    }
    let l = &r.live.metrics;
    println!(
        "  live: {} served, {} rejected, {} ms queued, {} evicted, {} transfers",
        l.invocations(),
        l.rejected,
        l.total_queue_ms(),
        l.evicted_functions,
        l.transfers
    );
    println!(
        "  planner: best {:?} at {} MiB, fitness {} g ({} candidates, {} simulations, {} cache hits)",
        r.plan.best_plan.counts,
        r.plan.best_plan.mem_budget_mib,
        r.plan.best_score.fitness_g,
        r.plan.candidates,
        r.plan.simulations,
        r.plan.cache_hits
    );
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("trace.generate_s", "s"),
    ("trace.invocations", "count"),
    ("sim.ingest.calls", "count"),
    ("sim.ingest_s", "s"),
    ("sim.ingest.self_s", "s"),
    ("sim.finish_s", "s"),
    ("sim.pool.expired", "count"),
    ("sim.pool.timeline_pops", "count"),
    ("sim.pool.stale_ratio", "ratio"),
    ("sim.self_s", "s"),
    ("sim.shard.run_s", "s"),
    ("sim.shard.inv_per_s", "1/s"),
    ("sim.shard.speedup", "ratio"),
    ("sim.shard.revocations", "count"),
    ("sim.shard.stream_mismatches", "count"),
    ("core.prepare_s", "s"),
    ("core.decide.calls", "count"),
    ("core.decide_s", "s"),
    ("core.overflow.calls", "count"),
    ("core.overflow_s", "s"),
    ("core.overflow.share", "ratio"),
    ("core.overflow.residents_mean", "count"),
    ("core.observe_s", "s"),
    ("core.self_s", "s"),
    ("telemetry.events", "count"),
    ("telemetry.bytes", "bytes"),
    ("telemetry.emit_s", "s"),
    ("telemetry.seal_s", "s"),
    ("telemetry.collect_s", "s"),
    ("telemetry.self_s", "s"),
    ("service.arrivals", "count"),
    ("service.ingest_busy_s", "s"),
    ("service.ingest_p99_us", "us"),
    ("service.ingest_p999_us", "us"),
    ("service.ingest_samples", "count"),
    ("service.gen_lag_ms", "ms"),
    ("service.backlog_max", "count"),
    ("service.rejected", "count"),
    ("service.queue_ms", "sim_ms"),
    ("service.self_s", "s"),
    ("bench.source_s", "s"),
    ("bench.analysis_s", "s"),
    ("planner.simulations", "count"),
    ("planner.s_per_simulation", "s"),
    ("planner.cache_hits", "count"),
    ("planner.self_s", "s"),
    ("tracing.round_s", "s"),
    ("tracing.overhead", "ratio"),
    ("tracing.unaccounted_share", "ratio"),
];

/// Largest share of the traced round's wall time the layer self times
/// may leave unaccounted.
pub const ACCOUNTING_TOLERANCE: f64 = 0.05;

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One traced round's per-layer values, in [`PER_LAYER`] order.
fn layer_values(
    inputs: &Inputs,
    row: &RoundRow,
    l: &Layers,
    plain_round_ns: f64,
    stream_mismatches: u64,
) -> Vec<f64> {
    let s = |ns: u64| ns as f64 / 1e9;
    let live = l.live.as_ref().expect("traced round serves");
    let log: &OpenLoopLog = &live.log;
    let lat = live.latency();
    let p999 = {
        let mut v = log.latency_ns.clone();
        v.sort_unstable();
        crate::stats::percentile_sorted(&v, 9_990) as f64 / 1e3
    };
    let selfs: std::collections::HashMap<_, _> = l.self_times().into_iter().collect();
    let c = {
        let mut c = l.core_seq;
        c.absorb(&l.core_live);
        c
    };
    let in_ingest = l.core_seq.decide_ns + l.core_seq.overflow_ns + l.core_seq.observe_ns;
    let round = l.round_ns as f64;
    vec![
        s(inputs.trace_gen_ns),
        inputs.trace.len() as f64,
        l.sim_ingest_calls as f64,
        s(l.sim_ingest_ns),
        s(l.sim_ingest_ns.saturating_sub(in_ingest)),
        s(l.sim_finish_ns),
        l.expired as f64,
        l.timeline_pops as f64,
        ratio(l.stale_pops as f64, l.timeline_pops as f64),
        s(selfs["sim"]),
        s(l.shard_ns),
        ratio(l.shard_invocations as f64, s(l.shard_ns)),
        ratio(row.sharded_inv_per_s().unwrap_or(0.0), row.inv_per_s()),
        l.shard_revocations as f64,
        stream_mismatches as f64,
        s(c.prepare_ns),
        c.decide_calls as f64,
        s(c.decide_ns),
        c.overflow_calls as f64,
        s(c.overflow_ns),
        ratio(c.overflow_calls as f64, c.decide_calls as f64),
        ratio(c.overflow_residents as f64, c.overflow_calls as f64),
        s(c.observe_ns),
        s(selfs["core"]),
        l.telemetry_events as f64,
        l.telemetry_bytes as f64,
        s(l.emit_ns),
        s(l.seal_ns.saturating_sub(l.emit_ns)),
        (l.sim_ingest_ns as f64 - l.ingest_stream_off_ns as f64) / 1e9,
        s(selfs["telemetry"]),
        live.metrics.invocations() as f64,
        s(l.live_wall_ns.saturating_sub(log.source_ns)),
        lat.p99_ns as f64 / 1e3,
        p999,
        lat.samples as f64,
        lag_p99_ms(log),
        log.backlog.iter().copied().max().unwrap_or(0) as f64,
        live.metrics.rejected as f64,
        live.metrics.total_queue_ms() as f64,
        s(selfs["service"]),
        s(selfs["bench.source"]),
        s(selfs["bench.analysis"]),
        l.plan_simulations as f64,
        ratio(s(l.plan_ns), l.plan_simulations as f64),
        l.plan_cache_hits as f64,
        s(selfs["planner"]),
        s(l.round_ns),
        ratio(round - log.source_ns as f64, plain_round_ns),
        ratio(round - l.accounted_ns() as f64, round).abs(),
    ]
}

/// Per-layer metrics: medians over the traced rounds, with the
/// accounting check printed.
pub fn per_layer(
    inputs: &Inputs,
    plain_round_ns: f64,
    runs: &[(RoundRow, Layers)],
    stream_mismatches: u64,
) -> Metrics {
    let rows: Vec<Vec<f64>> = runs
        .iter()
        .map(|(row, l)| layer_values(inputs, row, l, plain_round_ns, stream_mismatches))
        .collect();
    println!(
        "per-layer ({}; median of {} traced rounds):",
        inputs.workload.name(),
        rows.len()
    );
    let mut m = Metrics::default();
    for (i, (name, unit)) in PER_LAYER.iter().enumerate() {
        let v = median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
        println!("  {name:<30} {v:>16.6} {unit}");
        m.push(name, v, unit);
    }
    let (_, last) = runs.last().expect("at least one traced round");
    println!(
        "  self times of the last traced round ({:.3} s):",
        last.round_ns as f64 / 1e9
    );
    for (layer, ns) in last.self_times() {
        println!(
            "    {layer:<14} {:>10.4} s  {:>5.1}%",
            ns as f64 / 1e9,
            100.0 * ns as f64 / last.round_ns as f64
        );
    }
    let gap =
        m.0.iter()
            .find(|x| x.0 == "tracing.unaccounted_share")
            .expect("listed")
            .1;
    println!(
        "  layer self times cover the traced round to within {:.2}% (tolerance {:.0}%): {}",
        gap * 100.0,
        ACCOUNTING_TOLERANCE * 100.0,
        if gap <= ACCOUNTING_TOLERANCE {
            "ok"
        } else {
            "NOT MET"
        }
    );
    m
}

/// `--workload all`: each workload in a child process of its own, so
/// each one's peak memory is its own. Returns the exit code.
pub fn run_all(seed: u64, seconds: f64, trace: bool) -> i32 {
    let exe = std::env::current_exe().expect("own executable");
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawn workload");
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in lines {
            println!("{l}");
        }
        let field = |key: &str| -> Option<&str> {
            let at = last.find(&format!("\"{key}\": "))? + key.len() + 4;
            Some(&last[at..])
        };
        let num = |key: &str| {
            field(key)
                .and_then(|s| s.split([',', '}']).next())
                .and_then(|s| s.trim().parse::<u64>().ok())
        };
        correct &= out.status.success() && field("correct").is_some_and(|s| s.starts_with("true"));
        attempted += num("attempted").unwrap_or(0);
        failed += num("failed").unwrap_or(0);
        if let Some(m) = field("metrics") {
            metrics.push(format!("\"{}\": {}", w.name(), &m[..m.len() - 1]));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.push("setup_s", 0.8127, "s");
        m.push("inv_per_s", 1_234_567.5, "1/s");
        assert_eq!(
            m.to_json(true, 1000, 0),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \"inv_per_s\": \
             {\"value\": 1234567.5, \"unit\": \"1/s\"}}}"
        );
    }

    /// Peak memory is per process, and `--workload all` runs each
    /// workload in a process of its own: a child that touches 256 MiB
    /// sees it, its parent does not.
    #[test]
    fn peak_rss_is_measured_per_process() {
        const CHILD: &str = "PERFBENCH_RSS_CHILD_MIB";
        if let Ok(mib) = std::env::var(CHILD) {
            let buf = vec![1u8; mib.parse::<usize>().unwrap() << 20];
            std::hint::black_box(&buf);
            println!("child peak {}", peak_rss_mib());
            return;
        }
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "report::tests::peak_rss_is_measured_per_process"])
            .args(["--nocapture", "--test-threads", "1"])
            .env(CHILD, "256")
            .output()
            .unwrap();
        let text = String::from_utf8_lossy(&out.stdout);
        let child: f64 = text
            .lines()
            .find_map(|l| l.split("child peak ").nth(1))
            .expect("child reports its peak")
            .parse()
            .unwrap();
        assert!(child >= 256.0, "child peak {child} MiB");
        assert!(peak_rss_mib() < 256.0, "parent peak {} MiB", peak_rss_mib());
    }

    /// `BENCHMARK.json` lists exactly the metrics a run prints.
    #[test]
    fn benchmark_json_names_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let names: Vec<(&str, &str)> = END_TO_END
            .iter()
            .filter(|(name, _)| !UNBOUNDED.contains(name))
            .chain(PER_LAYER.iter())
            .copied()
            .collect();
        for (name, unit) in &names {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"better\"").count(), names.len());
    }
}
