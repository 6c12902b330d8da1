//! The operations a run times, and the output checks on their results.
//!
//! A *round* runs every operation once: an open-loop live run through
//! `Service::serve`, sequential replay of each of the workload's schemes
//! through `Simulation::run_with_sink`, the same replays through
//! `Simulation::run_sharded` (in the rounds that shard), and one
//! `Planner::search`. The untraced round
//! calls the crates exactly as a user would; the traced round drives the
//! same work through the probes of [`crate::layers`] and records where the
//! time went.

use crate::layers::{CoreStats, CountingSink, Timed};
use crate::live::{due_offsets_ns, max_rate, OpenLoopLog, OpenLoopSource, WallClock};
use crate::reference::{self, Reference};
use crate::stats::{percentile_sorted, LatencySummary};
use crate::workloads::{Inputs, SchemeSpec, LIMIT_MS};
use ecolife_planner::{PlanEvaluator, PlanReport, Planner, SearchAlgorithm};
use ecolife_sim::{EventSink, NullSink, RunMetrics, Scheduler, ShardOptions, Simulation};
use ecolife_trace::Trace;
use std::time::Instant;

/// Worker threads for sharded replay: every CPU the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The hash-chained stream of one replay, as the counting sink saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    pub events: u64,
    pub bytes: u64,
    pub tip: String,
}

impl<const T: bool> From<CountingSink<T>> for Stream {
    fn from(s: CountingSink<T>) -> Self {
        Stream {
            events: s.events,
            bytes: s.bytes,
            tip: s.tip,
        }
    }
}

/// One scheme's replay.
pub struct Replay {
    pub scheme: SchemeSpec,
    pub name: &'static str,
    pub metrics: RunMetrics,
    pub stream: Option<Stream>,
}

/// The live run's measurements.
pub struct Live {
    /// Wall time of the serve.
    pub secs: f64,
    /// Time the benchmark then spent on the maximum rate.
    pub analysis_secs: f64,
    pub log: OpenLoopLog,
    pub metrics: RunMetrics,
    /// The maximum rate this run's own per-arrival costs sustain.
    pub max_rate: f64,
}

impl Live {
    pub fn latency(&self) -> LatencySummary {
        LatencySummary::of(&mut self.log.latency_ns.clone())
    }
}

/// Wall time of each operation in one untraced round, with its results.
pub struct Round {
    /// Wall time of each scheme's sequential replay (s), in the order of
    /// `Inputs::schemes`.
    pub seq_secs: Vec<f64>,
    pub seq: Vec<Replay>,
    /// Empty in rounds without sharded replays.
    pub shard_secs: Vec<f64>,
    pub sharded: Vec<Replay>,
    pub live: Live,
    /// Wall time of the planner search (s).
    pub plan_secs: f64,
    pub plan: PlanReport,
}

fn invocations(replays: &[Replay]) -> u64 {
    replays.iter().map(|r| r.metrics.invocations() as u64).sum()
}

impl Round {
    pub fn seq_invocations(&self) -> u64 {
        invocations(&self.seq)
    }
    pub fn shard_invocations(&self) -> u64 {
        invocations(&self.sharded)
    }
}

fn replay_untraced(inputs: &Inputs, spec: SchemeSpec) -> Replay {
    let sim = inputs.simulation(&inputs.trace);
    let mut scheme = inputs.scheme(spec);
    let name = scheme.name();
    let (metrics, stream) = if inputs.telemetry {
        let mut sink = CountingSink::<false>::default();
        let m = sim.run_with_sink(&mut scheme, &mut sink);
        (m, Some(sink.into()))
    } else {
        (sim.run_with_sink(&mut scheme, &mut NullSink), None)
    };
    Replay {
        scheme: spec,
        name,
        metrics,
        stream,
    }
}

fn shard_options() -> ShardOptions {
    ShardOptions::new(nproc()).with_threads(nproc())
}

fn replay_sharded(inputs: &Inputs, spec: SchemeSpec) -> Replay {
    let sim = inputs.simulation(&inputs.trace);
    let name = inputs.scheme(spec).name();
    let factory = |_| inputs.scheme(spec);
    let (metrics, stream) = if inputs.telemetry {
        let mut sink = CountingSink::<false>::default();
        let m = sim.run_sharded_with_sink(factory, &shard_options(), &mut sink);
        (m, Some(sink.into()))
    } else {
        (sim.run_sharded(factory, &shard_options()), None)
    };
    Replay {
        scheme: spec,
        name,
        metrics,
        stream,
    }
}

/// Serve the live window through the service at the offered rate.
fn serve<S: Scheduler>(inputs: &Inputs, scheduler: &mut S) -> Live {
    let window = inputs.live_window();
    let due = due_offsets_ns(window, inputs.live.rate_per_s);
    let t = Instant::now();
    let mut source = OpenLoopSource::new(window, &due, WallClock::start());
    let metrics = inputs
        .service()
        .serve(&mut source, scheduler)
        .expect("the live window is in order over a known catalog");
    let wall_s = secs(t);
    let log = source.into_log();
    let t = Instant::now();
    let max_rate = max_rate(window, &log.cost_ns, (LIMIT_MS * 1e6) as u64);
    Live {
        secs: wall_s,
        analysis_secs: secs(t),
        max_rate,
        log,
        metrics,
    }
}

fn search(inputs: &Inputs) -> (f64, PlanReport) {
    let plan = &inputs.plan;
    let t = Instant::now();
    let planner = Planner::new(
        crate::workloads::PlanInputs::space(),
        &plan.trace,
        &plan.ci,
        plan.config(),
    );
    let report = planner.search(SearchAlgorithm::Pso, plan.iters);
    (secs(t), report)
}

/// Run `op` once per scheme, timing each call.
fn each_scheme(inputs: &Inputs, op: fn(&Inputs, SchemeSpec) -> Replay) -> (Vec<f64>, Vec<Replay>) {
    inputs
        .schemes
        .iter()
        .map(|&spec| {
            let t = Instant::now();
            let r = op(inputs, spec);
            (secs(t), r)
        })
        .unzip()
}

/// One untraced round: each operation once, called as a user would and
/// timed call by call — the sharded replays only when `shard`.
pub fn round(inputs: &Inputs, shard: bool) -> Round {
    let live = serve(inputs, &mut inputs.scheme(inputs.live.scheme));
    let (seq_secs, seq) = each_scheme(inputs, replay_untraced);
    let (shard_secs, sharded) = if shard {
        each_scheme(inputs, replay_sharded)
    } else {
        (Vec::new(), Vec::new())
    };
    let (plan_secs, plan) = search(inputs);
    Round {
        seq_secs,
        seq,
        shard_secs,
        sharded,
        live,
        plan_secs,
        plan,
    }
}

/// Operations attempted and failed, with a reason per failure, and
/// discrepancies that are reported without failing.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub notes: Vec<String>,
    /// Sharded replays whose records match the sequential run but whose
    /// expiry counter or stream does not.
    pub shard_stream_mismatches: u64,
}

impl Verdict {
    fn op(&mut self, ops: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            self.failures.push(what());
        }
    }

    pub fn absorb(&mut self, o: Verdict) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.failures.extend(o.failures);
        self.notes.extend(o.notes);
        self.shard_stream_mismatches += o.shard_stream_mismatches;
    }
}

/// Where two runs of the same invocations differ in what they computed
/// — records and outcome counters — if they do.
fn run_difference(a: &RunMetrics, b: &RunMetrics) -> Option<String> {
    if let Some(i) =
        (0..a.records.len().max(b.records.len())).find(|&i| a.records.get(i) != b.records.get(i))
    {
        return Some(format!(
            "record {i} of {}: {:?} vs {:?}",
            a.records.len(),
            a.records.get(i),
            b.records.get(i)
        ));
    }
    let counters = [
        ("evicted", a.evicted_functions, b.evicted_functions),
        ("transfers", a.transfers, b.transfers),
        ("rejected", a.rejected, b.rejected),
    ];
    counters
        .iter()
        .find(|(_, x, y)| x != y)
        .map(|(name, x, y)| format!("{name} {x} vs {y}"))
}

/// The output checks on one round. Path-against-path checks apply on
/// every seed; recorded values only where `reference` has them.
pub fn check(inputs: &Inputs, r: &Round, reference: Option<&Reference>) -> Verdict {
    let mut v = Verdict::default();
    let wl = inputs.workload.name();

    // Sequential replays: recorded grams, service ms and chain tip.
    for (i, rep) in r.seq.iter().enumerate() {
        let n = rep.metrics.invocations() as u64;
        let ok = reference.is_none_or(|refr| reference::scheme_matches(refr, i, rep));
        v.op(n, ok, || {
            format!(
                "{wl}: {} differs from its recorded grams/service ms/chain tip",
                rep.name
            )
        });
    }

    // Sharded replays compute the sequential records whenever no shard
    // admission was revoked. Bounded executors see shard-local load, so
    // there the sequential engine is the only reference.
    for (seq, sh) in r.seq.iter().zip(&r.sharded) {
        let n = sh.metrics.invocations() as u64;
        let comparable =
            inputs.sim.bounded_executors.is_none() && sh.metrics.reconcile_revocations == 0;
        if !comparable {
            v.attempted += n;
            continue;
        }
        let diff = run_difference(&seq.metrics, &sh.metrics);
        v.op(n, diff.is_none(), || {
            format!(
                "{wl}: sharded {} differs from sequential: {}",
                sh.name,
                diff.clone().unwrap_or_default()
            )
        });
        // The expiry counter, and with it the stream's closing event,
        // can differ while every record agrees: a container that lapses
        // after the last arrival is drained at the end of a sequential
        // run but expired by the sharded run's last reconciliation.
        // Reported, not failed: the records are the output.
        let (e_seq, e_sh) = (seq.metrics.expiry.expired, sh.metrics.expiry.expired);
        if diff.is_none() && (e_seq != e_sh || seq.stream != sh.stream) {
            v.shard_stream_mismatches += 1;
            v.notes.push(format!(
                "{wl}: sharded {} matches every record but counts {e_sh} expiries against \
                 {e_seq} sequentially{}",
                sh.name,
                if seq.stream != sh.stream {
                    ", so its stream's chain tip differs"
                } else {
                    ""
                }
            ));
        }
    }
    if inputs.workload == crate::workloads::Workload::Replay1m {
        let revoked: u64 = r
            .sharded
            .iter()
            .map(|s| s.metrics.reconcile_revocations)
            .sum();
        if revoked != 0 {
            v.failed += r.shard_invocations();
            v.failures.push(format!(
                "{wl}: {revoked} shard revocations (pools must not contend)"
            ));
        }
    }

    // The live run equals the batch replay of the same arrivals (the
    // round's own sequential replay, when it covers them).
    let live = &r.live;
    let n = inputs.live_window().len();
    let diff = match r.seq.iter().find(|s| s.scheme == inputs.live.scheme) {
        Some(seq) if n == inputs.trace.len() => run_difference(&seq.metrics, &live.metrics),
        _ => {
            let window = Trace::new(
                inputs.trace.catalog().clone(),
                inputs.live_window().to_vec(),
            );
            let batch = inputs
                .simulation(&window)
                .run(&mut inputs.scheme(inputs.live.scheme));
            run_difference(&batch, &live.metrics)
        }
    };
    v.op(n as u64, diff.is_none(), || {
        format!(
            "{wl}: live run differs from the batch replay of the same arrivals: {}",
            diff.unwrap_or_default()
        )
    });

    // The planner's best score is what a fresh evaluator gives the best
    // plan, and (recorded seeds) the recorded plan and bits.
    let plan = &inputs.plan;
    let fresh = PlanEvaluator::new(
        crate::workloads::PlanInputs::space(),
        &plan.trace,
        &plan.ci,
        plan.config(),
    )
    .score(&r.plan.best_plan);
    let agrees = fresh.fitness_g.to_bits() == r.plan.best_score.fitness_g.to_bits();
    let recorded = reference.is_none_or(|refr| reference::plan_matches(refr, &r.plan));
    v.op(r.plan.candidates, agrees && recorded, || {
        format!(
            "{wl}: planner best plan {:?} scored {} g, {}",
            r.plan.best_plan,
            r.plan.best_score.fitness_g,
            if agrees {
                "not the recorded plan and score".to_string()
            } else {
                format!("a fresh evaluator scores it {} g", fresh.fitness_g)
            }
        )
    });
    v
}

/// Per-layer measurements of one traced round.
#[derive(Default)]
pub struct Layers {
    pub sim_begin_ns: u64,
    pub sim_ingest_calls: u64,
    pub sim_ingest_ns: u64,
    pub sim_finish_ns: u64,
    pub expired: u64,
    pub timeline_pops: u64,
    pub stale_pops: u64,
    pub core_seq: CoreStats,
    pub core_live: CoreStats,
    pub telemetry_events: u64,
    pub telemetry_bytes: u64,
    pub emit_ns: u64,
    pub seal_ns: u64,
    /// Ingest time of the same replays with the stream off.
    pub ingest_stream_off_ns: u64,
    pub shard_ns: u64,
    pub shard_invocations: u64,
    pub shard_revocations: u64,
    pub live_wall_ns: u64,
    pub live: Option<Live>,
    pub plan_ns: u64,
    pub plan_simulations: u64,
    pub plan_cache_hits: u64,
    /// Wall time of the whole traced round.
    pub round_ns: u64,
}

impl Layers {
    /// Self time of each layer in the traced round; together they should
    /// cover `round_ns`.
    pub fn self_times(&self) -> Vec<(&'static str, u64)> {
        let live_source = self.live.as_ref().map_or(0, |l| l.log.source_ns);
        let analysis = self
            .live
            .as_ref()
            .map_or(0, |l| (l.analysis_secs * 1e9) as u64);
        let core_seq_in_ingest =
            self.core_seq.decide_ns + self.core_seq.overflow_ns + self.core_seq.observe_ns;
        vec![
            (
                "sim",
                self.sim_begin_ns
                    + self.sim_ingest_ns.saturating_sub(core_seq_in_ingest)
                    + self.sim_finish_ns,
            ),
            ("sim.shard", self.shard_ns),
            ("core", self.core_seq.total_ns() + self.core_live.total_ns()),
            ("telemetry", self.seal_ns),
            (
                "service",
                self.live_wall_ns
                    .saturating_sub(live_source + self.core_live.total_ns()),
            ),
            ("bench.source", live_source),
            ("bench.analysis", analysis),
            ("planner", self.plan_ns),
        ]
    }

    pub fn accounted_ns(&self) -> u64 {
        self.self_times().iter().map(|(_, t)| t).sum()
    }
}

/// Drive the engine the way `run_with_sink` does, timing each phase.
fn engine_replay<S: Scheduler, K: EventSink>(
    sim: &Simulation<'_>,
    trace: &Trace,
    scheduler: &mut S,
    sink: &mut K,
    layers: &mut Layers,
) -> RunMetrics {
    let engine = sim.engine();
    let t = Instant::now();
    let mut state = engine.begin();
    layers.sim_begin_ns += ns(t);
    scheduler.prepare(trace);
    let t = Instant::now();
    for (index, inv) in trace.invocations().iter().enumerate() {
        engine.ingest::<S, K>(&mut state, index, inv, scheduler);
    }
    layers.sim_ingest_ns += ns(t);
    layers.sim_ingest_calls += trace.len() as u64;
    let t = Instant::now();
    engine.finish::<K>(&mut state);
    layers.sim_finish_ns += ns(t);
    let t = Instant::now();
    let metrics = engine.seal::<K>(state, sink);
    layers.seal_ns += ns(t);
    let e = metrics.expiry;
    layers.expired += e.expired;
    layers.timeline_pops += e.timeline_pops;
    layers.stale_pops += e.stale_pops;
    metrics
}

/// One traced round: the same work as [`round`], through the probes.
pub fn traced_round(inputs: &Inputs) -> Layers {
    let mut layers = Layers::default();
    let round_start = Instant::now();
    let sim = inputs.simulation(&inputs.trace);
    for &spec in &inputs.schemes {
        let mut timed = Timed::new(inputs.scheme(spec));
        if inputs.telemetry {
            let mut sink = CountingSink::<true>::default();
            engine_replay(&sim, &inputs.trace, &mut timed, &mut sink, &mut layers);
            layers.telemetry_events += sink.events;
            layers.telemetry_bytes += sink.bytes;
            layers.emit_ns += sink.emit_ns;
        } else {
            engine_replay(&sim, &inputs.trace, &mut timed, &mut NullSink, &mut layers);
        }
        layers.core_seq.absorb(&timed.stats);
    }

    let t = Instant::now();
    for &spec in &inputs.schemes {
        let r = replay_sharded(inputs, spec);
        layers.shard_invocations += r.metrics.invocations() as u64;
        layers.shard_revocations += r.metrics.reconcile_revocations;
    }
    layers.shard_ns = ns(t);

    let mut timed = Timed::new(inputs.scheme(inputs.live.scheme));
    let live = serve(inputs, &mut timed);
    layers.core_live = timed.stats;
    layers.live_wall_ns = (live.secs * 1e9) as u64;
    layers.live = Some(live);

    let t = Instant::now();
    let (_, report) = search(inputs);
    layers.plan_ns = ns(t);
    layers.plan_simulations = report.simulations;
    layers.plan_cache_hits = report.cache_hits;
    layers.round_ns = ns(round_start);

    // Collection cost: the same replays with the stream off, outside the
    // accounted round. Where the stream is off anyway the difference is
    // the run-to-run noise of the ingest time.
    let mut off = Layers::default();
    for &spec in &inputs.schemes {
        let mut timed = Timed::new(inputs.scheme(spec));
        engine_replay(&sim, &inputs.trace, &mut timed, &mut NullSink, &mut off);
    }
    layers.ingest_stream_off_ns = off.sim_ingest_ns;
    layers
}

/// Generator lag summary (ms): the 99th percentile of how late
/// hand-overs ran.
pub fn lag_p99_ms(log: &OpenLoopLog) -> f64 {
    let mut lag = log.lag_ns.clone();
    lag.sort_unstable();
    percentile_sorted(&lag, 9_900) as f64 / 1e6
}
