//! Probes the benchmark wraps around the crates' public interfaces in a
//! traced run: a [`Scheduler`] wrapper that times each callback the engine
//! makes into `ecolife-core`, and an [`EventSink`] that counts the
//! telemetry stream instead of writing it.

use ecolife_sim::{Decision, EventSink, InvocationCtx, OverflowAction, OverflowCtx, Scheduler};
use ecolife_telemetry::SequencedEvent;
use ecolife_trace::Trace;
use std::time::Instant;

/// Time and calls spent inside scheduler callbacks.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CoreStats {
    pub prepare_ns: u64,
    pub decide_calls: u64,
    pub decide_ns: u64,
    pub overflow_calls: u64,
    pub overflow_ns: u64,
    /// Sum over overflows of the overflowing pool's resident count.
    pub overflow_residents: u64,
    pub observe_calls: u64,
    pub observe_ns: u64,
}

impl CoreStats {
    /// All callback time.
    pub fn total_ns(&self) -> u64 {
        self.prepare_ns + self.decide_ns + self.overflow_ns + self.observe_ns
    }

    pub fn absorb(&mut self, o: &CoreStats) {
        self.prepare_ns += o.prepare_ns;
        self.decide_calls += o.decide_calls;
        self.decide_ns += o.decide_ns;
        self.overflow_calls += o.overflow_calls;
        self.overflow_ns += o.overflow_ns;
        self.overflow_residents += o.overflow_residents;
        self.observe_calls += o.observe_calls;
        self.observe_ns += o.observe_ns;
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A scheduler that passes every call on to `inner` and times it.
pub struct Timed<S> {
    pub inner: S,
    pub stats: CoreStats,
}

impl<S> Timed<S> {
    pub fn new(inner: S) -> Self {
        Timed {
            inner,
            stats: CoreStats::default(),
        }
    }
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prepare(&mut self, trace: &Trace) {
        let t = Instant::now();
        self.inner.prepare(trace);
        self.stats.prepare_ns += ns_since(t);
    }

    fn decide(&mut self, ctx: &InvocationCtx<'_>) -> Decision {
        let t = Instant::now();
        let d = self.inner.decide(ctx);
        self.stats.decide_ns += ns_since(t);
        self.stats.decide_calls += 1;
        d
    }

    fn on_pool_overflow(&mut self, ctx: &OverflowCtx<'_>) -> OverflowAction {
        let t = Instant::now();
        let a = self.inner.on_pool_overflow(ctx);
        self.stats.overflow_ns += ns_since(t);
        self.stats.overflow_calls += 1;
        self.stats.overflow_residents += ctx.cluster.pool(ctx.location).len() as u64;
        a
    }

    fn observe(&mut self, ctx: &InvocationCtx<'_>, service_ms: u64, warm: bool) {
        let t = Instant::now();
        self.inner.observe(ctx, service_ms, warm);
        self.stats.observe_ns += ns_since(t);
        self.stats.observe_calls += 1;
    }
}

/// Counts the sealed stream — events and bytes (each line plus its
/// newline, as `JsonlSink` would write it) — keeps the chain tip and
/// discards the lines. With `TIMED` it also measures the time spent in
/// [`EventSink::emit`].
#[derive(Debug, Default, Clone)]
pub struct CountingSink<const TIMED: bool> {
    pub events: u64,
    pub bytes: u64,
    pub tip: String,
    pub emit_ns: u64,
}

impl<const TIMED: bool> EventSink for CountingSink<TIMED> {
    const ENABLED: bool = true;

    fn emit(&mut self, event: &SequencedEvent) {
        let t = TIMED.then(Instant::now);
        self.events += 1;
        self.bytes += event.line.len() as u64 + 1;
        self.tip.clear();
        self.tip.push_str(&event.hash);
        if let Some(t) = t {
            self.emit_ns += ns_since(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecolife_carbon::CarbonIntensityTrace;
    use ecolife_core::FixedPolicy;
    use ecolife_hw::skus;
    use ecolife_sim::{CaptureSink, Simulation};
    use ecolife_trace::{SynthTraceConfig, WorkloadCatalog};

    #[test]
    fn wrappers_change_nothing_and_count_everything() {
        let trace = SynthTraceConfig::small(3).generate(&WorkloadCatalog::sebs());
        let ci = CarbonIntensityTrace::constant(300.0, 90);
        let fleet = skus::fleet_a().with_uniform_keepalive_budget_mib(2 * 1024);
        let sim = Simulation::new(&trace, &ci, fleet.clone());

        let mut capture = CaptureSink::default();
        let plain = sim.run_with_sink(&mut FixedPolicy::pinned(fleet.newest(), 10), &mut capture);

        let mut timed = Timed::new(FixedPolicy::pinned(fleet.newest(), 10));
        let mut counting = CountingSink::<true>::default();
        let probed = sim.run_with_sink(&mut timed, &mut counting);

        assert_eq!(plain.records, probed.records);
        assert_eq!(timed.stats.decide_calls, trace.len() as u64);
        assert_eq!(timed.stats.observe_calls, trace.len() as u64);
        assert_eq!(counting.events, capture.len() as u64);
        assert_eq!(counting.bytes, capture.to_jsonl().len() as u64);
        assert_eq!(Some(counting.tip.as_str()), capture.tip());
    }
}
