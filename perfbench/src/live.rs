//! Open-loop load for the live service.
//!
//! [`OpenLoopSource`] is an [`InvocationSource`] that runs on the serving
//! thread and hands each arrival over at its due time. Arrival `i` is due
//! `due_ns[i]` after the run starts; the trace's own spacing is kept and
//! compressed to the offered mean rate ([`due_offsets_ns`]). Because the
//! service asks for the next arrival only once it has ingested the
//! previous one, the request marks that arrival's completion:
//!
//! * **latency** — from the arrival's due time to its completion, so a
//!   stall also charges the wait it imposes on every later arrival;
//! * **service cost** — from hand-over to completion (the serving
//!   thread's busy time for that arrival);
//! * **generator lag** — how late the hand-over ran behind the due time;
//! * **backlog** — arrivals already due but not yet handed over.
//!
//! [`max_rate`] replays the measured service costs through the same
//! single-server queue at other offered rates to find the highest rate
//! that holds the latency limit without a growing backlog.

use crate::stats::percentile_sorted;
use ecolife_trace::{Invocation, InvocationSource};
use std::time::Instant;

/// Due offsets (ns from the start of the run) that keep the arrivals'
/// relative spacing and average `rate_per_s` over the whole window.
pub fn due_offsets_ns(arrivals: &[Invocation], rate_per_s: f64) -> Vec<u64> {
    assert!(rate_per_s > 0.0, "offered rate must be positive");
    let Some(first) = arrivals.first() else {
        return Vec::new();
    };
    let span_ms = arrivals.last().expect("non-empty").t_ms - first.t_ms;
    let window_ns = arrivals.len() as f64 / rate_per_s * 1e9;
    let ns_per_ms = if span_ms == 0 {
        0.0
    } else {
        window_ns / span_ms as f64
    };
    arrivals
        .iter()
        .map(|a| ((a.t_ms - first.t_ms) as f64 * ns_per_ms) as u64)
        .collect()
}

/// A monotonic nanosecond clock; the production source reads
/// [`Instant`], tests script it.
pub trait Clock {
    fn now_ns(&mut self) -> u64;
    /// Wait until `t_ns` (or return at once when it has passed).
    fn wait_until(&mut self, t_ns: u64);
}

/// Wall clock measured from its creation. Waits spin: sleeping has
/// coarser granularity than the gaps between arrivals.
pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> Self {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now_ns(&mut self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
    fn wait_until(&mut self, t_ns: u64) {
        while self.now_ns() < t_ns {
            std::hint::spin_loop();
        }
    }
}

/// What an open-loop run measured, one entry per arrival.
#[derive(Debug, Default, Clone)]
pub struct OpenLoopLog {
    pub latency_ns: Vec<u64>,
    pub cost_ns: Vec<u64>,
    pub lag_ns: Vec<u64>,
    pub backlog: Vec<u32>,
    /// Time spent inside the source (waiting for due times plus its own
    /// bookkeeping) — the part of the serving thread's wall time that is
    /// not the service's.
    pub source_ns: u64,
}

/// The benchmark-side open-loop [`InvocationSource`].
pub struct OpenLoopSource<'a, C: Clock> {
    arrivals: &'a [Invocation],
    due_ns: &'a [u64],
    clock: C,
    next: usize,
    /// First arrival not yet due at the last hand-over.
    due_cursor: usize,
    handed_at: u64,
    log: OpenLoopLog,
}

impl<'a, C: Clock> OpenLoopSource<'a, C> {
    pub fn new(arrivals: &'a [Invocation], due_ns: &'a [u64], clock: C) -> Self {
        assert_eq!(arrivals.len(), due_ns.len());
        let n = arrivals.len();
        OpenLoopSource {
            arrivals,
            due_ns,
            clock,
            next: 0,
            due_cursor: 0,
            handed_at: 0,
            log: OpenLoopLog {
                latency_ns: Vec::with_capacity(n),
                cost_ns: Vec::with_capacity(n),
                lag_ns: Vec::with_capacity(n),
                backlog: Vec::with_capacity(n),
                source_ns: 0,
            },
        }
    }

    /// The measurements so far (complete once the service returned).
    pub fn into_log(self) -> OpenLoopLog {
        self.log
    }
}

impl<C: Clock> InvocationSource for &mut OpenLoopSource<'_, C> {
    fn next_invocation(&mut self) -> Option<Invocation> {
        let entered = self.clock.now_ns();
        if self.next > 0 {
            let prev = self.next - 1;
            self.log
                .latency_ns
                .push(entered.saturating_sub(self.due_ns[prev]));
            self.log.cost_ns.push(entered - self.handed_at);
        }
        if self.next == self.arrivals.len() {
            self.log.source_ns += self.clock.now_ns() - entered;
            return None;
        }
        let due = self.due_ns[self.next];
        self.clock.wait_until(due);
        let handed = self.clock.now_ns();
        self.log.lag_ns.push(handed.saturating_sub(due));
        while self.due_cursor < self.due_ns.len() && self.due_ns[self.due_cursor] <= handed {
            self.due_cursor += 1;
        }
        self.log
            .backlog
            .push(self.due_cursor.saturating_sub(self.next + 1) as u32);
        self.handed_at = handed;
        let inv = self.arrivals[self.next];
        self.next += 1;
        self.log.source_ns += self.clock.now_ns() - entered;
        Some(inv)
    }
}

/// Smallest segment: enough arrivals that the 99th percentile leaves ten
/// beyond it.
pub const MIN_SEGMENT: usize = 1_000;

/// Up to ten consecutive, near-equal index ranges of at least
/// [`MIN_SEGMENT`] arrivals covering `n` arrivals (one range when `n` is
/// smaller).
pub fn segment_bounds(n: usize) -> Vec<(usize, usize)> {
    let k = (n / MIN_SEGMENT).clamp(1, 10);
    (0..k).map(|i| (i * n / k, (i + 1) * n / k)).collect()
}

fn segment_percentile(latency: &[u64], (a, b): (usize, usize), q_bp: u64) -> u64 {
    let mut v = latency[a..b].to_vec();
    v.sort_unstable();
    percentile_sorted(&v, q_bp)
}

/// Whether a single serving thread with per-arrival costs `cost_ns`
/// keeps up with arrivals due at `due_ns`: the backlog does not grow —
/// the costs add up to less than the span the arrivals come in over —
/// and the median over segments of the 99th-percentile latency stays
/// within `limit_ns`.
pub fn sustains(due_ns: &[u64], cost_ns: &[u64], limit_ns: u64) -> bool {
    assert_eq!(due_ns.len(), cost_ns.len());
    let (Some(&first), Some(&last)) = (due_ns.first(), due_ns.last()) else {
        return true;
    };
    if cost_ns.iter().sum::<u64>() >= last - first {
        return false;
    }
    let mut done = 0u64;
    let latency: Vec<u64> = due_ns
        .iter()
        .zip(cost_ns)
        .map(|(&due, &cost)| {
            done = done.max(due) + cost;
            done - due
        })
        .collect();
    let mut p99: Vec<u64> = segment_bounds(latency.len())
        .into_iter()
        .map(|seg| segment_percentile(&latency, seg, 9_900))
        .collect();
    p99.sort_unstable();
    percentile_sorted(&p99, 5_000) <= limit_ns
}

/// The fixed ladder of offered rates (inv/s) the maximum is searched on:
/// 1 000 × 1.25ᵏ.
pub fn ladder() -> impl Iterator<Item = f64> {
    (0..64).map(|k| 1_000.0 * 1.25f64.powi(k))
}

/// The highest offered rate at which measured per-arrival costs hold
/// the latency limit without a growing backlog: the last sustained rung
/// of [`ladder`] below the first failing one, refined by bisection up to
/// that failing rung. `arrivals` fixes the relative spacing.
pub fn max_rate(arrivals: &[Invocation], cost_ns: &[u64], limit_ns: u64) -> f64 {
    let holds = |rate: f64| sustains(&due_offsets_ns(arrivals, rate), cost_ns, limit_ns);
    let mut lo = 0.0;
    let mut hi = None;
    for rate in ladder() {
        if holds(rate) {
            lo = rate;
        } else {
            hi = Some(rate);
            break;
        }
    }
    let Some(mut hi) = hi else {
        return lo;
    };
    if lo == 0.0 {
        return 0.0;
    }
    for _ in 0..16 {
        let mid = (lo + hi) / 2.0;
        if holds(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecolife_trace::FunctionId;

    /// A scripted clock: time moves only when the source waits or when
    /// the test advances it (standing in for the service's work).
    #[derive(Default)]
    struct Scripted {
        now: u64,
    }

    impl Clock for &mut Scripted {
        fn now_ns(&mut self) -> u64 {
            self.now
        }
        fn wait_until(&mut self, t_ns: u64) {
            self.now = self.now.max(t_ns);
        }
    }

    fn arrivals(times_ms: &[u64]) -> Vec<Invocation> {
        times_ms
            .iter()
            .map(|&t_ms| Invocation {
                func: FunctionId(0),
                t_ms,
            })
            .collect()
    }

    #[test]
    fn due_offsets_keep_spacing_at_the_offered_rate() {
        let a = arrivals(&[1_000, 1_000, 2_000, 5_000]);
        // 4 arrivals at 2/s → a 2 s window over the 4 s span.
        let due = due_offsets_ns(&a, 2.0);
        assert_eq!(due, vec![0, 0, 500_000_000, 2_000_000_000]);
    }

    #[test]
    fn latency_runs_from_the_due_time_and_lag_is_measured() {
        let a = arrivals(&[0, 1, 2]);
        let due = vec![0, 100, 200];
        let mut clock = Scripted::default();
        let mut source = OpenLoopSource::new(&a, &due, &mut clock);
        let mut src = &mut source;
        // Arrival 0 handed over on time; the service takes 250 ns.
        assert!(src.next_invocation().is_some());
        src.clock.now += 250;
        // Arrival 1 (due at 100) is handed over at 250: 150 ns late, and
        // arrival 2 (due 200) is already waiting behind it.
        assert!(src.next_invocation().is_some());
        src.clock.now += 10;
        assert!(src.next_invocation().is_some());
        src.clock.now += 10;
        assert!(src.next_invocation().is_none());
        let log = source.into_log();
        assert_eq!(log.lag_ns, vec![0, 150, 60]);
        assert_eq!(log.backlog, vec![0, 1, 0]);
        assert_eq!(log.cost_ns, vec![250, 10, 10]);
        // Completion times 250, 260, 270 against due times 0, 100, 200.
        assert_eq!(log.latency_ns, vec![250, 160, 70]);
    }

    #[test]
    fn idle_source_waits_for_due_time() {
        let a = arrivals(&[0, 10]);
        let due = vec![0, 1_000];
        let mut clock = Scripted::default();
        let mut source = OpenLoopSource::new(&a, &due, &mut clock);
        let mut src = &mut source;
        src.next_invocation();
        src.clock.now += 5;
        src.next_invocation();
        assert_eq!(src.clock.now, 1_000, "hand-over waits for the due time");
        src.clock.now += 5;
        src.next_invocation();
        let log = source.into_log();
        assert_eq!(log.lag_ns, vec![0, 0]);
        assert_eq!(log.latency_ns, vec![5, 5]);
        // Source time is the wait (995 ns); the service's 10 ns are not.
        assert_eq!(log.source_ns, 995);
    }

    #[test]
    fn max_rate_finds_the_saturation_point() {
        // Evenly spaced arrivals, 1 µs each: capacity is 10⁶/s. Past it
        // the queue grows by the excess on every arrival, so a 50 µs
        // limit over 10⁴ arrivals allows at most 0.5% overload.
        let a = arrivals(&(0..10_000).collect::<Vec<_>>());
        let cost = vec![1_000; a.len()];
        let r = max_rate(&a, &cost, 50_000);
        assert!(r > 0.99e6 && r <= 1.006e6, "max rate {r}");
        // Doubling the cost halves it.
        let r2 = max_rate(&a, &vec![2_000; a.len()], 50_000);
        assert!((r2 / r - 0.5).abs() < 0.02, "{r2} vs {r}");
    }

    #[test]
    fn a_stall_leaves_the_maximum_rate() {
        // 10 000 arrivals 1 µs apart, served in 0.5 µs each, except
        // that the 5 000th stalls for 200 µs: the queue behind it drains
        // within the next 400 arrivals, all in one segment, so the
        // median segment p99 and with it the maximum rate stay put.
        let a = arrivals(&(0..10_000).collect::<Vec<_>>());
        let mut cost = vec![500; a.len()];
        let smooth = max_rate(&a, &cost, 50_000);
        cost[5_000] = 200_000;
        let stalled = max_rate(&a, &cost, 50_000);
        assert!(smooth > 1.5e6, "{smooth}");
        assert!(
            (stalled / smooth - 1.0).abs() < 0.05,
            "{stalled} vs {smooth}"
        );
        assert_eq!(segment_bounds(10_000).len(), 10);
        // Short runs keep one segment.
        assert_eq!(segment_bounds(1_500), vec![(0, 1_500)]);
    }

    #[test]
    fn growing_backlog_fails_even_under_the_p99_limit() {
        // Arrivals 1 µs apart served in 1.004 µs: the queue grows by 4 ns
        // per arrival, only 40 µs by the end — under the limit, but
        // unsustainable.
        let due: Vec<u64> = (0..10_000).map(|i| i * 1_000).collect();
        assert!(!sustains(&due, &vec![1_004; due.len()], 50_000));
        assert!(sustains(&due, &vec![996; due.len()], 50_000));
    }
}
