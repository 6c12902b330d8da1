//! The golden-trace event stream is part of the engine's determinism
//! contract: the sharded path must emit the *byte-identical* stream —
//! every line, every hash, the same chain tip — as the sequential
//! reference, at any shard and worker-thread count, whenever the runs
//! themselves coincide (no cross-shard revocations). Contended runs
//! have their own sharded semantics, but their streams still chain,
//! verify, and replay into the run's metrics.

use ecolife::prelude::*;
use ecolife::sim::ShardOptions;
use ecolife::telemetry::{field, str_field, u64_field, verify_lines};
use proptest::prelude::*;

/// The pressured multi-region workload: ten nodes over five grids,
/// 16 functions, squeezed keep-alive budgets so the overflow/transfer
/// path runs — but without cross-shard contention, so sharded replay
/// stays in the exact-equality regime.
fn multi_region_setup(budget_mib: u64) -> (Trace, CiBundle, Fleet) {
    let trace = SynthTraceConfig {
        n_functions: 16,
        duration_min: 120,
        seed: 21,
        ..Default::default()
    }
    .generate(&WorkloadCatalog::sebs());
    let bundle = CiBundle::synthetic_all(150, 21);
    let fleet = skus::fleet_five_regions().with_uniform_keepalive_budget_mib(budget_mib);
    (trace, bundle, fleet)
}

fn capture_sequential(
    trace: &Trace,
    bundle: &CiBundle,
    fleet: &Fleet,
) -> (RunMetrics, CaptureSink) {
    let mut sink = CaptureSink::default();
    let metrics = Simulation::try_new_regional(trace, bundle, fleet.clone())
        .unwrap()
        .run_with_sink(
            &mut EcoLife::new(fleet.clone(), EcoLifeConfig::default()),
            &mut sink,
        );
    (metrics, sink)
}

#[test]
fn sharded_stream_is_byte_identical_to_sequential_at_any_layout() {
    let (trace, bundle, fleet) = multi_region_setup(16 * 1024);
    let (sequential, reference) = capture_sequential(&trace, &bundle, &fleet);
    assert!(
        sequential.expiry.expired > 0,
        "fixture must exercise expiry churn"
    );
    let ref_lines: Vec<String> = reference.lines().iter().map(|l| l.to_string()).collect();
    let ref_tip = reference.tip().expect("non-empty stream").to_string();
    verify_lines(ref_lines.iter().map(String::as_str)).expect("sequential chain verifies");

    for shards in [1usize, 2, 8] {
        for threads in [1usize, 2, 4] {
            let mut sink = CaptureSink::default();
            let m = Simulation::try_new_regional(&trace, &bundle, fleet.clone())
                .unwrap()
                .run_sharded_with_sink(
                    |_| EcoLife::new(fleet.clone(), EcoLifeConfig::default()),
                    &ShardOptions::new(shards).with_threads(threads),
                    &mut sink,
                );
            // Precondition for exact equality — and the regime the
            // existing record-identity tests pin.
            assert_eq!(
                m.reconcile_revocations, 0,
                "shards={shards} threads={threads}: workload unexpectedly contended"
            );
            assert_eq!(m.records, sequential.records);
            assert_eq!(
                sink.lines(),
                ref_lines.iter().map(String::as_str).collect::<Vec<_>>(),
                "shards={shards} threads={threads}: stream diverged from sequential"
            );
            assert_eq!(sink.tip(), Some(ref_tip.as_str()));
        }
    }
}

#[test]
fn pressured_sharded_stream_is_thread_invariant() {
    // Under genuine memory pressure the sharded run has its own
    // (deterministic) semantics — and so does its stream: byte-identical
    // at every worker-thread count for a fixed shard layout.
    let (trace, bundle, fleet) = multi_region_setup(4 * 1024);
    let run = |threads: usize| {
        let mut sink = CaptureSink::default();
        let m = Simulation::try_new_regional(&trace, &bundle, fleet.clone())
            .unwrap()
            .run_sharded_with_sink(
                |_| EcoLife::new(fleet.clone(), EcoLifeConfig::default()),
                &ShardOptions::new(8).with_threads(threads),
                &mut sink,
            );
        (m, sink)
    };
    let (reference, ref_sink) = run(1);
    assert!(
        reference.transfers + reference.evicted_functions > 0,
        "pressured workload did not overflow"
    );
    verify_lines(ref_sink.lines()).expect("pressured chain verifies");
    for threads in [2usize, 4] {
        let (m, sink) = run(threads);
        assert_eq!(m.reconcile_revocations, reference.reconcile_revocations);
        assert_eq!(
            sink.lines(),
            ref_sink.lines(),
            "pressured stream diverged at {threads} workers"
        );
    }
}

#[test]
fn contended_sharded_stream_still_chains_and_counts_revocations() {
    // A budget tight enough that shards overcommit and the
    // reconciliation pass revokes: the stream legitimately differs from
    // sequential here, but must still verify and must carry exactly one
    // `revoked` event per counted revocation.
    let (trace, bundle, fleet) = multi_region_setup(512);
    let mut sink = CaptureSink::default();
    let m = Simulation::try_new_regional(&trace, &bundle, fleet.clone())
        .unwrap()
        .run_sharded_with_sink(
            |_| EcoLife::new(fleet.clone(), EcoLifeConfig::default()),
            &ShardOptions::new(8).with_threads(4),
            &mut sink,
        );
    assert!(
        m.reconcile_revocations > 0,
        "512 MiB budget was expected to contend"
    );
    let summary = verify_lines(sink.lines()).expect("contended chain verifies");
    assert_eq!(summary.events as usize, sink.len());
    let revoked = sink
        .lines()
        .iter()
        .filter(|l| str_field(l, "type") == Some("Revoked"))
        .count();
    assert_eq!(revoked as u64, m.reconcile_revocations);
}

#[test]
fn expiry_after_the_last_arrival_is_counted_as_sequential_counts_it() {
    // f0's keep-alive lapses before f1 arrives (a sweep expiry in both
    // engines); f1's lapses after the last arrival but inside the final
    // 30-minute period. The sequential engine settles that one in the
    // end-of-run drain without counting it as a sweep expiry, so the
    // sharded final reconciliation must not sweep past the horizon.
    let catalog = WorkloadCatalog::new(vec![
        FunctionProfile::new("f0", 1_000, 2_000, 512, 0.64),
        FunctionProfile::new("f1", 1_000, 2_000, 512, 0.64),
    ]);
    let trace = Trace::new(
        catalog,
        vec![
            Invocation {
                func: FunctionId(0),
                t_ms: 0,
            },
            Invocation {
                func: FunctionId(1),
                t_ms: 12 * MINUTE_MS,
            },
        ],
    );
    let ci = CarbonIntensityTrace::constant(300.0, 60);
    let fleet = skus::fleet_a();
    let sim = Simulation::new(&trace, &ci, fleet);

    let mut reference = CaptureSink::default();
    let sequential = sim.run_with_sink(&mut FixedPolicy::new_only(), &mut reference);
    assert_eq!(
        sequential.expiry.expired, 1,
        "only f0 lapses before the horizon"
    );
    let run_ended = |sink: &CaptureSink| {
        let last = sink.lines().last().copied().expect("non-empty stream");
        assert_eq!(str_field(last, "type"), Some("RunEnded"));
        u64_field(last, "expired")
    };
    assert_eq!(run_ended(&reference), Some(1));

    for shards in [2usize, 8] {
        for threads in [1usize, 2] {
            let mut sink = CaptureSink::default();
            let m = sim.run_sharded_with_sink(
                |_| FixedPolicy::new_only(),
                &ShardOptions::new(shards)
                    .with_threads(threads)
                    .with_period_ms(30 * MINUTE_MS),
                &mut sink,
            );
            assert_eq!(
                m.expiry.expired, sequential.expiry.expired,
                "shards={shards} threads={threads}: expiry count"
            );
            assert_eq!(
                run_ended(&sink),
                Some(1),
                "shards={shards} threads={threads}: RunEnded.expired"
            );
            assert_eq!(
                sink.tip(),
                reference.tip(),
                "shards={shards} threads={threads}: chain tip"
            );
        }
    }
}

#[test]
fn final_reconcile_revokes_only_containers_that_outlive_the_period() {
    // Shards overcommit New-Only's 1 GiB pool in the final 30-minute
    // period. Five keep-alives (f0..f4, arriving at minutes 45..49) lapse
    // after the last arrival but before the period ends at minute 60;
    // three (f5..f7, arriving at minutes 51..53) outlive it. The final
    // reconciliation must settle the lapsed five at their expiry, not
    // count them as sweep expiries, and leave them out of the capacity
    // pass: only f5..f7 can be revoked or transferred, at minute 60.
    let n = 8u32;
    let catalog = WorkloadCatalog::new(
        (0..n)
            .map(|f| FunctionProfile::new(&format!("f{f}"), 1_000, 2_000, 512, 0.64))
            .collect(),
    );
    let arrival_min = |f: u32| if f < 5 { 45 + f as u64 } else { 46 + f as u64 };
    let trace = Trace::new(
        catalog,
        (0..n)
            .map(|f| Invocation {
                func: FunctionId(f),
                t_ms: arrival_min(f) * MINUTE_MS,
            })
            .collect(),
    );
    let ci = CarbonIntensityTrace::constant(300.0, 120);
    let fleet = skus::fleet_a().with_uniform_keepalive_budget_mib(1_024);
    let sim = Simulation::new(&trace, &ci, fleet);
    let t_final = 60 * MINUTE_MS;
    let expiry_ms = |f: u64| (arrival_min(f as u32) + 10) * MINUTE_MS;

    for shards in [2usize, 8] {
        for threads in [1usize, 2] {
            let mut sink = CaptureSink::default();
            let m = sim.run_sharded_with_sink(
                |_| FixedPolicy::new_only(),
                &ShardOptions::new(shards)
                    .with_threads(threads)
                    .with_period_ms(30 * MINUTE_MS),
                &mut sink,
            );
            let at = format!("shards={shards} threads={threads}");
            verify_lines(sink.lines()).expect("contended chain verifies");
            assert_eq!(m.expiry.expired, 0, "{at}: nothing lapses by the horizon");
            let mut revoked = 0u64;
            let mut transferred = 0u64;
            for line in sink.lines() {
                let kind = str_field(line, "type");
                if !matches!(kind, Some("Revoked" | "Transferred")) {
                    continue;
                }
                let func = u64_field(line, "func").expect("func field");
                let t_ms = u64_field(line, "t_ms").expect("t_ms field");
                assert_eq!(t_ms, t_final, "{at}: {line}");
                assert!(
                    t_ms < expiry_ms(func),
                    "{at}: f{func} acted on after its expiry: {line}"
                );
                if kind == Some("Revoked") {
                    revoked += 1;
                } else {
                    transferred += 1;
                }
            }
            assert_eq!(revoked, m.reconcile_revocations, "{at}");
            assert_eq!(transferred, m.transfers, "{at}");
            // Two shards hold 2 GiB on the 1 GiB pool at minute 60, but
            // what outlives the period fits, so nothing may be revoked.
            // Eight shards keep all three of f5..f7 on it: the youngest
            // moves to node 0.
            let expected = if shards == 2 { (0, 0) } else { (1, 1) };
            assert_eq!((m.reconcile_revocations, m.transfers), expected, "{at}");
        }
    }
}

#[test]
fn stream_replays_into_run_metrics() {
    // The reconstruction contract on the pressured fixture: counts and
    // per-node keep-alive gram totals, recovered from the emitted lines
    // alone, equal the run's metrics — grams to the exact bit, because
    // stream order is engine accumulation order and floats serialize
    // shortest-roundtrip.
    let (trace, bundle, fleet) = multi_region_setup(6 * 1024);
    let (m, sink) = capture_sequential(&trace, &bundle, &fleet);
    assert!(m.transfers > 0, "fixture must exercise the transfer path");

    let mut warm = 0u64;
    let mut cold = 0u64;
    let mut transfers = 0u64;
    let mut expired = 0u64;
    let mut keepalive_g = vec![0.0f64; fleet.len()];
    for line in sink.lines() {
        match str_field(line, "type").unwrap() {
            "WarmHit" => warm += 1,
            "ColdStarted" => cold += 1,
            "Transferred" => transfers += 1,
            "Expired" | "Released" | "Revoked" => {
                if str_field(line, "type") == Some("Expired") {
                    expired += 1;
                }
                let node = u64_field(line, "node").unwrap() as usize;
                let g: f64 = field(line, "keepalive_g").unwrap().parse().unwrap();
                keepalive_g[node] += g;
            }
            _ => {}
        }
    }
    assert_eq!((warm + cold) as usize, m.invocations());
    assert_eq!(warm as usize, m.warm_starts());
    assert_eq!(transfers, m.transfers);
    // Every mid-run sweep expiry is in the stream; the end-of-run drain
    // additionally settles still-warm containers as `Expired` (charged
    // to their scheduled expiry), which pool sweep stats don't count.
    assert!(
        expired >= m.expiry.expired,
        "{expired} < {}",
        m.expiry.expired
    );
    let run_ended = sink.lines().last().copied().unwrap();
    assert_eq!(str_field(run_ended, "type"), Some("RunEnded"));
    assert_eq!(u64_field(run_ended, "expired"), Some(m.expiry.expired));
    assert_eq!(u64_field(run_ended, "transfers"), Some(m.transfers));
    let got: Vec<u64> = keepalive_g.iter().map(|g| g.to_bits()).collect();
    let want: Vec<u64> = m.keepalive_g_by_node.iter().map(|g| g.to_bits()).collect();
    assert_eq!(
        got, want,
        "per-node keep-alive grams did not replay bit-exactly"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite contract: for *any* multi-region workload — pressured
    /// or not — the captured sequential stream alone reconstructs the
    /// run's headline metrics: invocation/warm counts exactly, and the
    /// per-node keep-alive gram totals to the exact bit (stream order
    /// is engine accumulation order; floats serialize
    /// shortest-roundtrip). The chain verifies along the way.
    #[test]
    fn any_captured_stream_reconstructs_its_run_metrics(
        seed in 0u64..100_000,
        n_functions in 4usize..20,
        duration_min in 30u64..80,
        budget_gib in 2u64..14,
    ) {
        let trace = SynthTraceConfig {
            n_functions,
            duration_min,
            seed,
            ..Default::default()
        }
        .generate(&WorkloadCatalog::sebs());
        let bundle = CiBundle::synthetic_all(150, seed);
        let fleet = skus::fleet_five_regions()
            .with_uniform_keepalive_budget_mib(budget_gib * 1024);
        let (m, sink) = capture_sequential(&trace, &bundle, &fleet);

        let summary = verify_lines(sink.lines()).expect("chain verifies");
        prop_assert_eq!(summary.events as usize, sink.len());

        let mut warm = 0u64;
        let mut cold = 0u64;
        let mut transfers = 0u64;
        let mut revoked = 0u64;
        let mut keepalive_g = vec![0.0f64; fleet.len()];
        for line in sink.lines() {
            match str_field(line, "type").unwrap() {
                "WarmHit" => warm += 1,
                "ColdStarted" => cold += 1,
                "Transferred" => transfers += 1,
                t @ ("Expired" | "Released" | "Revoked") => {
                    if t == "Revoked" {
                        revoked += 1;
                    }
                    let node = u64_field(line, "node").unwrap() as usize;
                    let g: f64 = field(line, "keepalive_g").unwrap().parse().unwrap();
                    keepalive_g[node] += g;
                }
                _ => {}
            }
        }
        prop_assert_eq!((warm + cold) as usize, m.invocations());
        prop_assert_eq!(warm as usize, m.warm_starts());
        prop_assert_eq!(transfers, m.transfers);
        // The sequential reference never revokes (reconciliation is a
        // sharded-only phase).
        prop_assert_eq!(revoked, 0);
        prop_assert_eq!(m.reconcile_revocations, 0);
        let got: Vec<u64> = keepalive_g.iter().map(|g| g.to_bits()).collect();
        let want: Vec<u64> = m.keepalive_g_by_node.iter().map(|g| g.to_bits()).collect();
        prop_assert_eq!(got, want);
    }
}
