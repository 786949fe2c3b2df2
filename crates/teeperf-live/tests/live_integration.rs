//! Integration tests for the continuous-profiling subsystem:
//!
//! * a property test that concurrent live writers plus a rotating drainer
//!   lose no entries and duplicate none, across many epoch rotations;
//! * an end-to-end check that a live session over the Phoenix
//!   `string_match` workload (the paper's highest call-density benchmark)
//!   converges to the same hot methods as the offline batch analyzer.

use std::sync::Arc;

use proptest::prelude::*;
use tee_sim::{CostModel, SharedMem};
use teeperf_core::layout::{EventKind, LogEntry};
use teeperf_core::log::{make_header, region_bytes};
use teeperf_core::{LogCursor, SharedLog};

fn fresh_log(max_entries: u64) -> SharedLog {
    let shm = Arc::new(SharedMem::new(region_bytes(max_entries)));
    SharedLog::init(
        shm,
        &make_header(1, max_entries, true, 0, tee_sim::SHM_BASE),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random writer counts, per-writer volumes and (tiny) log capacities:
    /// whatever the interleaving, the drainer recovers exactly the entries
    /// the writers successfully published — each exactly once — and every
    /// unpublished entry is accounted as dropped.
    #[test]
    fn prop_concurrent_drain_loses_nothing_duplicates_nothing(
        writers in 1usize..4,
        per_writer in 1u64..600,
        capacity in 2u64..32,
    ) {
        let log = fresh_log(capacity);
        let mut handles = Vec::new();
        for t in 0..writers as u64 {
            let log = log.clone();
            handles.push(std::thread::spawn(move || {
                let mut published = Vec::new();
                for k in 0..per_writer {
                    let addr = (t + 1) * 1_000_000 + k + 1;
                    let stored = log
                        .write_live(&LogEntry {
                            kind: EventKind::Call,
                            counter: k + 1,
                            addr,
                            tid: t,
                        })
                        .is_some();
                    if stored {
                        published.push(addr);
                    }
                }
                published
            }));
        }
        let total = writers as u64 * per_writer;
        let drainer = {
            let log = log.clone();
            std::thread::spawn(move || {
                let mut cursor = LogCursor::default();
                let mut drained = Vec::new();
                loop {
                    drained.extend(log.poll(&mut cursor));
                    drained.extend(log.rotate(&mut cursor).entries);
                    if log.writers_in_flight() == 0
                        && drained.len() as u64 + log.dropped_total() >= total
                    {
                        break;
                    }
                    std::thread::yield_now();
                }
                (drained, cursor.epoch)
            })
        };
        let mut published: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let (drained, epochs) = drainer.join().unwrap();

        // Conservation: published + dropped == attempted.
        prop_assert_eq!(published.len() as u64 + log.dropped_total(), total);
        // Exactly the published entries came out, each exactly once.
        let mut got: Vec<u64> = drained.iter().map(|e| e.addr).collect();
        published.sort_unstable();
        got.sort_unstable();
        let drained_len = got.len() as u64;
        prop_assert_eq!(got, published);
        // Each epoch can surface at most `capacity` entries, so a drained
        // volume above 4× capacity proves repeated rotation. (The attempted
        // volume proves nothing: under unlucky scheduling the writers can
        // overflow the log before the drainer first runs.)
        if drained_len > capacity * 4 {
            prop_assert!(epochs >= 3, "only {} epochs", epochs);
        }
    }
}

mod string_match_convergence {
    use super::*;
    use phoenix::{suite, Benchmark, Scale};
    use teeperf_analyzer::symbolize::Symbolizer;
    use teeperf_analyzer::{profile, Analyzer, Profile};
    use teeperf_compiler::{compile_instrumented, profile_program, InstrumentOptions};
    use teeperf_core::RecorderConfig;
    use teeperf_live::{live_profile_program, LiveConfig, LiveRunConfig};

    fn string_match() -> Box<dyn Benchmark> {
        suite(Scale::Small, 42)
            .into_iter()
            .find(|b| b.name() == "string_match")
            .expect("string_match is in the suite")
    }

    fn top5(p: &Profile) -> Vec<String> {
        p.methods.iter().take(5).map(|m| m.name.clone()).collect()
    }

    /// The acceptance criterion of the live subsystem: a session over
    /// `string_match` rotating through a log that is orders of magnitude
    /// smaller than the event stream must agree with the offline batch
    /// analyzer run on an unbounded log.
    #[test]
    fn live_string_match_matches_offline_top5() {
        let bench = string_match();
        let program = compile_instrumented(bench.source(), &InstrumentOptions::default())
            .expect("string_match compiles instrumented");

        let live = live_profile_program(
            program.clone(),
            CostModel::sgx_v1(),
            mcvm::RunConfig::default(),
            &RecorderConfig {
                max_entries: 512,
                ..RecorderConfig::default()
            },
            &LiveRunConfig {
                live: LiveConfig {
                    keep_replay: true,
                    refresh_events: 5_000,
                    ..LiveConfig::default()
                },
                pump_every_instructions: 128,
                ..LiveRunConfig::default()
            },
            |vm| bench.setup(vm),
        )
        .expect("live run succeeds");

        // The session must have rotated repeatedly, lost nothing, and the
        // writer was never stopped (the run completed with full output).
        assert!(live.epochs >= 3, "only {} epochs", live.epochs);
        assert_eq!(live.dropped, 0, "pump cadence must keep up");
        assert!(live.events > 512, "stream must exceed the log capacity");

        // Offline reference: same workload, one big batch log.
        let offline = profile_program(
            program,
            CostModel::sgx_v1(),
            mcvm::RunConfig::default(),
            &RecorderConfig::default(),
            |vm| bench.setup(vm),
        )
        .expect("batch run succeeds");
        assert_eq!(live.exit_code, offline.exit_code);
        let offline_profile = Analyzer::new(offline.log, offline.debug)
            .expect("log validates")
            .profile();

        // Identical hot methods, identical call counts.
        assert_eq!(top5(&live.snapshot.profile), top5(&offline_profile));
        for m in &live.snapshot.profile.methods {
            let o = offline_profile
                .method(&m.name)
                .unwrap_or_else(|| panic!("{} missing offline", m.name));
            assert_eq!(m.calls, o.calls, "{}", m.name);
        }

        // Replaying the drained stream through the batch aggregator must
        // reproduce the rolling profile exactly.
        let sym = Symbolizer::new(live.debug.clone(), &live.replay.header);
        let replayed = profile::build(&live.replay, &sym);
        assert_eq!(live.snapshot.profile.methods, replayed.methods);
        assert_eq!(live.snapshot.profile.folded, replayed.folded);
        assert_eq!(live.snapshot.profile.total_ticks, replayed.total_ticks);

        // Time is partitioned exactly: the exclusive total equals the
        // inclusive time of the top-level frames.
        let root_inclusive: u64 = live
            .snapshot
            .profile
            .caller_edges
            .iter()
            .filter(|e| e.caller == "<root>")
            .map(|e| e.inclusive)
            .sum();
        assert_eq!(live.snapshot.profile.total_ticks, root_inclusive);
    }
}
