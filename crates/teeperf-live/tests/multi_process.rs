//! Multi-process session tests:
//!
//! * a property test interleaving 2–4 simulated processes through one
//!   `SessionRegistry` (random per-process workloads, random replay chunk
//!   sizes so the sources advance out of lockstep) asserting the merged
//!   snapshot is exactly the sum of the per-pid snapshots;
//! * golden tests pinning the single-source `Snapshot::to_text()` byte
//!   format — a profile covering one process must serialize exactly as it
//!   did before the multi-process layer existed (no `[processes]`
//!   section, same counters, same tables).

use mcvm::DebugInfo;
use proptest::prelude::*;
use std::collections::BTreeSet;
use teeperf_analyzer::symbolize::Symbolizer;
use teeperf_core::layout::{EventKind, LogEntry, LogHeader, LOG_VERSION};
use teeperf_core::{FileReplaySource, LogFile};
use teeperf_live::{LiveConfig, LiveSession, SessionRegistry};

fn debug() -> DebugInfo {
    DebugInfo::from_functions([("main", 4, 1), ("work", 4, 5)])
}

fn sym() -> Symbolizer {
    Symbolizer::without_relocation(debug())
}

/// A single-thread recording of `main { work; work; … }` with the given
/// per-call work durations, stamped with `pid`.
fn file_for(pid: u64, works: &[u64]) -> LogFile {
    let d = debug();
    let (main_addr, work_addr) = (d.entry_addr(0), d.entry_addr(1));
    let e = |kind, counter, addr| LogEntry {
        kind,
        counter,
        addr,
        tid: 0,
    };
    let mut entries = vec![e(EventKind::Call, 1, main_addr)];
    let mut t = 1u64;
    for &w in works {
        t += 1;
        entries.push(e(EventKind::Call, t, work_addr));
        t += w;
        entries.push(e(EventKind::Return, t, work_addr));
    }
    t += 1;
    entries.push(e(EventKind::Return, t, main_addr));
    let header = LogHeader {
        active: false,
        trace_calls: true,
        trace_returns: true,
        multithread: true,
        version: LOG_VERSION,
        pid,
        size: entries.len() as u64,
        tail: entries.len() as u64,
        anchor: 0,
        shm_addr: 0,
    };
    LogFile::new(header, entries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// 2–4 processes with independent random workloads, replayed through
    /// one registry with random chunk sizes (so the sources interleave out
    /// of lockstep): the merged snapshot's totals, call counts and event
    /// counters must equal the sums over the per-pid snapshots, and
    /// nothing may be lost or invented.
    #[test]
    fn prop_merged_equals_sum_of_per_pid(
        workloads in proptest::collection::vec(
            proptest::collection::vec(1u64..50, 1..12),
            2..=4,
        ),
        chunks in proptest::collection::vec(1usize..7, 4),
    ) {
        let mut registry = SessionRegistry::new(LiveConfig::default());
        let mut total_entries = 0u64;
        for (i, works) in workloads.iter().enumerate() {
            let pid = 100 * (i as u64 + 1);
            let file = file_for(pid, works);
            total_entries += file.entries.len() as u64;
            let source = FileReplaySource::new(&file).with_chunk(chunks[i % chunks.len()]);
            registry.attach(Box::new(source), sym()).unwrap();
        }

        // Interleave: every pump advances each source by its own chunk.
        while registry.pump() > 0 {}
        let run = registry.finish();

        // Conservation: every written entry was merged, none dropped.
        prop_assert_eq!(run.merged.status.events, total_entries);
        prop_assert_eq!(run.merged.status.dropped, 0);
        prop_assert_eq!(run.merged.status.open_frames, 0);

        // The acceptance criterion: merged == sum of per-pid, for every
        // aggregate the snapshot exposes.
        let sum = |f: &dyn Fn(&teeperf_live::Snapshot) -> u64| -> u64 {
            run.per_pid.values().map(f).sum()
        };
        prop_assert_eq!(run.merged.status.events, sum(&|s| s.status.events));
        prop_assert_eq!(run.merged.status.threads, sum(&|s| s.status.threads));
        prop_assert_eq!(
            run.merged.profile.total_ticks,
            sum(&|s| s.profile.total_ticks)
        );
        for name in ["main", "work"] {
            let merged = run.merged.profile.method(name).unwrap();
            prop_assert_eq!(
                merged.calls,
                sum(&|s| s.profile.method(name).unwrap().calls),
                "{} calls", name
            );
            prop_assert_eq!(
                merged.inclusive,
                sum(&|s| s.profile.method(name).unwrap().inclusive),
                "{} inclusive", name
            );
            prop_assert_eq!(
                merged.exclusive,
                sum(&|s| s.profile.method(name).unwrap().exclusive),
                "{} exclusive", name
            );
        }
        // Folded ticks are conserved through the per-process merge.
        let folded_total: u64 = run.merged.profile.folded.iter().map(|(_, t)| t).sum();
        let folded_sum: u64 = run
            .per_pid
            .values()
            .flat_map(|s| s.profile.folded.iter().map(|(_, t)| *t))
            .sum();
        prop_assert_eq!(folded_total, folded_sum);

        // The merged profile knows exactly which processes fed it.
        let expect: BTreeSet<u64> =
            (1..=workloads.len() as u64).map(|i| 100 * i).collect();
        prop_assert_eq!(run.merged.profile.pids, expect);
    }
}

/// The exact serialized form of a single-source snapshot, pinned byte for
/// byte: the multi-process layer must not change it (no `[processes]`
/// section for a single pid, identical counters and tables).
const GOLDEN_REPLAY: &str = "[live]\n\
epoch 1\n\
events 4\n\
dropped 0\n\
threads 1\n\
open 0\n\
total_ticks 100\n\
[methods]\n\
main 1 100 50\n\
work 1 50 50\n\
[folded]\n\
main 50\n\
main;work 50\n";

fn golden_file() -> LogFile {
    let d = debug();
    let (main_addr, work_addr) = (d.entry_addr(0), d.entry_addr(1));
    let e = |kind, counter, addr| LogEntry {
        kind,
        counter,
        addr,
        tid: 0,
    };
    let entries = vec![
        e(EventKind::Call, 1, main_addr),
        e(EventKind::Call, 10, work_addr),
        e(EventKind::Return, 60, work_addr),
        e(EventKind::Return, 101, main_addr),
    ];
    LogFile::new(
        LogHeader {
            active: false,
            trace_calls: true,
            trace_returns: true,
            multithread: true,
            version: LOG_VERSION,
            pid: 31,
            size: 4,
            tail: 4,
            anchor: 0,
            shm_addr: 0,
        },
        entries,
    )
}

#[test]
fn single_source_snapshot_text_is_byte_identical() {
    let source = FileReplaySource::new(&golden_file());
    let mut session = LiveSession::new(Box::new(source), sym(), LiveConfig::default());
    let snap = session.finish();
    assert_eq!(snap.profile.pids, BTreeSet::from([31]));
    assert_eq!(snap.to_text(), GOLDEN_REPLAY);
}

#[test]
fn live_log_snapshot_matches_replay_except_epoch_accounting() {
    use std::sync::Arc;
    use tee_sim::SharedMem;
    use teeperf_core::log::{make_header, region_bytes};
    use teeperf_core::{LiveLogSource, SharedLog, DEFAULT_WATERMARK_PCT};

    let shm = Arc::new(SharedMem::new(region_bytes(16)));
    let log = SharedLog::init(shm, &make_header(31, 16, true, 0, tee_sim::SHM_BASE));
    for e in &golden_file().entries {
        log.write_live(e);
    }
    let source = LiveLogSource::new(log, DEFAULT_WATERMARK_PCT);
    let mut session = LiveSession::new(Box::new(source), sym(), LiveConfig::default());
    let snap = session.finish();
    // A live log pays one extra (empty) rotation when the session closes;
    // everything below the epoch counter is byte-identical to the replay.
    let live_text = snap.to_text();
    let replay_tail = GOLDEN_REPLAY.split_once('\n').unwrap().1;
    let live_tail = live_text.split_once('\n').unwrap().1;
    assert_eq!(
        live_tail.split_once('\n').unwrap().1,
        replay_tail.split_once('\n').unwrap().1
    );
    assert!(live_text.starts_with("[live]\nepoch "));
    assert!(!live_text.contains("[processes]"));
}
