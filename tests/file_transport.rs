//! The cross-process file transport end to end: events written through
//! `FileShmWriter` (several 4096-slot read chunks' worth, plus one
//! overflow) drain through `FileShmSource` into a `SessionRegistry`, and
//! the merged profile holds exactly the events, ticks and drops written.

use std::path::PathBuf;

use teeperf::analyzer::profile::Anomalies;
use teeperf::analyzer::symbolize::Symbolizer;
use teeperf::core::layout::{EventKind, LogEntry};
use teeperf::core::log::make_header;
use teeperf::core::shm_file::log_path;
use teeperf::core::{FileShmSource, FileShmWriter};
use teeperf::mc::DebugInfo;
use teeperf_live::{LiveConfig, SessionRegistry};

/// Spans per log: 4 entries each, so more than three 4096-slot chunks.
const SPANS: u64 = 3073;

struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn debug() -> DebugInfo {
    DebugInfo::from_functions([("main", 4, 1), ("work", 4, 5)])
}

/// Span `k`: one `main { work }` call of `100 + 2k` ticks, `50 + k` in
/// `work`. Every span has its own length, so a slot read twice, skipped
/// or read from the wrong offset changes the totals.
fn span(k: u64) -> [LogEntry; 4] {
    let base = k * 10_000;
    let d = debug();
    let (main, work) = (d.entry_addr(0), d.entry_addr(1));
    let e = |kind, counter, addr| LogEntry {
        kind,
        counter,
        addr,
        tid: 0,
    };
    [
        e(EventKind::Call, base + 1, main),
        e(EventKind::Call, base + 10, work),
        e(EventKind::Return, base + 60 + k, work),
        e(EventKind::Return, base + 101 + 2 * k, main),
    ]
}

fn write_spans(w: &mut FileShmWriter, spans: std::ops::Range<u64>) {
    for k in spans {
        for e in span(k) {
            assert!(w.write(&e).unwrap().is_some(), "log sized for every span");
        }
    }
}

#[test]
fn chunked_file_logs_drain_exactly_into_the_registry() {
    let dir = ScratchDir(
        std::env::temp_dir().join(format!("teeperf-file-transport-{}", std::process::id())),
    );
    std::fs::create_dir_all(&dir.0).unwrap();
    // pid 31's log is exactly full after its spans; one more event drops.
    let mut full = FileShmWriter::create(&dir.0, &make_header(31, 4 * SPANS, true, 0, 0)).unwrap();
    let mut roomy =
        FileShmWriter::create(&dir.0, &make_header(32, 4 * SPANS + 64, true, 0, 0)).unwrap();

    let mut reg = SessionRegistry::new(LiveConfig::default());
    for pid in [31, 32] {
        let source = FileShmSource::open(&log_path(&dir.0, pid)).unwrap();
        reg.attach(Box::new(source), Symbolizer::without_relocation(debug()))
            .unwrap();
    }

    // Pump mid-stream so later drains start off a chunk boundary.
    write_spans(&mut full, 0..1000);
    write_spans(&mut roomy, 0..1);
    assert_eq!(reg.pump(), 4004);
    write_spans(&mut full, 1000..SPANS);
    write_spans(&mut roomy, 1..SPANS);
    assert_eq!(full.write(&span(SPANS)[0]).unwrap(), None);
    assert_eq!(full.dropped(), 1);
    full.finish().unwrap();
    roomy.finish().unwrap();
    assert_eq!(reg.pump() as u64, 8 * SPANS - 4004);
    assert_eq!(reg.pump(), 0);
    assert_eq!(reg.dropped(), 1);

    let run = reg.finish();
    // Σ k over 0..SPANS, the per-span growth of both methods.
    let growth = SPANS * (SPANS - 1) / 2;
    let ticks = 100 * SPANS + 2 * growth;
    for pid in [31, 32] {
        let snap = &run.per_pid[&pid];
        assert_eq!(snap.status.events, 4 * SPANS, "pid {pid}");
        assert_eq!(snap.profile.total_ticks, ticks, "pid {pid}");
        let work = snap.profile.method("work").expect("work profiled");
        assert_eq!((work.calls, work.inclusive), (SPANS, 50 * SPANS + growth));
    }
    assert_eq!(run.per_pid[&31].status.dropped, 1);
    assert_eq!(run.per_pid[&32].status.dropped, 0);
    let merged = &run.merged;
    assert_eq!(merged.status.events, 8 * SPANS);
    assert_eq!(merged.status.dropped, 1);
    assert_eq!(merged.profile.total_ticks, 2 * ticks);
    let clean_but_one_drop = Anomalies {
        dropped_entries: 1,
        ..Anomalies::default()
    };
    assert_eq!(
        merged.profile.anomalies, clean_but_one_drop,
        "no broken stacks"
    );
}
