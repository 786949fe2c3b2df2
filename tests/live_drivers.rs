//! Golden pins for the two live program drivers: the exact snapshot text
//! and counters `live_profile_program` (at the `teeperf live` defaults)
//! and `live_profile_processes` (three pids) produce for one fixed
//! program. Any change to how a driver sets up, pumps or finishes its
//! sessions that moves a single byte of the result fails here.

use teeperf::compiler::{compile_instrumented, InstrumentOptions};
use teeperf::core::RecorderConfig;
use teeperf::mc::RunConfig;
use teeperf::sim::CostModel;
use teeperf_live::{live_profile_processes, live_profile_program, LiveConfig, LiveRunConfig};

const SRC: &str = "
    fn leaf(n: int) -> int {
        let s: int = 0;
        for (let i: int = 0; i < n; i = i + 1) { s = s + i; }
        return s;
    }
    fn work(n: int) -> int { return leaf(n) + leaf(n / 2); }
    fn main() -> int {
        let acc: int = 0;
        for (let r: int = 0; r < 8; r = r + 1) { acc = acc + work(40); }
        return acc;
    }
";

fn program() -> teeperf::mc::CompiledProgram {
    compile_instrumented(SRC, &InstrumentOptions::default()).expect("driver program compiles")
}

/// `teeperf live <prog>` with no flags: a 1024-entry log, the session's
/// 2000-event refresh and the driver's 256-instruction pump cadence.
fn cli_defaults() -> LiveRunConfig {
    LiveRunConfig {
        live: LiveConfig {
            refresh_events: 2_000,
            analyzer_shards: 1,
            ..LiveConfig::default()
        },
        pump_every_instructions: 256,
        ..LiveRunConfig::default()
    }
}

const SINGLE_GOLDEN: &str = "[live]\nepoch 2\nevents 50\ndropped 0\nthreads 1\nopen 0\ntotal_ticks 8322\n[methods]\nleaf 16 3636 3636\nwork 8 7090 3454\nmain 1 8322 1232\n[folded]\nmain 1232\nmain;work 3454\nmain;work;leaf 3636\n";

const MULTI_GOLDEN: &str = "[live]\nepoch 4\nevents 150\ndropped 0\nthreads 3\nopen 0\ntotal_ticks 24966\n[processes]\npid 101\npid 102\npid 103\n[events]\nattached pid 101\nattached pid 102\nattached pid 103\n[methods]\nleaf 48 10908 10908\nwork 24 21270 10362\nmain 3 24966 3696\n[folded]\nmain 3696\nmain;work 10362\nmain;work;leaf 10908\n";

#[test]
fn single_program_run_matches_its_golden() {
    let run = live_profile_program(
        program(),
        CostModel::sgx_v1(),
        RunConfig::default(),
        &RecorderConfig {
            max_entries: 1 << 10,
            ..RecorderConfig::default()
        },
        &cli_defaults(),
        |_| Ok(()),
    )
    .expect("live run");
    assert_eq!(run.snapshot.to_text(), SINGLE_GOLDEN);
    assert_eq!(
        (run.exit_code, run.epochs, run.events, run.dropped),
        (7760, 2, 50, 0)
    );
}

#[test]
fn three_process_run_matches_its_golden() {
    let run = live_profile_processes(
        &program(),
        &CostModel::sgx_v1(),
        &RunConfig::default(),
        &RecorderConfig {
            max_entries: 1 << 10,
            ..RecorderConfig::default()
        },
        &cli_defaults(),
        &[101, 102, 103],
    )
    .expect("multi-process live run");
    assert_eq!(run.merged.to_text(), MULTI_GOLDEN);
    assert_eq!(run.exit_codes, vec![7760; 3]);
    assert_eq!((run.events, run.dropped), (150, 0));
    let per_pid: Vec<(u64, u64, u64)> = run
        .per_pid
        .iter()
        .map(|(pid, s)| (*pid, s.status.epoch, s.status.events))
        .collect();
    assert_eq!(per_pid, vec![(101, 1, 50), (102, 1, 50), (103, 2, 50)]);
}
