//! The live run drivers: execute an instrumented Mini-C program — once,
//! or once per simulated process — while a [`SessionRegistry`] drains
//! every log concurrently.
//!
//! The batch driver ([`teeperf_compiler::profile_program`]) runs to
//! completion and then drains. Here each process's recorder hooks append
//! through the rotation-aware live path into a log whose
//! [`LiveLogSource`] is attached to one registry, and an
//! [`InstrObserver`] pumps the registry every `pump_every_instructions`
//! executed instructions — the in-process, deterministic equivalent of a
//! host-side drainer thread. The log can therefore be far smaller than the
//! event stream: it rotates under the running program, and the rolling
//! profile carries the truth. A single-program run is a one-pid registry
//! run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

use mcvm::debuginfo::DebugInfo;
use mcvm::{CompiledProgram, InstrObserver, McError, RunConfig, SampleCtx, Vm};
use tee_sim::{CostModel, Machine};
use teeperf_analyzer::symbolize::Symbolizer;
use teeperf_core::layout::LogHeader;
use teeperf_core::{LiveLogSource, LogFile, Recorder, RecorderConfig, DEFAULT_WATERMARK_PCT};

use crate::registry::{AttachError, SessionRegistry};
use crate::session::LiveConfig;
use crate::snapshot::Snapshot;

/// Tuning for one live run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveRunConfig {
    /// Session policy (refresh cadence, retention, budget) for every
    /// process's session.
    pub live: LiveConfig,
    /// Pump the registry every this many executed VM instructions.
    pub pump_every_instructions: u64,
    /// Rotate each process's log once its epoch has filled this
    /// percentage of the capacity (clamped to `1..=99` by the source).
    pub watermark_pct: u8,
}

impl Default for LiveRunConfig {
    fn default() -> Self {
        LiveRunConfig {
            live: LiveConfig::default(),
            pump_every_instructions: 256,
            watermark_pct: DEFAULT_WATERMARK_PCT,
        }
    }
}

/// Result of a live-profiled run.
#[derive(Debug)]
pub struct LiveRun {
    /// `main`'s return value.
    pub exit_code: i64,
    /// The final snapshot: every call closed, all epochs merged.
    pub snapshot: Snapshot,
    /// Rendered flame-view frames, one per refresh during the run.
    pub frames: Vec<String>,
    /// Drain epochs the session went through.
    pub epochs: u64,
    /// Events merged into the rolling profile.
    pub events: u64,
    /// Events lost to overflow (accounted, not silent).
    pub dropped: u64,
    /// The drained stream re-packaged as a batch log, so any offline stage
    /// can replay exactly what the live session saw. Empty unless
    /// [`LiveConfig::keep_replay`] is set — retention is opt-in because it
    /// grows with the stream.
    pub replay: LogFile,
    /// Symbol table matching the instrumented binary.
    pub debug: DebugInfo,
    /// Program output lines.
    pub output: Vec<String>,
    /// Total virtual cycles consumed.
    pub cycles: u64,
}

/// The pump: hands every attached session CPU time on a fixed
/// instruction cadence while one of the simulated processes runs.
struct CadencePump {
    registry: Rc<RefCell<SessionRegistry>>,
    every: u64,
    since: u64,
}

impl InstrObserver for CadencePump {
    fn observe(&mut self, _machine: &mut Machine, _ctx: &SampleCtx<'_>) {
        self.since += 1;
        if self.since >= self.every {
            self.since = 0;
            self.registry.borrow_mut().pump();
        }
    }
}

/// One finished program run of a simulated process.
struct ProcessRun {
    pid: u64,
    exit_code: i64,
    vm: Vm,
    /// The log header as the recorder initialized it.
    header: LogHeader,
}

/// Run `program` as one simulated process: a recorder and log stamped
/// with `recorder_config.pid` (also the machine's `getpid`), its
/// [`LiveLogSource`] attached to `registry`, hooks writing through the
/// live path (with the writer-side fidelity gate when a budget is set),
/// and the registry pumped on the configured cadence while it runs.
fn run_process(
    program: CompiledProgram,
    cost: CostModel,
    run_config: RunConfig,
    recorder_config: &RecorderConfig,
    live_config: &LiveRunConfig,
    registry: &Rc<RefCell<SessionRegistry>>,
    setup: impl FnOnce(&mut Vm) -> Result<(), McError>,
) -> Result<ProcessRun, MultiLiveError> {
    let mut recorder_config = recorder_config.clone();
    recorder_config.anchor = program
        .debug
        .functions()
        .first()
        .map_or(tee_sim::ENCLAVE_TEXT_BASE, |f| f.base_addr);
    let recorder = Recorder::new(&recorder_config);
    let header = recorder.log().header();
    let symbolizer = Symbolizer::new(program.debug.clone(), &header);
    let source = LiveLogSource::new(recorder.log().clone(), live_config.watermark_pct);
    let pid = registry.borrow_mut().attach(Box::new(source), symbolizer)?;

    let mut machine = Machine::new(cost);
    machine.set_pid(pid);
    let mut vm = Vm::with_config(program, machine, run_config);
    recorder.attach(vm.machine_mut());
    let mut hooks = recorder
        .sim_hooks(vm.machine().clock().clone())
        .with_live_writes();
    if live_config.live.budget.is_some() {
        // A budgeted session publishes regimes through the log's regime
        // word; arm the writer-side gate so they actually throttle at the
        // source instead of just relabeling the overflow.
        hooks = hooks.with_fidelity_gate();
    }
    vm.set_hooks(Box::new(hooks));
    vm.set_observer(Box::new(CadencePump {
        registry: Rc::clone(registry),
        every: live_config.pump_every_instructions.max(1),
        since: 0,
    }));
    setup(&mut vm)?;
    let exit_code = vm.run()?;
    Ok(ProcessRun {
        pid,
        exit_code,
        vm,
        header,
    })
}

/// Run an instrumented `program` under a live session: hooks write through
/// the rotation-aware path, the session is pumped on an instruction
/// cadence, and the result carries the final snapshot (plus a replay log
/// for offline cross-checks).
///
/// # Errors
/// Propagates runtime traps from the VM; a recorder pid of 0
/// ([`teeperf_core::layout::PID_UNSET`]) is reported as a runtime error,
/// since the session is keyed by pid.
pub fn live_profile_program(
    program: CompiledProgram,
    cost: CostModel,
    run_config: RunConfig,
    recorder_config: &RecorderConfig,
    live_config: &LiveRunConfig,
    setup: impl FnOnce(&mut Vm) -> Result<(), McError>,
) -> Result<LiveRun, McError> {
    let debug = program.debug.clone();
    let registry = Rc::new(RefCell::new(SessionRegistry::new(live_config.live.clone())));
    let run = run_process(
        program,
        cost,
        run_config,
        recorder_config,
        live_config,
        &registry,
        setup,
    )
    .map_err(|e| match e {
        MultiLiveError::Run(e) => e,
        MultiLiveError::Attach(e) => McError::runtime(e.to_string()),
    })?;

    let mut registry = registry.borrow_mut();
    let snapshot = registry
        .finish()
        .per_pid
        .remove(&run.pid)
        .expect("the run's pid was attached");
    // A session quarantined mid-run (its log header corrupted) is retired:
    // its snapshot survives, its frame history and replay end with it.
    let session = registry.session(run.pid);
    let replay_entries = session.map_or_else(Vec::new, |s| s.replay_entries().to_vec());
    let mut header = run.header;
    header.active = false;
    header.tail = snapshot.status.events;
    header.size = snapshot.status.events.max(1);
    Ok(LiveRun {
        exit_code: run.exit_code,
        epochs: snapshot.status.epoch,
        events: snapshot.status.events,
        dropped: snapshot.status.dropped,
        frames: session.map_or_else(Vec::new, |s| s.frames().to_vec()),
        replay: LogFile::new(header, replay_entries),
        snapshot,
        debug,
        output: run.vm.output().to_vec(),
        cycles: run.vm.machine().clock().now(),
    })
}

/// Why a multi-process live run failed.
#[derive(Debug)]
pub enum MultiLiveError {
    /// A simulated process could not be attached to the registry (zero or
    /// duplicate pid).
    Attach(AttachError),
    /// One of the program runs trapped.
    Run(McError),
}

impl fmt::Display for MultiLiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiLiveError::Attach(e) => write!(f, "attach failed: {e}"),
            MultiLiveError::Run(e) => write!(f, "program run failed: {e}"),
        }
    }
}

impl Error for MultiLiveError {}

impl From<AttachError> for MultiLiveError {
    fn from(e: AttachError) -> MultiLiveError {
        MultiLiveError::Attach(e)
    }
}

impl From<McError> for MultiLiveError {
    fn from(e: McError) -> MultiLiveError {
        MultiLiveError::Run(e)
    }
}

/// Result of a multi-process live run.
#[derive(Debug)]
pub struct MultiLiveRun {
    /// `main`'s return value for each simulated process, in `pids` order.
    pub exit_codes: Vec<i64>,
    /// Final per-process snapshots, keyed by pid.
    pub per_pid: BTreeMap<u64, Snapshot>,
    /// The cross-process merge: totals equal the sum over `per_pid`.
    pub merged: Snapshot,
    /// Events merged across all processes.
    pub events: u64,
    /// Events lost to overflow across all processes (accounted).
    pub dropped: u64,
}

/// Run `program` once per entry of `pids` — each run a simulated process
/// with its own recorder, shared log and pid — under one
/// [`SessionRegistry`]: every log is drained by its own session, and the
/// result carries per-pid snapshots plus the merged cross-process view
/// (whose totals are exactly the per-pid sums).
///
/// Runs are sequential (the simulator is single-threaded) but every
/// session stays attached for the whole span, so the registry's pump
/// keeps draining earlier processes' logs while later ones execute —
/// the deterministic equivalent of N enclaves sharing one host drainer.
///
/// # Errors
/// [`MultiLiveError::Attach`] when a pid is zero or repeated;
/// [`MultiLiveError::Run`] when a program run traps.
pub fn live_profile_processes(
    program: &CompiledProgram,
    cost: &CostModel,
    run_config: &RunConfig,
    recorder_config: &RecorderConfig,
    live_config: &LiveRunConfig,
    pids: &[u64],
) -> Result<MultiLiveRun, MultiLiveError> {
    let registry = Rc::new(RefCell::new(SessionRegistry::new(live_config.live.clone())));
    let mut exit_codes = Vec::with_capacity(pids.len());
    for &pid in pids {
        let config = RecorderConfig {
            pid,
            ..recorder_config.clone()
        };
        let run = run_process(
            program.clone(),
            cost.clone(),
            run_config.clone(),
            &config,
            live_config,
            &registry,
            |_| Ok(()),
        )?;
        exit_codes.push(run.exit_code);
    }

    let run = registry.borrow_mut().finish();
    Ok(MultiLiveRun {
        exit_codes,
        events: run.merged.status.events,
        dropped: run.merged.status.dropped,
        per_pid: run.per_pid,
        merged: run.merged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use teeperf_analyzer::{profile, Analyzer};
    use teeperf_compiler::{compile_instrumented, profile_program, InstrumentOptions};

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

    fn live_run(max_entries: u64) -> LiveRun {
        live_profile_program(
            compile_instrumented(SRC, &InstrumentOptions::default()).unwrap(),
            CostModel::sgx_v1(),
            RunConfig::default(),
            &RecorderConfig {
                max_entries,
                ..RecorderConfig::default()
            },
            &LiveRunConfig {
                live: LiveConfig {
                    refresh_events: 20,
                    keep_replay: true,
                    analyzer_shards: 2,
                    ..LiveConfig::default()
                },
                pump_every_instructions: 64,
                ..LiveRunConfig::default()
            },
            |_| Ok(()),
        )
        .unwrap()
    }

    #[test]
    fn live_run_rotates_without_stopping_the_writer() {
        let run = live_run(16);
        // 8 iterations × (work + 2×leaf) × 2 events + main = 50 events
        // through a 16-entry log: several rotations, nothing lost.
        assert_eq!(run.exit_code, 8 * (780 + 190));
        assert_eq!(run.events, 50);
        assert!(run.epochs >= 3, "only {} epochs", run.epochs);
        assert_eq!(run.dropped, 0, "pump cadence must outrun the writers");
        assert!(!run.frames.is_empty());
    }

    #[test]
    fn rolling_profile_matches_offline_replay_exactly() {
        let run = live_run(16);
        // Feed the exact stream the live session drained through the batch
        // analyzer: the rolling aggregates must be identical.
        let sym = Symbolizer::new(run.debug.clone(), &run.replay.header);
        let batch = profile::build(&run.replay, &sym);
        let live = &run.snapshot.profile;
        assert_eq!(live.methods, batch.methods);
        assert_eq!(live.folded, batch.folded);
        assert_eq!(live.caller_edges, batch.caller_edges);
        assert_eq!(live.total_ticks, batch.total_ticks);
    }

    #[test]
    fn live_agrees_with_independent_batch_run() {
        let run = live_run(16);
        // An independent batch run of the same program (big log, no
        // rotation): per-method call counts and the hot-method order must
        // agree. Tick values may differ slightly — entry writes land at
        // different shared-memory addresses, and memory-model costs are
        // address-dependent.
        let batch = profile_program(
            compile_instrumented(SRC, &InstrumentOptions::default()).unwrap(),
            CostModel::sgx_v1(),
            RunConfig::default(),
            &RecorderConfig::default(),
            |_| Ok(()),
        )
        .unwrap();
        let analyzer = Analyzer::new(batch.log, batch.debug).unwrap();
        let offline = analyzer.profile();
        let top = |p: &teeperf_analyzer::Profile| {
            p.methods
                .iter()
                .take(5)
                .map(|m| (m.name.clone(), m.calls))
                .collect::<Vec<_>>()
        };
        assert_eq!(top(&run.snapshot.profile), top(&offline));
        // Time is partitioned exactly: exclusive sums to inclusive.
        for m in &run.snapshot.profile.methods {
            assert!(m.exclusive <= m.inclusive);
        }
        let root_inclusive: u64 = run
            .snapshot
            .profile
            .caller_edges
            .iter()
            .filter(|e| e.caller == "<root>")
            .map(|e| e.inclusive)
            .sum();
        assert_eq!(run.snapshot.profile.total_ticks, root_inclusive);
    }

    #[test]
    fn tiny_log_accounts_drops_instead_of_stopping() {
        // A 2-entry log with a slow pump cannot keep up; the run must
        // still finish, and every lost entry must be accounted.
        let run = live_profile_program(
            compile_instrumented(SRC, &InstrumentOptions::default()).unwrap(),
            CostModel::sgx_v1(),
            RunConfig::default(),
            &RecorderConfig {
                max_entries: 2,
                ..RecorderConfig::default()
            },
            &LiveRunConfig {
                live: LiveConfig::default(),
                pump_every_instructions: 100_000,
                ..LiveRunConfig::default()
            },
            |_| Ok(()),
        )
        .unwrap();
        assert_eq!(run.events + run.dropped, 50);
        assert!(run.dropped > 0);
    }

    fn multi_run(pids: &[u64]) -> Result<MultiLiveRun, MultiLiveError> {
        live_profile_processes(
            &compile_instrumented(SRC, &InstrumentOptions::default()).unwrap(),
            &CostModel::sgx_v1(),
            &RunConfig::default(),
            &RecorderConfig {
                max_entries: 16,
                ..RecorderConfig::default()
            },
            &LiveRunConfig {
                pump_every_instructions: 64,
                ..LiveRunConfig::default()
            },
            pids,
        )
    }

    #[test]
    fn three_processes_yield_per_pid_and_merged_views() {
        let run = multi_run(&[101, 102, 103]).unwrap();
        assert_eq!(run.exit_codes, vec![8 * (780 + 190); 3]);
        assert_eq!(run.per_pid.len(), 3);
        for (pid, snap) in &run.per_pid {
            assert_eq!(snap.status.events, 50, "pid {pid}");
            assert_eq!(snap.status.dropped, 0, "pid {pid}");
            assert_eq!(snap.status.open_frames, 0, "pid {pid}");
        }
        // The acceptance criterion: merged totals equal the per-pid sums.
        assert_eq!(run.events, 150);
        let ticks_sum: u64 = run.per_pid.values().map(|s| s.profile.total_ticks).sum();
        assert_eq!(run.merged.profile.total_ticks, ticks_sum);
        let calls = |p: &teeperf_analyzer::Profile, name: &str| p.method(name).unwrap().calls;
        assert_eq!(calls(&run.merged.profile, "leaf"), 3 * 16);
        assert_eq!(
            run.merged.profile.pids,
            std::collections::BTreeSet::from([101, 102, 103])
        );
        // Identical processes: every per-pid profile agrees method-wise.
        let first = &run.per_pid[&101].profile;
        for snap in run.per_pid.values() {
            assert_eq!(snap.profile.methods, first.methods);
        }
    }

    #[test]
    fn multi_run_rejects_zero_and_duplicate_pids() {
        match multi_run(&[0]) {
            Err(MultiLiveError::Attach(AttachError::ZeroPid)) => {}
            other => panic!("expected ZeroPid, got {other:?}"),
        }
        match multi_run(&[9, 9]) {
            Err(MultiLiveError::Attach(AttachError::DuplicatePid(9))) => {}
            other => panic!("expected DuplicatePid, got {other:?}"),
        }
    }
}
