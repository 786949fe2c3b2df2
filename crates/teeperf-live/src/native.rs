//! Continuous profiling of native Rust workloads: a real spin-counter
//! thread timestamping real [`Probe`] scopes, drained by a [`LiveSession`]
//! over the same shared log.
//!
//! This is the live rendering of the paper's software-counter setup
//! (§II-B stage 2): [`NativeLiveSession::start`] spawns the counter
//! thread ([`teeperf_core::SpinCounter`] — it really does burn a core
//! until the session is dropped), switches the hooks to the
//! rotation-aware live append path, and stands up a [`LiveSession`]
//! draining the log while the workload runs. Unlike the deterministic
//! simulated-counter sessions the figures use, timestamps here come from
//! a real OS thread, so tests against this path assert structure (event
//! counts, method names, balanced frames), never exact tick values.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use tee_sim::{CostModel, Machine};
use teeperf_analyzer::symbolize::Symbolizer;
use teeperf_core::{
    CounterSource, LiveLogSource, Probe, Profiler, Recorder, RecorderConfig, DEFAULT_WATERMARK_PCT,
};
use teeperf_flamegraph::LiveStatus;

use crate::session::{LiveConfig, LiveSession};
use crate::snapshot::Snapshot;

/// A live session over a native-Rust workload with a real spin counter.
pub struct NativeLiveSession {
    recorder: Recorder,
    machine: Machine,
    profiler: Rc<RefCell<Profiler>>,
    session: LiveSession,
}

impl fmt::Debug for NativeLiveSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeLiveSession")
            .field("pid", &self.session.pid())
            .field("events", &self.session.events())
            .finish()
    }
}

impl NativeLiveSession {
    /// Allocate the shared region, start the spin-counter thread, and
    /// stand up the live drain. Blocks briefly until the counter thread
    /// demonstrably runs, so the first recorded event already carries a
    /// nonzero timestamp.
    pub fn start(
        recorder_config: &RecorderConfig,
        cost: CostModel,
        live: LiveConfig,
    ) -> NativeLiveSession {
        let recorder = Recorder::new(recorder_config);
        let mut machine = Machine::new(cost);
        recorder.attach(&mut machine);
        machine.ecall();
        let counter = recorder.start_spin_counter();
        while counter.read() == 0 {
            std::thread::yield_now();
        }
        let hooks = recorder
            .hooks_with(Box::new(counter), None)
            .with_live_writes();
        let profiler = Rc::new(RefCell::new(Profiler::new(hooks)));
        let symbolizer = Symbolizer::without_relocation(profiler.borrow().debug_info());
        let source = LiveLogSource::new(recorder.log().clone(), DEFAULT_WATERMARK_PCT);
        let session = LiveSession::new(Box::new(source), symbolizer, live);
        NativeLiveSession {
            recorder,
            machine,
            profiler,
            session,
        }
    }

    /// The recorder backing this session (pause/resume, counter word).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// A probe over this session's profiler, attributed to `tid` — hand
    /// it to substrate code that instruments itself with [`Probe::scope`].
    pub fn probe(&self, tid: u64) -> Probe {
        Probe::new(Rc::clone(&self.profiler), tid)
    }

    /// Run `body` inside an instrumented `name` scope on thread `tid`
    /// (records a call entry, runs the body against the machine, records
    /// the return).
    pub fn scope<R>(&mut self, tid: u64, name: &str, body: impl FnOnce(&mut Machine) -> R) -> R {
        let probe = Probe::new(Rc::clone(&self.profiler), tid);
        probe.scope(&mut self.machine, name, body)
    }

    /// Process id this session's log is keyed by (the recorder stamps the
    /// real host pid by default).
    pub fn pid(&self) -> u64 {
        self.session.pid()
    }

    /// The inner live session (frames, snapshots, diffs).
    pub fn session(&self) -> &LiveSession {
        &self.session
    }

    /// Drain whatever the workload has published and merge it. Refreshes
    /// the symbolizer first: a native workload registers function names
    /// lazily, so the debug info grows while the session runs.
    pub fn pump(&mut self) -> usize {
        self.refresh_symbols();
        self.session.pump()
    }

    /// The one-line session state.
    pub fn status(&self) -> LiveStatus {
        self.session.status()
    }

    /// The retained-window listing when [`LiveConfig::retention`] is set —
    /// a native workload under a real spin counter gets the same
    /// time-travel queries as every other session.
    pub fn windows(&self) -> Option<crate::window::PidWindows> {
        self.session.windows()
    }

    /// End the session: final drain, force-close open frames, final
    /// snapshot. Dropping the returned session also stops the counter
    /// thread (it lives inside the profiler's hooks).
    pub fn finish(mut self) -> Snapshot {
        self.refresh_symbols();
        self.session.finish()
    }

    fn refresh_symbols(&mut self) {
        let symbolizer = Symbolizer::without_relocation(self.profiler.borrow().debug_info());
        self.session.set_symbolizer(symbolizer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> (RecorderConfig, LiveConfig) {
        (
            RecorderConfig {
                max_entries: 256,
                ..RecorderConfig::default()
            },
            LiveConfig {
                refresh_events: 0,
                ..LiveConfig::default()
            },
        )
    }

    #[test]
    fn real_counter_scopes_flow_into_the_live_session() {
        let (rc, lc) = config();
        let mut s = NativeLiveSession::start(&rc, CostModel::native(), lc);
        assert_eq!(s.pid(), u64::from(std::process::id()));
        let log = s.recorder().log().clone();
        for _ in 0..4 {
            s.scope(0, "work", |m| {
                // Hold the scope open until the counter thread has
                // demonstrably advanced, so the frame has nonzero width.
                let c0 = log.counter_value();
                while log.counter_value() <= c0 {
                    std::thread::yield_now();
                }
                m.compute(10);
            });
            s.pump();
        }
        let snap = s.finish();
        assert_eq!(snap.status.events, 8, "4 balanced scopes");
        assert_eq!(snap.status.open_frames, 0);
        assert_eq!(snap.status.dropped, 0);
        let work = snap.profile.method("work").expect("symbolized by name");
        assert_eq!(work.calls, 4);
        assert!(work.inclusive > 0, "spin counter must have advanced");
    }

    #[test]
    fn nested_scopes_keep_their_shape_under_a_real_counter() {
        let (rc, lc) = config();
        let mut s = NativeLiveSession::start(&rc, CostModel::native(), lc);
        let probe = s.probe(3);
        let log = s.recorder().log().clone();
        {
            let NativeLiveSession { machine, .. } = &mut s;
            probe.scope(machine, "outer", |m| {
                probe.scope(m, "inner", |m| {
                    // Zero-width frames fold away; keep the scope open
                    // until the counter thread has advanced.
                    let c0 = log.counter_value();
                    while log.counter_value() <= c0 {
                        std::thread::yield_now();
                    }
                    m.compute(5);
                });
            });
        }
        let snap = s.finish();
        assert_eq!(snap.status.events, 4);
        assert!(snap
            .profile
            .folded
            .iter()
            .any(|(path, _)| path == &vec!["outer".to_string(), "inner".to_string()]));
    }

    #[test]
    fn names_registered_after_the_first_pump_still_symbolize() {
        let (rc, lc) = config();
        let mut s = NativeLiveSession::start(&rc, CostModel::native(), lc);
        s.scope(0, "early", |m| m.compute(1));
        s.pump();
        s.scope(0, "late", |m| m.compute(1));
        let snap = s.finish();
        assert!(snap.profile.method("early").is_some());
        assert!(snap.profile.method("late").is_some());
    }
}
