//! # teeperf-live — continuous profiling on top of the TEE-Perf pipeline
//!
//! The paper's pipeline is batch: record the whole run into one shared log,
//! stop, then analyze. That caps a session at the log's capacity — once the
//! tail passes `size`, every further event is dropped. This crate turns the
//! pipeline into a *streaming* one, so a session can run indefinitely over
//! a fixed-size log:
//!
//! * [`session`] — the [`LiveSession`]: one [`teeperf_core::EventSource`]
//!   drained into a rolling profile and the live flame renderer on a
//!   refresh cadence. For a shared log the source is a
//!   [`teeperf_core::LiveLogSource`] consuming it concurrently with the
//!   writers, using the persistent read cursor and epoch-rotation protocol
//!   of `teeperf_core::log` (writers announce themselves on the control
//!   word; the drain quiesces them only for the bounded rotation window).
//!   Overflow is accounted explicitly, never a silent stop.
//! * [`rolling`] — an incremental analyzer: per-thread
//!   [`teeperf_analyzer::stacks::ResumableStacks`] carry open frames across
//!   epochs, and completed calls merge into rolling per-method, folded-stack
//!   and caller-edge aggregates whose memory does not grow with the stream.
//! * [`snapshot`] — serializable freezes of the rolling profile.
//! * [`driver`] — [`live_profile_processes`]: run an instrumented Mini-C
//!   program as N simulated processes with the rotation-aware hooks while
//!   one fixed-cadence instruction observer pumps their registry (the
//!   deterministic, in-process equivalent of a host drainer thread).
//!   [`live_profile_program`] is the one-process run behind the
//!   `teeperf live` CLI subcommand.
//! * [`registry`] — the multi-process layer: a [`SessionRegistry`] keys
//!   one session per [`teeperf_core::EventSource`] by the pid in its log
//!   header, and merges the per-pid rolling profiles into a cross-process
//!   view whose totals are exactly the per-pid sums. Sessions attach and
//!   detach hot, and an optional liveness watchdog quarantines sources
//!   whose producer crashed — their prior contribution stays in the merge.
//! * [`native`] — [`NativeLiveSession`]: continuous profiling of native
//!   Rust workloads under a *real* spin-counter thread, through the same
//!   session machinery.
//! * [`window`] — windowed retention: a [`RetentionRing`] of per-interval
//!   aggregates over the virtual clock with time-decayed coarsening, one
//!   ring per session (so one noisy pid cannot age out another's
//!   history), queried through the `teeperf_analyzer::query::windowed`
//!   spec — the time-travel layer behind `/windows`, `/query` and
//!   `teeperf query`.
//!
//! Sessions may also carry an [`OverheadBudget`]: a per-session fidelity
//! controller reads the drain's backpressure signals and walks the regime
//! ladder `Full → Sampled(1/N) → Quiescent` (publishing each shift through
//! the log's regime word so writer-side gates throttle at the source),
//! bias-correcting sampled windows so profiles report *estimated* totals
//! with a stated confidence instead of silently undercounting.

#![forbid(unsafe_code)]

pub mod driver;
pub mod native;
pub mod registry;
pub mod rolling;
pub mod session;
pub mod snapshot;
pub mod window;

pub use driver::{
    live_profile_processes, live_profile_program, LiveRun, LiveRunConfig, MultiLiveError,
    MultiLiveRun,
};
pub use native::NativeLiveSession;
pub use registry::{AttachError, RegistryRun, SessionRegistry, WatchdogConfig};
pub use rolling::RollingProfile;
pub use session::{LiveConfig, LiveSession, OverheadBudget};
pub use snapshot::{RegimeInfo, SessionEvent, Snapshot};
pub use window::{
    windows_from_text, windows_to_text, PidWindows, RetentionRing, RingConfig, RingEvent,
    WindowMeta, WindowSel,
};
