//! The traced run's daemon: `teeperfd`'s loop rebuilt from the crates'
//! public parts, so every layer it calls can be timed from outside.
//!
//! `teeperf_daemon::Daemon` keeps its registry private, so its loop cannot
//! be timed as it stands. This loop follows `Daemon::run`'s order — scan
//! the directory (`FileShmSource::open` and `SessionRegistry::attach` for
//! each new log), serve every pending connection through
//! `teeperf_daemon::route`, pump the registry, sleep — and records a span
//! around each of those calls. `/metrics` here reports only the counters
//! the benchmark reads (the daemon's own exposition needs its private
//! state); every other endpoint is the crate's routing over the same
//! registry calls the daemon makes.

use std::collections::BTreeSet;
use std::fs::File;
use std::io;
use std::net::TcpListener;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mcvm::DebugInfo;
use teeperf_analyzer::symbolize::Symbolizer;
use teeperf_analyzer::{WindowSel, WindowSpec};
use teeperf_core::layout::OFF_TAIL;
use teeperf_core::shm_file::{sym_path, DEFAULT_HOLE_PUMPS, LOG_EXT};
use teeperf_core::{EventSource, FileShmSource, Regime, SalvageReport, SourceBatch};
use teeperf_daemon::http::{self, Request};
use teeperf_daemon::{route, SnapshotService};
use teeperf_flamegraph::SvgOptions;
use teeperf_live::{
    LiveConfig, RingConfig, SessionEvent, SessionRegistry, Snapshot, WatchdogConfig,
};

use crate::trace::Tracer;

type Shared<T> = Arc<Mutex<T>>;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("a benchmark thread panicked while tracing")
}

/// Time `f` as a span of the shared recorder, holding the lock only to
/// open and close the span (the call itself may record child spans).
fn span<T>(tracer: &Mutex<Tracer>, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
    let idx = lock(tracer).enter(name, id);
    let out = f();
    lock(tracer).exit(idx);
    out
}

/// What the timed sources saw across all pumps.
#[derive(Debug, Default)]
pub struct SourceStats {
    /// (pump duration ns, entries) of every `FileShmSource` pump.
    pub pumps: Vec<(u64, u64)>,
    /// Most entries published but not yet drained, seen at any pump.
    pub backlog_max: u64,
}

/// A [`FileShmSource`] whose pumps are timed, the way the daemon's
/// `LivenessProbe` wraps a source.
#[derive(Debug)]
struct TimedSource {
    inner: FileShmSource,
    /// Second handle on the log, to read the writer's tail word.
    file: File,
    drained: u64,
    tracer: Shared<Tracer>,
    stats: Shared<SourceStats>,
}

impl TimedSource {
    fn timed(&mut self, to_end: bool) -> SourceBatch {
        let mut word = [0u8; 8];
        let published = match self.file.read_at(&mut word, OFF_TAIL) {
            Ok(8) => u64::from_le_bytes(word).min(self.inner.capacity()),
            _ => self.drained,
        };
        let start = Instant::now();
        let batch = span(&self.tracer, "core.source_pump", self.inner.pid(), || {
            if to_end {
                self.inner.drain_to_end()
            } else {
                self.inner.pump()
            }
        });
        let ns = start.elapsed().as_nanos() as u64;
        let n = batch.entries.len() as u64;
        let mut stats = lock(&self.stats);
        stats.backlog_max = stats
            .backlog_max
            .max(published.saturating_sub(self.drained));
        stats.pumps.push((ns, n));
        self.drained += n;
        batch
    }
}

impl EventSource for TimedSource {
    fn pid(&self) -> u64 {
        self.inner.pid()
    }
    fn pump(&mut self) -> SourceBatch {
        self.timed(false)
    }
    fn drain_to_end(&mut self) -> SourceBatch {
        self.timed(true)
    }
    fn dropped_total(&self) -> u64 {
        self.inner.dropped_total()
    }
    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
    fn is_exhausted(&self) -> bool {
        self.inner.is_exhausted()
    }
    fn salvage(&self) -> SalvageReport {
        self.inner.salvage()
    }
    fn is_dead(&self) -> bool {
        self.inner.is_dead()
    }
    fn set_regime(&mut self, regime: Regime) -> bool {
        self.inner.set_regime(regime)
    }
    fn regime(&self) -> Option<Regime> {
        self.inner.regime()
    }
    fn take_regime_fault(&mut self) -> bool {
        self.inner.take_regime_fault()
    }
    fn occupancy_pct(&self) -> Option<u8> {
        self.inner.occupancy_pct()
    }
}

/// The benchmark-owned [`SnapshotService`] over the loop's registry: the
/// same registry calls `Daemon` makes, each one timed.
struct Service {
    registry: SessionRegistry,
    tracer: Shared<Tracer>,
    /// Id of the request being served (span ids).
    request: u64,
}

impl SnapshotService for Service {
    fn merged(&mut self) -> Snapshot {
        let reg = &mut self.registry;
        span(&self.tracer, "live.merged_snapshot", self.request, || {
            reg.merged_snapshot()
        })
    }

    fn pid_snapshot(&mut self, pid: u64) -> Option<Snapshot> {
        let reg = &mut self.registry;
        span(&self.tracer, "live.snapshot_pid", self.request, || {
            reg.snapshot_pid(pid)
        })
    }

    fn metrics_text(&mut self) -> String {
        let reg = &self.registry;
        span(&self.tracer, "live.metrics", self.request, || {
            format!(
                "teeperf_events_total {}\nteeperf_dropped_total {}\nteeperf_salvage_dropped {}\n",
                reg.events(),
                reg.dropped(),
                reg.salvage().dropped
            )
        })
    }

    fn query_text(&mut self, spec: &str) -> Result<Option<String>, String> {
        let spec = span(&self.tracer, "analyzer.spec_parse", self.request, || {
            WindowSpec::parse(spec)
        })?;
        let name = match (spec.diff, &spec.sel) {
            (Some(_), _) => "live.query.diff",
            (None, WindowSel::All) => "live.query.all",
            (None, WindowSel::Last(_)) => "live.query.last",
            (None, WindowSel::Range(..)) => "live.query.range",
        };
        let reg = &self.registry;
        Ok(span(&self.tracer, name, self.request, || {
            reg.query_text(&spec)
        }))
    }

    fn flame_svg(&mut self, pid: Option<u64>) -> Option<String> {
        match pid {
            Some(p) => {
                let snap = self.pid_snapshot(p)?;
                Some(span(
                    &self.tracer,
                    "flamegraph.live_svg",
                    self.request,
                    || {
                        teeperf_flamegraph::live::render_svg(
                            &snap.profile.folded,
                            &snap.status,
                            &SvgOptions::default().with_title(format!("teeperfd pid {p}")),
                        )
                    },
                ))
            }
            None => {
                let reg = &mut self.registry;
                Some(span(&self.tracer, "live.svg", self.request, || {
                    reg.render_svg(&SvgOptions::default().with_title("teeperfd merged"))
                }))
            }
        }
    }
}

/// Server-side cost of one request, by accept order.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub id: u64,
    pub read_ns: u64,
    pub route_ns: u64,
    pub write_ns: u64,
}

/// What the loop hands back when it stops.
#[derive(Debug)]
pub struct LoopResult {
    pub tracer: Tracer,
    pub sources: SourceStats,
    pub served: Vec<Served>,
    /// (registry pump ns, entries) per loop.
    pub pumps: Vec<(u64, u64)>,
    pub ring_windows: u64,
    pub ring_coarsened: u64,
    pub ring_evicted: u64,
    pub salvage_dropped: u64,
}

/// The running loop.
#[derive(Debug)]
pub struct InProc {
    pub addr: String,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<io::Result<LoopResult>>,
}

impl InProc {
    /// Bind the listener and start the loop on its own thread.
    pub fn spawn(
        dir: &Path,
        retention: Option<RingConfig>,
        pump_interval: Duration,
        scan_every: u64,
        origin: Instant,
    ) -> io::Result<InProc> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?.to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let dir = dir.to_path_buf();
        let handle = std::thread::Builder::new()
            .name("traced-daemon".into())
            .spawn(move || {
                run_loop(
                    &dir,
                    listener,
                    retention,
                    pump_interval,
                    scan_every,
                    origin,
                    &flag,
                )
            })?;
        Ok(InProc { addr, stop, handle })
    }

    /// Stop after the current iteration and collect the loop's ledger.
    pub fn stop(self) -> Result<LoopResult, String> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .map_err(|_| "traced daemon loop panicked".to_string())?
            .map_err(|e| format!("traced daemon loop: {e}"))
    }
}

fn route_span(path: &str) -> &'static str {
    match path {
        "/healthz" => "daemon.route.healthz",
        "/snapshot" => "daemon.route.snapshot",
        "/metrics" => "daemon.route.metrics",
        "/query" => "daemon.route.query",
        "/flame.svg" => "daemon.route.flame",
        p if p.starts_with("/pid/") => "daemon.route.pid",
        _ => "daemon.route.other",
    }
}

/// New `<pid>.tplog` files in `dir`, ascending.
fn new_logs(dir: &Path, seen: &BTreeSet<u64>) -> Vec<(u64, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut found: Vec<(u64, PathBuf)> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(LOG_EXT))
        .filter_map(|p| {
            let pid = p.file_stem()?.to_str()?.parse::<u64>().ok()?;
            (!seen.contains(&pid)).then_some((pid, p))
        })
        .collect();
    found.sort();
    found
}

fn run_loop(
    dir: &Path,
    listener: TcpListener,
    retention: Option<RingConfig>,
    pump_interval: Duration,
    scan_every: u64,
    origin: Instant,
    stop: &AtomicBool,
) -> io::Result<LoopResult> {
    let tracer = Arc::new(Mutex::new(Tracer::new("daemon", origin)));
    let stats = Arc::new(Mutex::new(SourceStats::default()));
    let live = LiveConfig {
        retention,
        ..LiveConfig::default()
    };
    let mut service = Service {
        registry: SessionRegistry::new(live).with_watchdog(WatchdogConfig::default()),
        tracer: Arc::clone(&tracer),
        request: 0,
    };
    let mut seen = BTreeSet::new();
    let mut served = Vec::new();
    let mut pumps = Vec::new();
    let mut next_request = 0u64;
    let mut loops = 0u64;
    while !stop.load(Ordering::SeqCst) {
        if loops.is_multiple_of(scan_every) {
            let idx = lock(&tracer).enter("daemon.scan", loops);
            for (pid, path) in new_logs(dir, &seen) {
                let source = span(&tracer, "core.open", pid, || FileShmSource::open(&path));
                let (Ok(source), Ok(file)) = (source, File::open(&path)) else {
                    continue;
                };
                let debug = std::fs::read_to_string(sym_path(dir, pid))
                    .ok()
                    .and_then(|text| DebugInfo::from_text(&text))
                    .unwrap_or_default();
                let timed = TimedSource {
                    inner: source.with_hole_pumps(DEFAULT_HOLE_PUMPS),
                    file,
                    drained: 0,
                    tracer: Arc::clone(&tracer),
                    stats: Arc::clone(&stats),
                };
                let reg = &mut service.registry;
                let attached = span(&tracer, "live.attach", pid, || {
                    reg.attach(Box::new(timed), Symbolizer::without_relocation(debug))
                });
                if attached.is_ok() {
                    seen.insert(pid);
                }
            }
            lock(&tracer).exit(idx);
        }
        loops += 1;
        // Serve every pending connection, as `Daemon::serve_pending` does.
        loop {
            let (mut stream, _) = match listener.accept() {
                Ok(conn) => conn,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            };
            let id = next_request;
            next_request += 1;
            service.request = id;
            let _ = stream.set_nonblocking(false);
            let _ = stream.set_read_timeout(Some(Duration::from_millis(2_000)));
            let _ = stream.set_write_timeout(Some(Duration::from_millis(2_000)));
            let outer = lock(&tracer).enter("daemon.request", id);
            let t = Instant::now();
            let req: io::Result<Request> = span(&tracer, "daemon.http_read", id, || {
                http::read_request(&mut stream)
            });
            let read_ns = t.elapsed().as_nanos() as u64;
            if let Ok(req) = req {
                let t = Instant::now();
                let (response, _) = span(&tracer, route_span(req.path()), id, || {
                    route(&mut service, &req)
                });
                let route_ns = t.elapsed().as_nanos() as u64;
                let t = Instant::now();
                let _ = span(&tracer, "daemon.http_write", id, || {
                    response.write_to(&mut stream)
                });
                served.push(Served {
                    id,
                    read_ns,
                    route_ns,
                    write_ns: t.elapsed().as_nanos() as u64,
                });
            }
            lock(&tracer).exit(outer);
        }
        let t = Instant::now();
        let reg = &mut service.registry;
        let n = span(&tracer, "live.pump", loops, || reg.pump());
        pumps.push((t.elapsed().as_nanos() as u64, n as u64));
        std::thread::sleep(pump_interval);
    }
    let registry = &mut service.registry;
    registry.pump();
    let ring_windows = registry
        .windows()
        .iter()
        .map(|w| w.windows.len() as u64)
        .sum();
    let events = registry.merged_snapshot().events;
    let count = |f: fn(&SessionEvent) -> bool| events.iter().filter(|e| f(e)).count() as u64;
    let ring_coarsened = count(|e| matches!(e, SessionEvent::WindowsCoarsened { .. }));
    let ring_evicted = count(|e| matches!(e, SessionEvent::WindowsEvicted { .. }));
    let salvage_dropped = registry.salvage().dropped;
    drop(service);
    let tracer = Arc::try_unwrap(tracer)
        .map_err(|_| io::Error::other("tracer still shared"))?
        .into_inner()
        .map_err(|_| io::Error::other("tracer poisoned"))?;
    let sources = std::mem::take(&mut *lock(&stats));
    Ok(LoopResult {
        tracer,
        sources,
        served,
        pumps,
        ring_windows,
        ring_coarsened,
        ring_evicted,
        salvage_dropped,
    })
}
