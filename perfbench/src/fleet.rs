//! The two fleet workloads: seeded logs written through
//! `FileShmWriter`, drained by `teeperfd` (or, traced, by the rebuilt
//! loop in [`crate::inproc`]) and read back over loopback HTTP.
//!
//! The load comes from this process on two threads: the main thread
//! writes the logs, a second thread talks HTTP to the daemon.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use teeperf_core::layout::LogEntry;
use teeperf_core::log::make_header;
use teeperf_core::shm_file::{log_path, publish_sidecar, sym_path, FileShmWriter, SYM_EXT};
use teeperf_live::{RingConfig, Snapshot};

use crate::gen::{Expected, Program, Rng, Shape, Stream};
use crate::inproc::{InProc, LoopResult};
use crate::stats::{median, Dist, Outcome};
use crate::trace::Tracer;
use crate::Ctx;

/// Daemon loop sleep between iterations (`--pump-ms`).
const PUMP_MS: u64 = 5;
/// Directory rescan cadence in loop iterations (`--scan-every`).
const SCAN_EVERY: u64 = 4;
/// fleet_mixed: events per second the open-loop generator publishes,
/// summed over all logs. Well under what the daemon ingests (it drains
/// the burst workload at several hundred thousand events per second).
const MIXED_RATE: f64 = 6_000.0;
/// fleet_mixed: consecutive events the generator writes into one log
/// before it moves to the next, as a process publishes its own events
/// back to back. Switching files on every event made the measured write
/// cost grow with the number of logs the seed drew (one thread cycling
/// through every file's kernel state), which no real writer pays.
const WRITE_RUN: u64 = 8;
/// fleet_mixed retention: virtual ticks per window, widest bucket.
const WINDOW_INTERVAL: u64 = 200;
const MAX_WIDTH: u64 = 8;
/// fleet_mixed retained windows, summed over all logs, and the windows
/// the prefill writes beyond that (so coarsening and eviction have
/// happened before the first timed read). Split evenly over the logs, so
/// the fleet's working set stays the same whichever log count the seed
/// draws.
const FLEET_WINDOWS: u64 = 1_400;
const FLEET_EXTRA_WINDOWS: u64 = 600;
/// The tail percentile of every fleet timing metric: each run has several
/// hundred reads, probes and `/metrics` samples, so at least ten lie
/// beyond it.
const TAIL_PCT: f64 = 95.0;
/// Call-tree nodes and distinct methods of every log. Fixed, so that
/// with the windows split evenly the retained history holds the same
/// number of aggregates whichever log count the seed draws.
const TREE_NODES: u64 = 30;
const TREE_METHODS: u64 = 20;
/// fleet_burst: each burst writes `BURST_HEAVY` events into each of two
/// heavy logs and `BURST_LIGHT` into each of 0–2 light ones. The daemon
/// drains a whole log in one source pump and every log in one registry
/// pump, so its largest batch (its peak memory) and its longest loop
/// iteration do not depend on how many logs the seed draws.
const BURST_HEAVY: u64 = 240_000;
const BURST_LIGHT: u64 = 2_000;
/// fleet_burst: mean `/healthz` probe period.
const PROBE_PERIOD_S: f64 = 0.020;
/// fleet_mixed: the reader's think time after each response, drawn from
/// 0.5 ms to 0.5 ms + one pump interval. Without it the next request
/// races the daemon's accept loop (it is served in the same loop
/// iteration or one sleep later, depending on scheduling); with it,
/// requests arrive at evenly spread phases of the daemon's loop.
const THINK_US: (u64, u64) = (500, 500 + PUMP_MS * 1000);
/// Times fleet_mixed is set up in an untraced run (setup_s is the median).
pub const MIXED_SETUP_REPEATS: usize = 5;
/// Times fleet_burst is set up in an untraced run. Its set-up (generate,
/// start `teeperfd`, read the banner) takes about a millisecond, so a
/// handful would leave setup_s at the mercy of one scheduler hiccup.
pub const BURST_SETUP_REPEATS: usize = 25;
/// Synthetic pids: the liveness probe is off, so they need no process.
const FIRST_PID: u64 = 1001;
const HTTP_TIMEOUT: Duration = Duration::from_secs(10);
const VISIBLE_TIMEOUT_S: f64 = 60.0;

/// One HTTP exchange as the client saw it. Times are seconds since the
/// run's origin; `due` is when the request was scheduled.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: &'static str,
    pub seq: u64,
    pub due: f64,
    pub start: f64,
    pub end: f64,
    pub bytes: usize,
    pub ok: bool,
}

impl Op {
    pub fn ms_from_due(&self) -> f64 {
        (self.end - self.due) * 1e3
    }
}

/// Requests sent to the current daemon, in order. Requests never overlap
/// (one client thread talks at a time), so this is also the daemon's
/// accept order, which joins client and server views in the traced run.
static SEQ: AtomicU64 = AtomicU64::new(0);

fn get(ctx: &Ctx, addr: &str, path: &str) -> (u64, f64, f64, Result<(u16, String), String>) {
    let seq = SEQ.fetch_add(1, Ordering::SeqCst);
    let start = ctx.now();
    let reply = teeperf_daemon::http::get(addr, path, HTTP_TIMEOUT).map_err(|e| e.to_string());
    (seq, start, ctx.now(), reply)
}

/// A counter line of the `/metrics` exposition (unlabelled series only).
fn counter(body: &str, key: &str) -> Option<u64> {
    body.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ')?.trim().parse().ok())
}

/// Whether `svg` is one well-formed `<svg>` element: every tag closed in
/// order, nothing after the root.
pub fn svg_well_formed(svg: &str) -> Result<(), String> {
    let text = svg.trim();
    let mut stack: Vec<&str> = Vec::new();
    let mut rest = text;
    let mut roots = 0;
    while let Some(lt) = rest.find('<') {
        if stack.is_empty() && roots > 0 {
            return Err("content after the root element".into());
        }
        rest = &rest[lt..];
        let (skip, close) = if rest.starts_with("<!--") {
            (rest.find("-->").map(|i| i + 3), None)
        } else if rest.starts_with("<?") {
            (rest.find("?>").map(|i| i + 2), None)
        } else if rest.starts_with("<!") {
            (rest.find('>').map(|i| i + 1), None)
        } else {
            (rest.find('>').map(|i| i + 1), Some(()))
        };
        let end = skip.ok_or("unterminated markup")?;
        if close.is_some() {
            let tag = &rest[1..end - 1];
            if let Some(name) = tag.strip_prefix('/') {
                match stack.pop() {
                    Some(open) if open == name.trim() => {}
                    other => return Err(format!("</{}> closes <{other:?}>", name.trim())),
                }
            } else if !tag.ends_with('/') {
                let name = tag.split_whitespace().next().ok_or("empty tag")?;
                if stack.is_empty() {
                    roots += 1;
                    if name != "svg" {
                        return Err(format!("root element is <{name}>"));
                    }
                }
                stack.push(name);
            }
        }
        rest = &rest[end..];
    }
    if roots != 1 || !stack.is_empty() {
        return Err(format!("{roots} roots, {} unclosed", stack.len()));
    }
    Ok(())
}

/// The correctness gate of one response.
fn check_body(kind: &str, status: u16, body: &str) -> Result<(), String> {
    if status != 200 {
        return Err(format!(
            "HTTP {status}: {}",
            body.lines().next().unwrap_or("")
        ));
    }
    match kind {
        "healthz" if body != "ok\n" => Err(format!("healthz body {body:?}")),
        "metrics" => counter(body, "teeperf_events_total")
            .map(|_| ())
            .ok_or_else(|| "no teeperf_events_total".to_string()),
        "query_last5" | "query_all" => {
            if !body.starts_with("[query]\n") {
                return Err("query body lacks its [query] header".into());
            }
            let rows = Snapshot::methods_from_text(body)?;
            if rows.is_empty() {
                return Err("query matched no method".into());
            }
            Ok(())
        }
        // A diff renders the comparator's table under `[diff]`, not a
        // `[methods]` section, so it is checked for its table instead.
        "query_diff" => match body.split_once("\n[diff]\n") {
            Some((_, table)) if table.lines().count() >= 2 => Ok(()),
            _ => Err("diff body has no [diff] table".into()),
        },
        "snapshot" | "pid" => {
            Snapshot::summary_from_text(body)?;
            Snapshot::methods_from_text(body).map(|_| ())
        }
        "flame" => svg_well_formed(body),
        _ => Ok(()),
    }
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `teeperfd` as its own process. Dropping it kills and reaps the child.
#[derive(Debug)]
struct ProcDaemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: Option<BufReader<ChildStdout>>,
}

impl Drop for ProcDaemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

#[derive(Debug)]
enum Backend {
    Process(ProcDaemon),
    Traced(InProc),
}

/// The daemon under test and the address it serves on.
#[derive(Debug)]
pub struct Daemon {
    backend: Backend,
    pub addr: String,
}

/// `teeperfd`'s flags for a fleet (besides `--dir` and `--listen`).
pub fn daemon_flags(retention: Option<&RingConfig>) -> Vec<String> {
    let mut flags = vec![
        "--pump-ms".to_string(),
        PUMP_MS.to_string(),
        "--scan-every".to_string(),
        SCAN_EVERY.to_string(),
        "--no-liveness-probe".to_string(),
    ];
    if let Some(r) = retention {
        for (flag, value) in [
            ("--window-interval", r.interval),
            ("--retain", r.capacity as u64),
            ("--max-width", r.max_width),
        ] {
            flags.push(flag.to_string());
            flags.push(value.to_string());
        }
    }
    flags
}

impl Daemon {
    pub fn start(ctx: &Ctx, dir: &Path, retention: Option<RingConfig>) -> Result<Daemon, String> {
        SEQ.store(0, Ordering::SeqCst);
        if ctx.args.trace {
            let d = InProc::spawn(
                dir,
                retention,
                Duration::from_millis(PUMP_MS),
                SCAN_EVERY,
                ctx.origin,
            )
            .map_err(|e| format!("start traced loop: {e}"))?;
            return Ok(Daemon {
                addr: d.addr.clone(),
                backend: Backend::Traced(d),
            });
        }
        let child = Command::new(&ctx.args.teeperfd)
            .arg("--dir")
            .arg(dir)
            .args(["--listen", "127.0.0.1:0"])
            .args(daemon_flags(retention.as_ref()))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", ctx.args.teeperfd.display()))?;
        let mut proc = ProcDaemon {
            child,
            stdin: None,
            stdout: None,
        };
        proc.stdin = proc.child.stdin.take();
        let mut stdout = BufReader::new(proc.child.stdout.take().ok_or("no daemon stdout")?);
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("read daemon banner: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("teeperfd listening on ")
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_string();
        proc.stdout = Some(stdout);
        Ok(Daemon {
            backend: Backend::Process(proc),
            addr,
        })
    }

    pub fn peak_rss_mb(&self) -> f64 {
        match &self.backend {
            Backend::Process(p) => peak_rss_mb(&p.child.id().to_string()),
            Backend::Traced(_) => peak_rss_mb("self"),
        }
    }

    /// Shut down the way a supervisor does (stdin EOF) and wait for a
    /// clean exit; the traced loop hands back its ledger.
    pub fn stop(self) -> Result<Option<LoopResult>, String> {
        match self.backend {
            Backend::Traced(d) => d.stop().map(Some),
            Backend::Process(mut p) => {
                drop(p.stdin.take());
                let deadline = Instant::now() + Duration::from_secs(30);
                let status = loop {
                    match p.child.try_wait() {
                        Ok(Some(status)) => break status,
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(5))
                        }
                        Ok(None) => return Err("teeperfd did not exit on stdin EOF".into()),
                        Err(e) => return Err(format!("wait for teeperfd: {e}")),
                    }
                };
                if let Some(mut out) = p.stdout.take() {
                    let mut rest = String::new();
                    let _ = out.read_to_string(&mut rest);
                }
                if status.success() {
                    Ok(None)
                } else {
                    Err(format!("teeperfd exited with {status}"))
                }
            }
        }
    }
}

fn fresh_dir(ctx: &Ctx, label: &str) -> Result<PathBuf, String> {
    let dir = ctx.run_dir.join(label).join("reg");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn put(w: &mut FileShmWriter, e: &LogEntry) -> Result<(), String> {
    match w.write(e) {
        Ok(Some(_)) => Ok(()),
        Ok(None) => Err(format!("{} overflowed", w.path().display())),
        Err(err) => Err(format!("write {}: {err}", w.path().display())),
    }
}

/// Register one log: the `<pid>.sym` sidecar first, then the log.
fn register(
    dir: &Path,
    pid: u64,
    program: &Program,
    capacity: u64,
) -> Result<FileShmWriter, String> {
    publish_sidecar(dir, pid, SYM_EXT, &program.debug.to_text())
        .map_err(|e| format!("publish sidecar: {e}"))?;
    FileShmWriter::create(dir, &make_header(pid, capacity, true, 0, 0))
        .map_err(|e| format!("create log: {e}"))
}

/// Close every stream (returns for open frames) and finish its log.
fn close_all(writers: &mut [FileShmWriter], streams: &mut [Stream]) -> Result<(), String> {
    for (w, s) in writers.iter_mut().zip(streams.iter_mut()) {
        for e in s.close() {
            put(w, &e)?;
        }
        w.finish().map_err(|e| format!("finish log: {e}"))?;
    }
    Ok(())
}

/// Poll `/metrics` until the daemon counts `target` events; returns when.
fn wait_visible(ctx: &Ctx, addr: &str, target: u64) -> Result<f64, String> {
    let deadline = ctx.now() + VISIBLE_TIMEOUT_S;
    loop {
        let (_, _, end, reply) = get(ctx, addr, "/metrics");
        let seen = reply
            .ok()
            .and_then(|(_, body)| counter(&body, "teeperf_events_total"));
        if seen.is_some_and(|n| n >= target) {
            return Ok(end);
        }
        if end > deadline {
            return Err(format!(
                "only {seen:?} of {target} events visible after {VISIBLE_TIMEOUT_S} s"
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The fleet's correctness gate: every offered event visible, and the
/// final merged `/snapshot` equal to the generator's own totals.
fn final_gate(ctx: &Ctx, addr: &str, expected: &Expected, out: &mut Outcome) {
    let visible = wait_visible(ctx, addr, expected.events);
    out.check(visible.is_ok(), || visible.clone().unwrap_err());
    let (_, _, _, reply) = get(ctx, addr, "/metrics");
    let metrics = reply.map(|(_, b)| b).unwrap_or_default();
    let seen = counter(&metrics, "teeperf_events_total").unwrap_or(0);
    let salvage = counter(&metrics, "teeperf_salvage_dropped");
    out.check(salvage == Some(0), || {
        format!("salvage dropped {salvage:?}")
    });
    out.extra(
        "events_lost_ratio",
        expected.events.saturating_sub(seen) as f64 / expected.events.max(1) as f64,
        "ratio",
        format!("offered {} visible {seen}", expected.events),
    );
    out.extra(
        "core.salvage_dropped",
        salvage.unwrap_or(0) as f64,
        "count",
        "SalvageReport",
    );
    let (_, _, _, reply) = get(ctx, addr, "/snapshot");
    let body = match reply {
        Ok((200, body)) => body,
        other => {
            out.check(false, || format!("final /snapshot failed: {other:?}"));
            return;
        }
    };
    let status = Snapshot::summary_from_text(&body);
    out.check(
        status
            .as_ref()
            .is_ok_and(|s| s.events == expected.events && s.dropped == 0 && s.open_frames == 0),
        || {
            format!(
                "snapshot status {status:?}, expected {} events",
                expected.events
            )
        },
    );
    let ticks = body
        .lines()
        .find_map(|l| l.strip_prefix("total_ticks "))
        .and_then(|v| v.parse::<u64>().ok());
    out.check(ticks == Some(expected.total_ticks), || {
        format!("total_ticks {ticks:?}, expected {}", expected.total_ticks)
    });
    match Snapshot::methods_from_text(&body) {
        Ok(rows) => {
            let got: std::collections::BTreeMap<String, (u64, u64, u64)> = rows
                .into_iter()
                .map(|(n, c, i, e)| (n, (c, i, e)))
                .collect();
            out.check(got == expected.methods, || {
                let bad: Vec<String> = expected
                    .methods
                    .iter()
                    .filter(|(n, v)| got.get(*n) != Some(v))
                    .map(|(n, v)| format!("{n}: got {:?} expected {v:?}", got.get(n)))
                    .take(3)
                    .collect();
                format!(
                    "methods differ ({} got, {} expected): {}",
                    got.len(),
                    expected.methods.len(),
                    bad.join("; ")
                )
            });
        }
        Err(e) => out.check(false, || format!("final snapshot methods: {e}")),
    }
}

/// Ingest lag: for each `(event index, time)` ascending, the time until
/// the first `/metrics` sample counting that many events (indices count
/// from `base`). Samples are `(time, events_total)`, ascending. Events
/// published after `horizon` are left out; one still unseen at the last
/// sample counts with its lag so far.
fn lags(
    events: impl Iterator<Item = (u64, f64)>,
    samples: &[(f64, u64)],
    base: u64,
    horizon: f64,
) -> Vec<f64> {
    let mut out = Vec::new();
    let mut k = 0;
    let last_t = samples.last().map_or(0.0, |s| s.0);
    for (idx, t) in events {
        if t > horizon {
            break;
        }
        while k < samples.len() && (samples[k].1 < base + idx + 1 || samples[k].0 < t) {
            k += 1;
        }
        let seen = samples.get(k).map_or(last_t, |s| s.0);
        out.push((seen - t).max(0.0) * 1e3);
    }
    out
}

/// What a traced fleet run adds to its outcome.
#[derive(Debug)]
pub struct FleetTrace {
    pub daemon: LoopResult,
    pub client: Tracer,
    pub writer: Tracer,
    pub write_ns: Vec<u32>,
    pub ops: Vec<Op>,
    pub window_s: f64,
}

/// `logs` seeded programs: the seed varies how many processes there
/// are, the depth and fan-out of each tree and which methods each one
/// calls, but not how big each tree is.
fn fleet(rng: &mut Rng, logs: u64) -> Vec<Program> {
    (0..logs)
        .map(|_| {
            let shape = Shape {
                depth: rng.range(4, 6),
                fanout: rng.range(3, 5),
                methods: TREE_METHODS,
                nodes: TREE_NODES,
            };
            Program::generate(rng, shape)
        })
        .collect()
}

/// fleet_mixed inputs: 4–6 logs.
pub fn mixed_programs(seed: u64) -> Vec<Program> {
    let mut rng = Rng::new(seed);
    let logs = rng.range(4, 6);
    fleet(&mut rng, logs)
}

/// fleet_mixed retention for `logs` logs: the fleet's windows split over
/// them, and always enough slots that the windows a run adds never push
/// the diff query's two windows out of fine resolution (every event
/// advances a log's clock by at most 3 ticks).
pub fn mixed_ring(seconds: f64, logs: u64) -> RingConfig {
    RingConfig {
        interval: WINDOW_INTERVAL,
        capacity: (fleet_windows(seconds) / logs) as usize,
        max_width: MAX_WIDTH,
    }
}

/// Windows retained over the whole fleet: [`FLEET_WINDOWS`], or more for
/// long runs, so that even split over the most logs every ring keeps
/// 64 slots beyond what the run adds to it.
fn fleet_windows(seconds: f64) -> u64 {
    let run_windows = (MIXED_RATE * seconds * 3.0 / WINDOW_INTERVAL as f64).ceil() as u64;
    FLEET_WINDOWS.max(run_windows + 64 * 6)
}

struct MixedFleet {
    daemon: Daemon,
    dir: PathBuf,
    writers: Vec<FileShmWriter>,
    streams: Vec<Stream>,
    prefill: u64,
    diff: (u64, u64),
}

fn setup_mixed(ctx: &Ctx, rep: usize) -> Result<MixedFleet, String> {
    let programs = mixed_programs(ctx.args.seed);
    let logs = programs.len() as u64;
    let ring = mixed_ring(ctx.args.seconds, logs);
    let dir = fresh_dir(ctx, &format!("mixed-{rep}"))?;
    let daemon = Daemon::start(ctx, &dir, Some(ring.clone()))?;
    let target_tick = (ring.capacity as u64 + FLEET_EXTRA_WINDOWS / logs) * ring.interval;
    debug_assert!(logs <= 6, "fleet_windows assumes at most 6 logs");
    let run_max =
        (MIXED_RATE * ctx.args.seconds / programs.len() as f64).ceil() as u64 + WRITE_RUN + 1;
    let mut writers = Vec::new();
    let mut streams = Vec::new();
    for (i, p) in programs.into_iter().enumerate() {
        // Every event advances the clock, so a log holds at most one
        // event per prefill tick.
        let capacity = target_tick + run_max + p.shape.depth + 64;
        writers.push(register(&dir, FIRST_PID + i as u64, &p, capacity)?);
        streams.push(Stream::new(p));
    }
    // Prefill round-robin, so no log sits silent long enough for the
    // registry's watchdog to strike it.
    loop {
        let mut wrote = false;
        for (w, s) in writers.iter_mut().zip(streams.iter_mut()) {
            for _ in 0..1024 {
                if s.tick() >= target_tick {
                    break;
                }
                put(w, &s.next_entry())?;
                wrote = true;
            }
        }
        if !wrote {
            break;
        }
    }
    let prefill: u64 = streams.iter().map(Stream::events).sum();
    wait_visible(ctx, &daemon.addr, prefill)?;
    let last = streams
        .iter()
        .map(|s| s.tick() / ring.interval)
        .min()
        .unwrap_or(0);
    Ok(MixedFleet {
        daemon,
        dir,
        writers,
        streams,
        prefill,
        diff: (last - 3, last - 2),
    })
}

/// Run set-up `reps` times (all but the last torn down again); returns
/// the last fleet and every set-up time.
fn repeated_setup<F>(
    ctx: &Ctx,
    reps: usize,
    mut setup: impl FnMut(usize) -> Result<F, String>,
    stop: impl Fn(F) -> Result<(), String>,
) -> Result<(F, Vec<f64>), String> {
    let mut times = Vec::new();
    for rep in 0..reps {
        let t = ctx.now();
        let fleet = setup(rep)?;
        times.push(ctx.now() - t);
        if rep + 1 == reps {
            return Ok((fleet, times));
        }
        stop(fleet)?;
    }
    Err("no set-up ran".into())
}

/// Closed-loop reader: one request at a time through the read mix, a
/// `/metrics` sample after each read.
fn reader(
    ctx: &Ctx,
    addr: &str,
    diff: (u64, u64),
    pids: u64,
    stop: &AtomicBool,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<Op>, Vec<(f64, u64)>, Vec<String>) {
    let mut think = Rng::new(ctx.args.seed ^ 0x7ead);
    let mix = [
        ("query_last5", "/query?windows=last:5&top=10".to_string()),
        ("query_all", "/query?windows=all".to_string()),
        ("query_diff", format!("/query?diff={},{}", diff.0, diff.1)),
        ("snapshot", "/snapshot".to_string()),
        ("flame", "/flame.svg".to_string()),
    ];
    // The sixth read of each cycle is `/pid/<n>`, rotating over the pids.
    let cycle = mix.len() as u64 + 1;
    let mut ops = Vec::new();
    let mut samples = Vec::new();
    let mut errors = Vec::new();
    let mut i = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let slot = (i % cycle) as usize;
        let (kind, path) = if slot == mix.len() {
            ("pid", format!("/pid/{}", FIRST_PID + (i / cycle) % pids))
        } else {
            (mix[slot].0, mix[slot].1.clone())
        };
        i += 1;
        for (kind, path) in [(kind, path.as_str()), ("metrics", "/metrics")] {
            std::thread::sleep(Duration::from_micros(think.range(THINK_US.0, THINK_US.1)));
            let idx = tracer
                .as_deref_mut()
                .map(|t| t.enter("client.request", SEQ.load(Ordering::SeqCst)));
            let (seq, start, end, reply) = get(ctx, addr, path);
            if let (Some(t), Some(idx)) = (tracer.as_deref_mut(), idx) {
                t.exit(idx);
            }
            let (ok, bytes) = match &reply {
                Ok((status, body)) => match check_body(kind, *status, body) {
                    Ok(()) => (true, body.len()),
                    Err(e) => {
                        errors.push(format!("{path}: {e}"));
                        (false, body.len())
                    }
                },
                Err(e) => {
                    errors.push(format!("{path}: {e}"));
                    (false, 0)
                }
            };
            if kind == "metrics" {
                if let Some(n) = reply
                    .ok()
                    .and_then(|(_, b)| counter(&b, "teeperf_events_total"))
                {
                    samples.push((end, n));
                }
            }
            ops.push(Op {
                kind,
                seq,
                due: start,
                start,
                end,
                bytes,
                ok,
            });
        }
    }
    (ops, samples, errors)
}

fn record_ops(out: &mut Outcome, ops: &[Op], errors: Vec<String>) {
    for op in ops {
        out.attempted += 1;
        if !op.ok {
            out.failed += 1;
        }
    }
    out.mismatches.extend(errors.into_iter().take(20));
}

/// fleet_mixed: open-loop writes beside closed-loop reads.
pub fn mixed(ctx: &Ctx, out: &mut Outcome) -> Result<Option<FleetTrace>, String> {
    let reps = if ctx.args.trace {
        1
    } else {
        MIXED_SETUP_REPEATS
    };
    let (mut fleet, setups) = repeated_setup(
        ctx,
        reps,
        |rep| setup_mixed(ctx, rep),
        |f| {
            f.daemon.stop()?;
            let _ = std::fs::remove_dir_all(&f.dir);
            Ok(())
        },
    )?;
    out.metric(
        "setup_s",
        median(&setups),
        "s",
        format!(
            "median of {} set-ups (generate, start daemon, prefill, ingest)",
            setups.len()
        ),
    );
    let n = fleet.streams.len() as u64;
    let pids = n;
    let addr = fleet.daemon.addr.clone();
    let seconds = ctx.args.seconds;
    let stop = AtomicBool::new(false);
    let mut client = Tracer::new("client", ctx.origin);
    let mut writer = Tracer::new("writer", ctx.origin);
    let mut write_ns = Vec::new();
    let mut lateness = Vec::new();
    let t0 = ctx.now();
    let mut published = 0u64;
    let traced = ctx.args.trace;
    let (ops, samples, errors) = std::thread::scope(|s| -> Result<_, String> {
        let client_ref = traced.then_some(&mut client);
        let reader = s.spawn(|| reader(ctx, &addr, fleet.diff, pids, &stop, client_ref));
        let result = (|| -> Result<(), String> {
            loop {
                let now = ctx.now();
                if now >= t0 + seconds {
                    return Ok(());
                }
                let due_upto = ((now - t0) * MIXED_RATE).floor() as u64 + 1;
                if published < due_upto {
                    lateness.push((now - (t0 + published as f64 / MIXED_RATE)) * 1e3);
                    let span = traced.then(|| writer.enter("bench.write_batch", published));
                    while published < due_upto {
                        let k = ((published / WRITE_RUN) % n) as usize;
                        let entry = fleet.streams[k].next_entry();
                        let tw = Instant::now();
                        put(&mut fleet.writers[k], &entry)?;
                        write_ns.push(u32::try_from(tw.elapsed().as_nanos()).unwrap_or(u32::MAX));
                        published += 1;
                    }
                    if let Some(idx) = span {
                        writer.exit(idx);
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        })();
        stop.store(true, Ordering::SeqCst);
        let read = reader
            .join()
            .map_err(|_| "reader thread panicked".to_string())?;
        result.map(|()| read)
    })?;
    let window_s = ctx.now() - t0;
    close_all(&mut fleet.writers, &mut fleet.streams)?;
    let mut expected = Expected::default();
    for s in &fleet.streams {
        expected.absorb(&s.expected());
    }
    record_ops(out, &ops, errors);
    out.attempted += published;
    final_gate(ctx, &addr, &expected, out);

    let reads: Vec<f64> = ops
        .iter()
        .filter(|o| o.kind != "metrics")
        .map(|o| (o.end - o.start) * 1e3)
        .collect();
    let read = Dist::at(&reads, TAIL_PCT);
    out.metric(
        "latency_p50_ms",
        read.p50,
        "ms",
        format!(
            "read over the mix, closed loop, 1 client, think {}–{} us (n={})",
            THINK_US.0, THINK_US.1, read.n
        ),
    );
    out.metric(
        "latency_tail_ms",
        read.tail,
        "ms",
        format!(
            "read p{} (n={}, {} beyond)",
            read.tail_pct,
            read.n,
            read.beyond()
        ),
    );
    let horizon = samples.last().map_or(t0, |s| s.0) - 0.25;
    let lag = lags(
        (0..published).map(|j| (j, t0 + j as f64 / MIXED_RATE)),
        &samples,
        fleet.prefill,
        horizon,
    );
    let lag = Dist::at(&lag, TAIL_PCT);
    out.metric("lag_p50_ms", lag.p50, "ms", format!("ingest lag from due time to first /metrics sample counting it (n={} events, {} samples)", lag.n, samples.len()));
    out.metric(
        "lag_tail_ms",
        lag.tail,
        "ms",
        format!(
            "ingest lag p{} (n={} events, {} samples, {:.0} beyond)",
            lag.tail_pct,
            lag.n,
            samples.len(),
            samples.len() as f64 * (1.0 - TAIL_PCT / 100.0)
        ),
    );
    let writes: Vec<f64> = write_ns.iter().map(|&ns| f64::from(ns)).collect();
    out.metric(
        "record_events_per_s",
        1e9 / median(&writes),
        "events/s",
        format!("1 / median FileShmWriter::write time (n={})", writes.len()),
    );
    out.metric(
        "peak_rss_mb",
        fleet.daemon.peak_rss_mb(),
        "MB",
        "teeperfd VmHWM",
    );
    let late = Dist::of(&lateness);
    out.lines.push(format!("generator: open loop {MIXED_RATE} events/s over {n} logs, {published} published in {window_s:.3} s; lateness {}", late.describe("ms")));
    out.extra("ingest_lag_p50_ms", lag.p50, "ms", format!("n={}", lag.n));
    out.extra(
        "ingest_lag_tail_ms",
        lag.tail,
        "ms",
        format!("p{} n={} samples={}", lag.tail_pct, lag.n, samples.len()),
    );
    out.extra("read_p50_ms", read.p50, "ms", format!("n={}", read.n));
    out.extra(
        "read_tail_ms",
        read.tail,
        "ms",
        format!("p{} n={}", read.tail_pct, read.n),
    );
    for kind in [
        "query_last5",
        "query_all",
        "query_diff",
        "snapshot",
        "pid",
        "flame",
        "metrics",
    ] {
        let v: Vec<f64> = ops
            .iter()
            .filter(|o| o.kind == kind)
            .map(|o| (o.end - o.start) * 1e3)
            .collect();
        out.lines
            .push(format!("  read {kind:<12} {}", Dist::of(&v).describe("ms")));
    }
    let daemon = fleet.daemon.stop()?;
    Ok(daemon.map(|d| FleetTrace {
        daemon: d,
        client,
        writer,
        write_ns,
        ops,
        window_s,
    }))
}

/// fleet_burst inputs: 2 heavy logs and 0–2 light ones.
pub fn burst_programs(seed: u64) -> Vec<Program> {
    let mut rng = Rng::new(seed ^ 0xb0b5);
    let logs = rng.range(2, 4);
    fleet(&mut rng, logs)
}

/// Open-loop `/healthz` prober, one probe every `PROBE_PERIOD_S` on
/// average (seeded uniform gaps of 0.5–1.5 periods, so probes do not
/// lock to the daemon's loop period), each followed by a `/metrics`
/// sample. While the writer waits for a burst to drain (`target` above
/// the latest sample), the gaps between probes are filled with `/metrics`
/// polls; a poll is not started within one pump interval of the next
/// probe, so polling never delays a probe.
#[allow(clippy::too_many_arguments)]
fn prober(
    ctx: &Ctx,
    addr: &str,
    t0: f64,
    stop: &AtomicBool,
    target: &AtomicU64,
    latest: &AtomicU64,
    latest_t: &AtomicU64,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<Op>, Vec<(f64, u64)>, Vec<String>) {
    let mut ops = Vec::new();
    let mut samples = Vec::new();
    let mut errors = Vec::new();
    let mut send = |kind: &'static str, path: &str, due: Option<f64>| {
        let idx = tracer
            .as_deref_mut()
            .map(|t| t.enter("client.request", SEQ.load(Ordering::SeqCst)));
        let (seq, start, end, reply) = get(ctx, addr, path);
        if let (Some(t), Some(idx)) = (tracer.as_deref_mut(), idx) {
            t.exit(idx);
        }
        let ok = match &reply {
            Ok((status, body)) => check_body(kind, *status, body)
                .map_err(|e| errors.push(format!("{path}: {e}")))
                .is_ok(),
            Err(e) => {
                errors.push(format!("{path}: {e}"));
                false
            }
        };
        if kind == "metrics" {
            if let Some(n) = reply
                .ok()
                .and_then(|(_, b)| counter(&b, "teeperf_events_total"))
            {
                samples.push((end, n));
                latest_t.store(end.to_bits(), Ordering::SeqCst);
                latest.store(n, Ordering::SeqCst);
            }
        }
        ops.push(Op {
            kind,
            seq,
            due: due.unwrap_or(start),
            start,
            end,
            bytes: 0,
            ok,
        });
    };
    let mut gaps = Rng::new(ctx.args.seed ^ 0x9a95);
    let mut due = t0;
    let guard = PUMP_MS as f64 / 1e3 + 0.001;
    while !stop.load(Ordering::SeqCst) {
        due += PROBE_PERIOD_S * gaps.range(500, 1500) as f64 / 1000.0;
        loop {
            let wait = due - ctx.now();
            if wait <= 0.0 {
                break;
            }
            let draining = latest.load(Ordering::SeqCst) < target.load(Ordering::SeqCst);
            if draining && wait > guard {
                send("metrics", "/metrics", None);
            } else {
                std::thread::sleep(Duration::from_secs_f64(wait.min(0.001)));
            }
        }
        send("healthz", "/healthz", Some(due));
        send("metrics", "/metrics", None);
    }
    (ops, samples, errors)
}

/// fleet_burst: the backlog case. Each burst is written closed-loop into
/// fresh logs kept out of the daemon's sight (a staging directory), then
/// registered all at once, so `teeperfd` finds the whole burst waiting
/// and drains it while `/healthz` is probed on schedule; the next burst
/// starts once every event is visible.
pub fn burst(ctx: &Ctx, out: &mut Outcome) -> Result<Option<FleetTrace>, String> {
    let reps = if ctx.args.trace {
        1
    } else {
        BURST_SETUP_REPEATS
    };
    let (daemon, setups) = repeated_setup(
        ctx,
        reps,
        |rep| {
            let programs = burst_programs(ctx.args.seed);
            let dir = fresh_dir(ctx, &format!("burst-{rep}"))?;
            let daemon = Daemon::start(ctx, &dir, None)?;
            Ok((daemon, programs, dir))
        },
        |(d, _, dir)| {
            d.stop()?;
            let _ = std::fs::remove_dir_all(dir);
            Ok(())
        },
    )?;
    let (daemon, programs, dir) = daemon;
    out.metric(
        "setup_s",
        median(&setups),
        "s",
        format!(
            "median of {} set-ups (generate, start daemon)",
            setups.len()
        ),
    );
    let stage = dir.with_file_name("stage");
    std::fs::create_dir_all(&stage).map_err(|e| format!("create staging dir: {e}"))?;
    let n = programs.len() as u64;
    let shares: Vec<u64> = (0..n)
        .map(|k| if k < 2 { BURST_HEAVY } else { BURST_LIGHT })
        .collect();
    let events: u64 = shares.iter().sum();
    let addr = daemon.addr.clone();
    let seconds = ctx.args.seconds;
    let traced = ctx.args.trace;
    let stop = AtomicBool::new(false);
    let target = AtomicU64::new(0);
    let latest = AtomicU64::new(0);
    let latest_t = AtomicU64::new(0f64.to_bits());
    let mut client = Tracer::new("client", ctx.origin);
    let mut writer = Tracer::new("writer", ctx.origin);
    let mut write_ns = Vec::new();
    let mut expected = Expected::default();
    let mut rates = Vec::new();
    let mut drains = Vec::new();
    let mut offered = 0u64;
    let t0 = ctx.now();
    let (ops, samples, errors) = std::thread::scope(|s| -> Result<_, String> {
        let client_ref = traced.then_some(&mut client);
        let probe = s.spawn(|| {
            prober(
                ctx, &addr, t0, &stop, &target, &latest, &latest_t, client_ref,
            )
        });
        let result = (|| -> Result<(), String> {
            let mut round = 0u64;
            let mut last_round = 0.0;
            while round == 0 || ctx.now() + last_round <= t0 + seconds {
                let round_start = ctx.now();
                let pids: Vec<u64> = (0..n).map(|i| FIRST_PID + round * n + i).collect();
                let mut writers = Vec::new();
                let mut streams = Vec::new();
                for ((p, pid), share) in programs.iter().zip(&pids).zip(&shares) {
                    let header = make_header(*pid, share + p.shape.depth + 64, true, 0, 0);
                    let w = FileShmWriter::create(&stage, &header)
                        .map_err(|e| format!("create log: {e}"))?;
                    writers.push(w);
                    streams.push(Stream::new(p.clone()));
                }
                let span = traced.then(|| writer.enter("bench.burst", round));
                let tb = ctx.now();
                // Interleaved like concurrent processes: each step writes
                // one event to every log that still has some to write.
                for i in 0..BURST_HEAVY {
                    for k in (0..n as usize).filter(|&k| i < shares[k]) {
                        let entry = streams[k].next_entry();
                        if traced {
                            let tw = Instant::now();
                            put(&mut writers[k], &entry)?;
                            write_ns
                                .push(u32::try_from(tw.elapsed().as_nanos()).unwrap_or(u32::MAX));
                        } else {
                            put(&mut writers[k], &entry)?;
                        }
                    }
                }
                let te = ctx.now();
                if let Some(idx) = span {
                    writer.exit(idx);
                }
                rates.push(events as f64 / (te - tb));
                close_all(&mut writers, &mut streams)?;
                for s in &streams {
                    offered += s.events();
                    expected.absorb(&s.expected());
                }
                // Register the finished burst: sidecars first, then the
                // logs, each an atomic rename into the watched directory.
                for (p, pid) in programs.iter().zip(&pids) {
                    publish_sidecar(&dir, *pid, SYM_EXT, &p.debug.to_text())
                        .map_err(|e| format!("publish sidecar: {e}"))?;
                }
                let registered = ctx.now();
                for pid in &pids {
                    std::fs::rename(log_path(&stage, *pid), log_path(&dir, *pid))
                        .map_err(|e| format!("register log: {e}"))?;
                }
                target.store(offered, Ordering::SeqCst);
                let visible = loop {
                    if latest.load(Ordering::SeqCst) >= offered {
                        break f64::from_bits(latest_t.load(Ordering::SeqCst));
                    }
                    if ctx.now() - registered > VISIBLE_TIMEOUT_S {
                        return Err(format!(
                            "burst {round}: events not visible after {VISIBLE_TIMEOUT_S} s"
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                };
                drains.push(visible - registered);
                for pid in &pids {
                    let _ = std::fs::remove_file(log_path(&dir, *pid));
                    let _ = std::fs::remove_file(sym_path(&dir, *pid));
                }
                last_round = ctx.now() - round_start;
                round += 1;
            }
            Ok(())
        })();
        stop.store(true, Ordering::SeqCst);
        let probed = probe
            .join()
            .map_err(|_| "probe thread panicked".to_string())?;
        result.map(|()| probed)
    })?;
    let window_s = ctx.now() - t0;
    record_ops(out, &ops, errors);
    out.attempted += offered;
    final_gate(ctx, &addr, &expected, out);

    let probes: Vec<f64> = ops
        .iter()
        .filter(|o| o.kind == "healthz")
        .map(Op::ms_from_due)
        .collect();
    let health = Dist::at(&probes, TAIL_PCT);
    out.metric(
        "latency_p50_ms",
        health.p50,
        "ms",
        format!(
            "/healthz from due time, open loop every {} ms on average (n={})",
            PROBE_PERIOD_S * 1e3,
            health.n
        ),
    );
    out.metric(
        "latency_tail_ms",
        health.tail,
        "ms",
        format!(
            "/healthz p{} (n={}, {} beyond)",
            health.tail_pct,
            health.n,
            health.beyond()
        ),
    );
    // Every event of a burst becomes visible with the pump that drains
    // its log, so the lag of a burst is its drain time.
    let drain_ms: Vec<f64> = drains.iter().map(|d| d * 1e3).collect();
    let lag = Dist::at(&drain_ms, 100.0);
    out.metric(
        "lag_p50_ms",
        lag.p50,
        "ms",
        format!(
            "drain_s: registration to every event visible, median burst (n={})",
            lag.n
        ),
    );
    out.metric(
        "lag_tail_ms",
        lag.tail,
        "ms",
        format!("slowest drain (n={})", lag.n),
    );
    out.metric(
        "record_events_per_s",
        median(&rates),
        "events/s",
        format!(
            "writer_events_per_s: median over {} bursts of {} events",
            rates.len(),
            events
        ),
    );
    out.metric("peak_rss_mb", daemon.peak_rss_mb(), "MB", "teeperfd VmHWM");
    let drain = Dist::of(&drains);
    out.extra(
        "healthz_p50_ms",
        health.p50,
        "ms",
        format!("n={}", health.n),
    );
    out.extra(
        "healthz_tail_ms",
        health.tail,
        "ms",
        format!("p{} n={}", health.tail_pct, health.n),
    );
    out.extra(
        "writer_events_per_s",
        median(&rates),
        "events/s",
        format!("n={}", rates.len()),
    );
    out.extra(
        "drain_s",
        drain.p50,
        "s",
        format!("median, n={} bursts, max {:.4} s", drain.n, drain.max),
    );
    let late: Vec<f64> = ops
        .iter()
        .filter(|o| o.kind == "healthz")
        .map(|o| (o.start - o.due) * 1e3)
        .collect();
    out.lines.push(format!(
        "burst: {} rounds × {events} events over {} logs in {window_s:.3} s; \
         {} /metrics samples; probe lateness {}",
        rates.len(),
        n,
        samples.len(),
        Dist::of(&late).describe("ms")
    ));
    let ledger = daemon.stop()?;
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&stage);
    Ok(ledger.map(|d| FleetTrace {
        daemon: d,
        client,
        writer,
        write_ns,
        ops,
        window_s,
    }))
}
