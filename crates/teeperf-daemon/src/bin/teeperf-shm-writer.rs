//! `teeperf-shm-writer` — a scripted writer process for the file-backed
//! transport. The e2e tests and the CI smoke stage spawn several of these
//! as real OS child processes; each registers `<pid>.tplog` (+ `<pid>.sym`)
//! in the shared directory and publishes a deterministic `main → work →
//! leaf` call tree through [`FileShmWriter`]'s publish-by-tail discipline:
//! each event is one slot write followed by one tail write, so the daemon
//! never reads a slot before it is whole.
//!
//! ```text
//! teeperf-shm-writer --dir DIR [--pid N] [--iterations N] [--capacity N]
//!                    [--interval-ms N] [--hold] [--no-finish] [--no-sym]
//! ```
//!
//! `--hold` keeps the process alive (log ACTIVE, nothing more published)
//! until it is killed — the scripted stand-in for a writer that crashes or
//! hangs, which the daemon's liveness machinery must quarantine.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use mcvm::DebugInfo;
use teeperf_core::layout::{EventKind, LogEntry};
use teeperf_core::log::make_header;
use teeperf_core::shm_file::{publish_sidecar, FileShmWriter, SYM_EXT};

struct Args {
    dir: PathBuf,
    pid: u64,
    iterations: u64,
    capacity: u64,
    interval: Duration,
    hold: bool,
    finish: bool,
    sym: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        dir: PathBuf::new(),
        pid: u64::from(std::process::id()),
        iterations: 10,
        capacity: 4096,
        interval: Duration::ZERO,
        hold: false,
        finish: true,
        sym: true,
    };
    let mut it = args.iter();
    let mut have_dir = false;
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number"))
        };
        match flag.as_str() {
            "--dir" => {
                out.dir = PathBuf::from(value()?);
                have_dir = true;
            }
            "--pid" => out.pid = number(value()?)?,
            "--iterations" => out.iterations = number(value()?)?,
            "--capacity" => out.capacity = number(value()?)?,
            "--interval-ms" => out.interval = Duration::from_millis(number(value()?)?),
            "--hold" => out.hold = true,
            "--no-finish" => out.finish = false,
            "--no-sym" => out.sym = false,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !have_dir {
        return Err("--dir is required".to_string());
    }
    Ok(out)
}

/// The fixed synthetic workload: `main` calls `work` once per iteration,
/// `work` calls `leaf`. Tick layout per iteration: `work` spans 10 ticks
/// inclusive of `leaf`'s 4, plus 2 of `main`'s own between calls — 12 per
/// iteration — and `main`'s final bookend tick, so per-pid totals are
/// exactly predictable: `total_ticks = 12 * iterations + 1`.
fn run(args: &Args) -> Result<(), String> {
    let debug = DebugInfo::from_functions([("main", 4, 1), ("work", 4, 5), ("leaf", 4, 9)]);
    if args.sym {
        publish_sidecar(&args.dir, args.pid, SYM_EXT, &debug.to_text())
            .map_err(|e| format!("publish sidecar: {e}"))?;
    }
    let header = make_header(args.pid, args.capacity, true, 0, 0);
    let mut w =
        FileShmWriter::create(&args.dir, &header).map_err(|e| format!("create log: {e}"))?;
    let (main_a, work_a, leaf_a) = (
        debug.entry_addr(0),
        debug.entry_addr(1),
        debug.entry_addr(2),
    );
    let mut write = |kind: EventKind, counter: u64, addr: u64| {
        w.write(&LogEntry {
            kind,
            counter,
            addr,
            tid: 0,
        })
        .map(|_| ())
        .map_err(|e| format!("write: {e}"))
    };
    let mut t = 1;
    write(EventKind::Call, t, main_a)?;
    for _ in 0..args.iterations {
        t += 1;
        write(EventKind::Call, t, work_a)?;
        t += 3;
        write(EventKind::Call, t, leaf_a)?;
        t += 4;
        write(EventKind::Return, t, leaf_a)?;
        t += 3;
        write(EventKind::Return, t, work_a)?;
        t += 1;
        if !args.interval.is_zero() {
            std::thread::sleep(args.interval);
        }
    }
    t += 1;
    write(EventKind::Return, t, main_a)?;
    if args.hold {
        // Stay alive with the log still ACTIVE until killed: the scripted
        // crashed/hung writer. (Sleep-loop, not park: no wakeups wanted.)
        loop {
            std::thread::sleep(Duration::from_millis(200));
        }
    }
    if args.finish {
        w.finish().map_err(|e| format!("finish: {e}"))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(message) => {
            eprintln!("teeperf-shm-writer: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => {
            println!("teeperf-shm-writer: pid {} done", args.pid);
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("teeperf-shm-writer: {message}");
            ExitCode::from(1)
        }
    }
}
