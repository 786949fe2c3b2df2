//! Command implementations, kept pure enough to unit-test: every command
//! returns the text it would print.

use std::fmt::Write as _;

use mcvm::{DebugInfo, RunConfig};
use tee_sim::{CostModel, TeeKind, TransitionMode};
use teeperf_analyzer::symbolize::Symbolizer;
use teeperf_analyzer::Analyzer;
use teeperf_compiler::{compile_instrumented, profile_program, run_native, InstrumentOptions};
use teeperf_core::{EventSource, FileReplaySource, LogFile, RecorderConfig};
use teeperf_flamegraph::{FlameGraph, SvgOptions};
use teeperf_live::{LiveConfig, RingConfig, SessionRegistry, Snapshot};

/// A CLI failure with a user-facing message and a process exit code.
#[derive(Debug)]
pub struct CliError {
    /// What went wrong, user-facing.
    pub message: String,
    /// Exit code for the process: 1 for usage and pipeline errors, 2 when
    /// a named input path does not exist or cannot be read/parsed — so
    /// scripts can tell "bad invocation" from "bad file" without grepping
    /// stderr.
    pub code: u8,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError {
        message: msg.into(),
        code: 1,
    }
}

/// A per-path failure: the message always leads with the offending path,
/// and the process exits with code 2.
fn path_err(path: &str, e: impl std::fmt::Display) -> CliError {
    CliError {
        message: format!("{path}: {e}"),
        code: 2,
    }
}

const USAGE: &str = "usage:
  teeperf compile <prog.mc> [--out <prog.tpo>] [--instrument yes|no] [--only <fn,fn>]
  teeperf run <prog.mc|prog.tpo> [--arch <kind>] [--transition-mode classic|switchless]
  teeperf record <prog.mc|prog.tpo> [--arch <kind>] [--out <base>] [--max-entries <n>] [--pid <n>]
                 [--batch-slots <n>] [--transition-mode classic|switchless]
  teeperf live <prog.mc|prog.tpo> [--arch <kind>] [--max-entries <n>] [--watermark <pct>]
               [--refresh <events>] [--frames yes|no] [--svg <file>] [--out <base>]
               [--analyzer-threads <n>] [--follow-pids <n>] [--batch-slots <n>]
               [--transition-mode classic|switchless]
               [--window-interval <ticks>] [--retain <n>] [--max-width <n>]
               [--overhead-budget <pct>]
  teeperf live --logs <a,b,c> [--watchdog-timeout <pumps>]
               [--svg <file>] [--out <base>] [--window-interval <ticks>] [--retain <n>]
  teeperf analyze <base.tpf> <base.sym> [--salvage yes|no] [--analyzer-threads <n>]
  teeperf query <base.tpf> <base.sym> <query> [--analyzer-threads <n>]
  teeperf query --connect <addr> [windows | <clause> ...]
  teeperf flamegraph <base.tpf> <base.sym> [--svg <file>] [--title <t>] [--analyzer-threads <n>]
  teeperf diff <a.tpf> <a.sym> <b.tpf> <b.sym> [--svg <file>] [--analyzer-threads <n>]
  teeperf phoenix [--bench <name>] [--arch <kind>]
  teeperf daemon [--dir <d>] [--listen <addr>] [--snapshot-out <file>] [--pump-ms <n>]
                 [--scan-every <n>] [--max-loops <n>] [--liveness yes|no]
                 [--window-interval <ticks>] [--retain <n>] [--overhead-budget <pct>]
  teeperf top --connect <addr> [--iterations <n>] [--interval-ms <n>] [--window <n>]
  teeperf archs

architectures: native, sgx-v1, sgx-v2, trustzone, sev, keystone
query example: \"select method, calls, excl where excl > 100 sort excl desc limit 10\"
--analyzer-threads: analysis worker shards; 0 or omitted = all available cores
--batch-slots n: log slots claimed per shared tail fetch-and-add (1 = classic hot path)
--transition-mode switchless: service ecalls/ocalls via a worker mailbox, no world switch
--follow-pids n: run the program as n simulated processes under one session registry
--logs a,b,c: replay recorded logs (<base>.tpf + <base>.sym) as one multi-process session
--salvage yes: keep the valid records of a torn/truncated log instead of rejecting it
--watchdog-timeout n: quarantine a source after n progress-free pumps (with backoff retries)
daemon: watch a registration directory of <pid>.tplog shared logs and serve
        /snapshot /pid/<n> /flame.svg /metrics /healthz over HTTP (see teeperfd)
top:    poll a daemon's /snapshot and render the method table, diffed against
        the previous poll (--iterations 0 = until interrupted); --window n
        renders the newest n retained windows from /query instead
--window-interval/--retain/--max-width: keep a retention ring of per-interval
        window profiles over the virtual clock (oldest pairs coarsen, then evict)
--overhead-budget pct: cap tolerated stream loss; a per-session controller
        degrades fidelity full -> sampled 1/N -> quiescent under pressure and
        recovers, with sampled totals bias-corrected and tagged `estimated`
query --connect: time-travel queries against a daemon's retention rings.
        clauses: windows=all|last:<n>|<a>..=<b>  pid=<n>  method=<substr>
        tid=<n>  top=<n>  by=self|total|calls  diff=<a>,<b>
        the single word `windows` fetches the /windows listing instead
";

/// Minimal flag parser: positional args plus `--flag value` pairs.
struct Args<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    fn parse(args: &'a [String]) -> Result<Args<'a>, CliError> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            if let Some(name) = a.strip_prefix("--") {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| err(format!("flag --{name} needs a value")))?;
                flags.push((name, value.as_str()));
                i += 2;
            } else {
                positional.push(a);
                i += 1;
            }
        }
        Ok(Args { positional, flags })
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    fn arch(&self) -> Result<CostModel, CliError> {
        let name = self.flag("arch").unwrap_or("sgx-v1");
        let cost = TeeKind::parse(name)
            .map(CostModel::for_kind)
            .ok_or_else(|| err(format!("unknown architecture `{name}`")))?;
        let mode = self.flag("transition-mode").unwrap_or("classic");
        let mode = TransitionMode::parse(mode).ok_or_else(|| {
            err(format!(
                "unknown transition mode `{mode}` (want classic|switchless)"
            ))
        })?;
        Ok(cost.with_transition_mode(mode))
    }

    /// `--batch-slots N`: log slots claimed per shared tail fetch-and-add
    /// by the recording hooks; 1 (the default) is the classic path.
    fn batch_slots(&self) -> Result<u64, CliError> {
        match self.flag("batch-slots") {
            Some(v) => v
                .parse()
                .ok()
                .filter(|b| *b >= 1)
                .ok_or_else(|| err(format!("bad --batch-slots `{v}` (want >= 1)"))),
            None => Ok(1),
        }
    }

    /// `--analyzer-threads N`: analysis shard count, where 0 (the default)
    /// means one shard per available core.
    fn analyzer_threads(&self) -> Result<usize, CliError> {
        match self.flag("analyzer-threads") {
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("bad --analyzer-threads `{v}`"))),
            None => Ok(0),
        }
    }
}

/// Entry point used by `main` and by the tests.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Ok(USAGE.to_string());
    };
    let rest = Args::parse(&args[1..])?;
    match command.as_str() {
        "compile" => cmd_compile(&rest),
        "run" => cmd_run(&rest),
        "record" => cmd_record(&rest),
        "live" => cmd_live(&rest),
        "analyze" => cmd_analyze(&rest),
        "query" => cmd_query(&rest),
        "flamegraph" => cmd_flamegraph(&rest),
        "diff" => cmd_diff(&rest),
        "phoenix" => cmd_phoenix(&rest),
        "daemon" => cmd_daemon(&rest),
        "top" => cmd_top(&rest),
        "archs" => Ok(TeeKind::ALL
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join("\n")
            + "\n"),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(err(format!("unknown command `{other}`\n\n{USAGE}"))),
    }
}

fn read_source(args: &Args<'_>) -> Result<(String, String), CliError> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| err(format!("missing program path\n\n{USAGE}")))?;
    let source = std::fs::read_to_string(path).map_err(|e| path_err(path, e))?;
    Ok(((*path).to_string(), source))
}

/// Load a program from either Mini-C source (`.mc`, compiled on the fly,
/// uninstrumented) or a prebuilt object file (`.tpo`, possibly
/// instrumented by `teeperf compile`).
fn load_program(path: &str, instrument_sources: bool) -> Result<mcvm::CompiledProgram, CliError> {
    if path.ends_with(".tpo") {
        let bytes = std::fs::read(path).map_err(|e| path_err(path, e))?;
        return mcvm::objfile::from_bytes(&bytes).map_err(|e| path_err(path, e));
    }
    let source = std::fs::read_to_string(path).map_err(|e| path_err(path, e))?;
    if instrument_sources {
        compile_instrumented(&source, &InstrumentOptions::default()).map_err(|e| err(e.to_string()))
    } else {
        mcvm::compile(&source).map_err(|e| err(e.to_string()))
    }
}

fn cmd_compile(args: &Args<'_>) -> Result<String, CliError> {
    let (path, source) = read_source(args)?;
    let instrument = args.flag("instrument").unwrap_or("yes") == "yes";
    let program = if instrument {
        let options = match args.flag("only") {
            Some(names) => InstrumentOptions {
                filter: Some(teeperf_compiler::NameFilter::include(names.split(','))),
            },
            None => InstrumentOptions::default(),
        };
        compile_instrumented(&source, &options).map_err(|e| err(e.to_string()))?
    } else {
        mcvm::compile(&source).map_err(|e| err(e.to_string()))?
    };
    let out = args
        .flag("out")
        .map(str::to_string)
        .unwrap_or_else(|| format!("{}.tpo", path.trim_end_matches(".mc")));
    std::fs::write(&out, mcvm::objfile::to_bytes(&program))
        .map_err(|e| err(format!("{out}: {e}")))?;
    let hooks = program
        .functions
        .iter()
        .flat_map(|f| &f.code)
        .filter(|i| i.is_hook())
        .count();
    Ok(format!(
        "compiled {} functions ({} instructions, {hooks} hooks) -> {out}\n",
        program.functions.len(),
        program.instruction_count(),
    ))
}

fn cmd_run(args: &Args<'_>) -> Result<String, CliError> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| err(format!("missing program path\n\n{USAGE}")))?;
    let cost = args.arch()?;
    let kind = cost.kind;
    let program = load_program(path, false)?;
    let run = run_native(program, cost, RunConfig::default(), |_| Ok(()))
        .map_err(|e| err(e.to_string()))?;
    let mut out = String::new();
    for line in &run.output {
        writeln!(out, "{line}").expect("writing to string");
    }
    writeln!(out, "exit code: {}", run.exit_code).expect("writing to string");
    writeln!(
        out,
        "{} cycles on {kind} ({} instructions)",
        run.cycles, run.instructions
    )
    .expect("writing to string");
    Ok(out)
}

fn cmd_record(args: &Args<'_>) -> Result<String, CliError> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| err(format!("missing program path\n\n{USAGE}")))?
        .to_string();
    let cost = args.arch()?;
    let kind = cost.kind;
    let base = args.flag("out").map(str::to_string).unwrap_or_else(|| {
        path.trim_end_matches(".mc")
            .trim_end_matches(".tpo")
            .to_string()
    });
    let max_entries: u64 = match args.flag("max-entries") {
        Some(v) => v
            .parse()
            .map_err(|_| err(format!("bad --max-entries `{v}`")))?,
        None => 1 << 20,
    };
    // The header is stamped with the recording process's real pid unless
    // overridden (simulated multi-process recordings need distinct pids).
    let pid: u64 = match args.flag("pid") {
        Some(v) => v
            .parse()
            .ok()
            .filter(|p| *p != 0)
            .ok_or_else(|| err(format!("bad --pid `{v}` (want a nonzero integer)")))?,
        None => RecorderConfig::default().pid,
    };
    let program = load_program(&path, true)?;
    let run = profile_program(
        program,
        cost,
        RunConfig::default(),
        &RecorderConfig {
            max_entries,
            pid,
            batch_slots: args.batch_slots()?,
            ..RecorderConfig::default()
        },
        |_| Ok(()),
    )
    .map_err(|e| err(e.to_string()))?;

    let log_path = format!("{base}.tpf");
    let sym_path = format!("{base}.sym");
    run.log
        .save(&log_path)
        .map_err(|e| err(format!("{log_path}: {e}")))?;
    std::fs::write(&sym_path, run.debug.to_text()).map_err(|e| err(format!("{sym_path}: {e}")))?;

    let mut out = String::new();
    for line in &run.output {
        writeln!(out, "{line}").expect("writing to string");
    }
    writeln!(out, "exit code: {}", run.exit_code).expect("writing to string");
    writeln!(
        out,
        "recorded {} events in {} cycles on {kind}",
        run.log.entries.len(),
        run.cycles
    )
    .expect("writing to string");
    writeln!(out, "log:     {log_path}").expect("writing to string");
    writeln!(out, "symbols: {sym_path}").expect("writing to string");
    Ok(out)
}

/// `--max-entries` for live sessions. Live mode exists to run unbounded
/// sessions over a *small* log, so the default capacity is three orders of
/// magnitude below `record`'s.
fn live_max_entries(args: &Args<'_>) -> Result<u64, CliError> {
    match args.flag("max-entries") {
        Some(v) => v
            .parse()
            .map_err(|_| err(format!("bad --max-entries `{v}`"))),
        None => Ok(1 << 10),
    }
}

fn live_watermark(args: &Args<'_>) -> Result<u8, CliError> {
    match args.flag("watermark") {
        Some(v) => v
            .parse()
            .ok()
            .filter(|p| (1..=99).contains(p))
            .ok_or_else(|| err(format!("bad --watermark `{v}` (want 1..=99)"))),
        None => Ok(teeperf_core::DEFAULT_WATERMARK_PCT),
    }
}

/// `--window-interval` / `--retain` / `--max-width`: windowed retention for
/// live sessions. `None` (no flag given) keeps the all-time view only.
fn live_retention(args: &Args<'_>) -> Result<Option<RingConfig>, CliError> {
    let mut ring: Option<RingConfig> = None;
    if let Some(v) = args.flag("window-interval") {
        let ticks: u64 = v
            .parse()
            .ok()
            .filter(|t| *t >= 1)
            .ok_or_else(|| err(format!("bad --window-interval `{v}` (want ticks >= 1)")))?;
        ring.get_or_insert_with(RingConfig::default).interval = ticks;
    }
    if let Some(v) = args.flag("retain") {
        let n: usize = v
            .parse()
            .ok()
            .filter(|n| *n >= 1)
            .ok_or_else(|| err(format!("bad --retain `{v}` (want >= 1)")))?;
        ring.get_or_insert_with(RingConfig::default).capacity = n;
    }
    if let Some(v) = args.flag("max-width") {
        let n: u64 = v
            .parse()
            .ok()
            .filter(|n| *n >= 1)
            .ok_or_else(|| err(format!("bad --max-width `{v}` (want >= 1)")))?;
        ring.get_or_insert_with(RingConfig::default).max_width = n;
    }
    Ok(ring)
}

/// `--overhead-budget`: tolerated stream loss in percent; arms the
/// per-session fidelity controller. `None` (no flag) pins full fidelity.
fn live_budget(args: &Args<'_>) -> Result<Option<teeperf_live::OverheadBudget>, CliError> {
    match args.flag("overhead-budget") {
        None => Ok(None),
        Some(v) => {
            let pct: u8 = v
                .parse()
                .ok()
                .filter(|p| (1..=100).contains(p))
                .ok_or_else(|| err(format!("bad --overhead-budget `{v}` (want 1..=100)")))?;
            Ok(Some(teeperf_live::OverheadBudget { pct }))
        }
    }
}

fn cmd_live(args: &Args<'_>) -> Result<String, CliError> {
    if let Some(logs) = args.flag("logs") {
        return cmd_live_logs(args, logs);
    }
    if let Some(n) = args.flag("follow-pids") {
        return cmd_live_follow(args, n);
    }
    let path = args
        .positional
        .first()
        .ok_or_else(|| err(format!("missing program path\n\n{USAGE}")))?;
    let cost = args.arch()?;
    let kind = cost.kind;
    let max_entries = live_max_entries(args)?;
    let watermark_pct = live_watermark(args)?;
    let refresh_events: u64 = match args.flag("refresh") {
        Some(v) => v.parse().map_err(|_| err(format!("bad --refresh `{v}`")))?,
        None => 2_000,
    };
    let show_frames = args.flag("frames").unwrap_or("no") == "yes";

    let program = load_program(path, true)?;
    let run = teeperf_live::live_profile_program(
        program,
        cost,
        RunConfig::default(),
        &RecorderConfig {
            max_entries,
            batch_slots: args.batch_slots()?,
            ..RecorderConfig::default()
        },
        &teeperf_live::LiveRunConfig {
            live: teeperf_live::LiveConfig {
                refresh_events,
                // 0 keeps the session default (sequential epoch merging;
                // pumps are frequent and batches small).
                analyzer_shards: args.analyzer_threads()?.max(1),
                retention: live_retention(args)?,
                budget: live_budget(args)?,
                ..teeperf_live::LiveConfig::default()
            },
            watermark_pct,
            ..teeperf_live::LiveRunConfig::default()
        },
        |_| Ok(()),
    )
    .map_err(|e| err(e.to_string()))?;

    let mut out = String::new();
    if show_frames {
        for (i, frame) in run.frames.iter().enumerate() {
            writeln!(out, "--- refresh {} ---", i + 1).expect("writing to string");
            out.push_str(frame);
            out.push('\n');
        }
    }
    for line in &run.output {
        writeln!(out, "{line}").expect("writing to string");
    }
    writeln!(out, "exit code: {}", run.exit_code).expect("writing to string");
    writeln!(
        out,
        "live session on {kind}: {} events over {} epochs ({} entries/epoch), {} dropped, {} cycles",
        run.events, run.epochs, max_entries, run.dropped, run.cycles
    )
    .expect("writing to string");
    out.push_str(&run.snapshot.status.banner());
    out.push('\n');
    let fg = FlameGraph::from_folded_ids(
        &run.snapshot.profile.symbols,
        &run.snapshot.profile.folded_ids,
    );
    out.push_str(&fg.to_ascii(60));
    if let Some(svg_path) = args.flag("svg") {
        let svg = teeperf_flamegraph::live::render_svg(
            &run.snapshot.profile.folded,
            &run.snapshot.status,
            &SvgOptions::default().with_title("TEE-Perf live session"),
        );
        std::fs::write(svg_path, svg).map_err(|e| err(format!("{svg_path}: {e}")))?;
        writeln!(out, "wrote {svg_path}").expect("writing to string");
    }
    if let Some(base) = args.flag("out") {
        let snap_path = format!("{base}.live");
        std::fs::write(&snap_path, run.snapshot.to_text())
            .map_err(|e| err(format!("{snap_path}: {e}")))?;
        writeln!(out, "wrote {snap_path}").expect("writing to string");
    }
    Ok(out)
}

/// Shared tail of the multi-process live commands: per-pid banners, the
/// merged per-process flame view, and the optional `--svg` / `--out` files
/// (the `.live` file carries the *merged* snapshot, `[processes]` section
/// included).
fn multi_session_output(
    out: &mut String,
    per_pid: &std::collections::BTreeMap<u64, Snapshot>,
    merged: &Snapshot,
    args: &Args<'_>,
) -> Result<(), CliError> {
    for (pid, snap) in per_pid {
        writeln!(out, "pid {pid}: {}", snap.status.banner()).expect("writing to string");
    }
    let parts: Vec<teeperf_flamegraph::PidFolded> = per_pid
        .iter()
        .map(|(pid, s)| (*pid, s.profile.folded.as_slice()))
        .collect();
    out.push_str(&teeperf_flamegraph::live::render_ascii_multi(
        &parts,
        &merged.status,
        60,
    ));
    if let Some(svg_path) = args.flag("svg") {
        let svg = teeperf_flamegraph::live::render_svg_multi(
            &parts,
            &merged.status,
            &SvgOptions::default().with_title("TEE-Perf multi-process live session"),
        );
        std::fs::write(svg_path, svg).map_err(|e| err(format!("{svg_path}: {e}")))?;
        writeln!(out, "wrote {svg_path}").expect("writing to string");
    }
    if let Some(base) = args.flag("out") {
        let snap_path = format!("{base}.live");
        std::fs::write(&snap_path, merged.to_text())
            .map_err(|e| err(format!("{snap_path}: {e}")))?;
        writeln!(out, "wrote {snap_path}").expect("writing to string");
    }
    Ok(())
}

/// `teeperf live <prog> --follow-pids <n>`: run the program as `n`
/// simulated processes (pids from the real host pid upward) under one
/// session registry.
fn cmd_live_follow(args: &Args<'_>, count: &str) -> Result<String, CliError> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| err(format!("missing program path\n\n{USAGE}")))?;
    let count: u64 = count
        .parse()
        .ok()
        .filter(|c| (1..=64).contains(c))
        .ok_or_else(|| err(format!("bad --follow-pids `{count}` (want 1..=64)")))?;
    let cost = args.arch()?;
    let kind = cost.kind;
    let max_entries = live_max_entries(args)?;
    let watermark_pct = live_watermark(args)?;
    let program = load_program(path, true)?;
    let base_pid = u64::from(std::process::id());
    let pids: Vec<u64> = (0..count).map(|i| base_pid + i).collect();
    let run = teeperf_live::live_profile_processes(
        &program,
        &cost,
        &RunConfig::default(),
        &RecorderConfig {
            max_entries,
            batch_slots: args.batch_slots()?,
            ..RecorderConfig::default()
        },
        &teeperf_live::LiveRunConfig {
            live: LiveConfig {
                refresh_events: 0,
                analyzer_shards: args.analyzer_threads()?.max(1),
                retention: live_retention(args)?,
                budget: live_budget(args)?,
                ..LiveConfig::default()
            },
            watermark_pct,
            ..teeperf_live::LiveRunConfig::default()
        },
        &pids,
    )
    .map_err(|e| err(e.to_string()))?;
    let mut out = String::new();
    writeln!(
        out,
        "{count} simulated processes on {kind} (pids {base_pid}..={}): {} events, {} dropped",
        base_pid + count - 1,
        run.events,
        run.dropped
    )
    .expect("writing to string");
    multi_session_output(&mut out, &run.per_pid, &run.merged, args)?;
    Ok(out)
}

/// `teeperf live --logs a,b,c`: replay recorded logs (each `<base>.tpf`
/// with its `<base>.sym`) through the live pipeline as one multi-process
/// session, keyed by the pids in the log headers.
///
/// Every unreadable or malformed path is reported (one message per path)
/// before the command gives up with exit code 2 — a typo in one of ten
/// bases names the typo instead of panicking on the first open.
fn cmd_live_logs(args: &Args<'_>, logs: &str) -> Result<String, CliError> {
    if args.flag("watermark").is_some() {
        // A replay has no live log behind it, so nothing ever rotates.
        return Err(CliError {
            message: "--watermark has no effect with --logs: replayed logs never rotate"
                .to_string(),
            code: 2,
        });
    }
    let mut registry = SessionRegistry::new(LiveConfig {
        refresh_events: 0,
        analyzer_shards: args.analyzer_threads()?.max(1),
        retention: live_retention(args)?,
        ..LiveConfig::default()
    });
    if let Some(v) = args.flag("watchdog-timeout") {
        let timeout_pumps: u64 = v
            .parse()
            .ok()
            .filter(|t| *t > 0)
            .ok_or_else(|| err(format!("bad --watchdog-timeout `{v}` (want pumps >= 1)")))?;
        registry = registry.with_watchdog(teeperf_live::WatchdogConfig {
            timeout_pumps,
            ..teeperf_live::WatchdogConfig::default()
        });
    }
    let bases: Vec<&str> = logs
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if bases.is_empty() {
        return Err(err(format!("--logs needs at least one <base>\n\n{USAGE}")));
    }
    // Validate every path before attaching anything: all failures are
    // reported together, each on its own line.
    let mut loaded = Vec::new();
    let mut bad: Vec<String> = Vec::new();
    for base in &bases {
        let base = base.trim_end_matches(".tpf");
        let log_path = format!("{base}.tpf");
        let sym_path = format!("{base}.sym");
        let log = match LogFile::load(&log_path) {
            Ok(log) => Some(log),
            Err(e) => {
                bad.push(format!("{log_path}: {e}"));
                None
            }
        };
        let debug = match std::fs::read_to_string(&sym_path) {
            Ok(text) => match DebugInfo::from_text(&text) {
                Some(debug) => Some(debug),
                None => {
                    bad.push(format!("{sym_path}: malformed symbol file"));
                    None
                }
            },
            Err(e) => {
                bad.push(format!("{sym_path}: {e}"));
                None
            }
        };
        if let (Some(log), Some(debug)) = (log, debug) {
            loaded.push((log_path, log, debug));
        }
    }
    if !bad.is_empty() {
        return Err(CliError {
            message: bad.join("\n"),
            code: 2,
        });
    }
    let mut out = String::new();
    for (log_path, log, debug) in loaded {
        let symbolizer = Symbolizer::new(debug, &log.header);
        let mut source = FileReplaySource::new(&log);
        // Several files recorded by the same process collide on the header
        // pid; remap to the next free pid and say so rather than refusing.
        let original = source.pid();
        let taken = registry.pids();
        let mut pid = original.max(1);
        while taken.contains(&pid) {
            pid += 1;
        }
        if pid != original {
            source = source.with_pid(pid);
            writeln!(
                out,
                "note: {log_path} reports pid {original}; replaying as pid {pid}"
            )
            .expect("writing to string");
        }
        registry
            .attach(Box::new(source), symbolizer)
            .map_err(|e| err(e.to_string()))?;
    }
    while registry.pump() > 0 {}
    for w in registry.windows() {
        writeln!(
            out,
            "pid {}: retained {} windows of {} ticks ({} evicted)",
            w.pid,
            w.windows.len(),
            w.interval,
            w.evicted_windows
        )
        .expect("writing to string");
    }
    let salvage = registry.salvage();
    let run = registry.finish();
    writeln!(
        out,
        "replayed {} logs: {} events, {} dropped",
        bases.len(),
        run.merged.status.events,
        run.merged.status.dropped
    )
    .expect("writing to string");
    if !salvage.is_clean() {
        writeln!(out, "{}", salvage.to_line()).expect("writing to string");
    }
    multi_session_output(&mut out, &run.per_pid, &run.merged, args)?;
    Ok(out)
}

/// Load `<base.tpf> <base.sym>` for the offline commands. With
/// `--salvage yes` a torn or truncated log is read through the salvage
/// path instead of rejected, and the accounting report is returned for the
/// caller to print.
fn load_log_and_symbols(
    args: &Args<'_>,
) -> Result<(LogFile, DebugInfo, Option<teeperf_core::SalvageReport>), CliError> {
    let log_path = args
        .positional
        .first()
        .ok_or_else(|| err(format!("missing log path\n\n{USAGE}")))?;
    let sym_path = args
        .positional
        .get(1)
        .ok_or_else(|| err(format!("missing symbol path\n\n{USAGE}")))?;
    let salvage = args.flag("salvage").unwrap_or("no") == "yes";
    let (log, report) = if salvage {
        let (log, report) = LogFile::load_salvage(log_path).map_err(|e| path_err(log_path, e))?;
        (log, Some(report))
    } else {
        (
            LogFile::load(log_path).map_err(|e| path_err(log_path, e))?,
            None,
        )
    };
    let sym_text = std::fs::read_to_string(sym_path).map_err(|e| path_err(sym_path, e))?;
    let debug = DebugInfo::from_text(&sym_text)
        .ok_or_else(|| path_err(sym_path, "malformed symbol file"))?;
    Ok((log, debug, report))
}

fn cmd_analyze(args: &Args<'_>) -> Result<String, CliError> {
    let (log, debug, salvage) = load_log_and_symbols(args)?;
    let analyzer = Analyzer::new(log, debug)
        .map_err(|e| err(e.to_string()))?
        .with_analyzer_threads(args.analyzer_threads()?);
    let mut out = String::new();
    if let Some(report) = salvage {
        writeln!(out, "{}", report.to_line()).expect("writing to string");
    }
    out.push_str(&analyzer.report());
    Ok(out)
}

/// `teeperf query --connect <addr> [clauses...]`: time-travel queries
/// against a running daemon's retention rings. Clause tokens are joined
/// with `&` into the `/query` query string — the spec grammar is the same
/// word on the shell and on the wire — and the single word `windows`
/// fetches the `/windows` listing instead.
fn cmd_query_connect(args: &Args<'_>, addr: &str) -> Result<String, CliError> {
    let path = if args.positional.is_empty() || args.positional == ["windows"] {
        "/windows".to_string()
    } else {
        format!("/query?{}", args.positional.join("&"))
    };
    let (status, body) = teeperf_daemon::http::get(addr, &path, std::time::Duration::from_secs(5))
        .map_err(|e| err(format!("{addr}: {e}")))?;
    if status != 200 {
        return Err(err(format!(
            "{addr}: {path} returned {status}: {}",
            body.trim()
        )));
    }
    Ok(body)
}

fn cmd_query(args: &Args<'_>) -> Result<String, CliError> {
    if let Some(addr) = args.flag("connect") {
        return cmd_query_connect(args, addr);
    }
    let (log, debug, _) = load_log_and_symbols(args)?;
    let query = args
        .positional
        .get(2)
        .ok_or_else(|| err(format!("missing query string\n\n{USAGE}")))?;
    let analyzer = Analyzer::new(log, debug)
        .map_err(|e| err(e.to_string()))?
        .with_analyzer_threads(args.analyzer_threads()?);
    // Queries mentioning per-event columns go to the event frame; method
    // queries to the method frame.
    let frame = if query.contains("kind")
        || query.contains("counter")
        || query.contains("seq")
        || query.contains("tid")
    {
        analyzer.events_frame()
    } else {
        analyzer.methods_frame()
    };
    let result = teeperf_analyzer::run_query(&frame, query).map_err(|e| err(e.to_string()))?;
    Ok(result.to_table())
}

fn cmd_flamegraph(args: &Args<'_>) -> Result<String, CliError> {
    let (log, debug, _) = load_log_and_symbols(args)?;
    let analyzer = Analyzer::new(log, debug)
        .map_err(|e| err(e.to_string()))?
        .with_analyzer_threads(args.analyzer_threads()?);
    let profile = analyzer.profile();
    let fg = FlameGraph::from_folded_ids(&profile.symbols, &profile.folded_ids);
    let mut out = String::new();
    if let Some(svg_path) = args.flag("svg") {
        let title = args.flag("title").unwrap_or("TEE-Perf Flame Graph");
        let svg = fg.to_svg(&SvgOptions::default().with_title(title));
        std::fs::write(svg_path, svg).map_err(|e| err(format!("{svg_path}: {e}")))?;
        writeln!(out, "wrote {svg_path}").expect("writing to string");
    } else {
        out.push_str(&fg.to_ascii(60));
    }
    Ok(out)
}

fn cmd_diff(args: &Args<'_>) -> Result<String, CliError> {
    if args.positional.len() != 4 {
        return Err(err(format!(
            "diff needs <a.tpf> <a.sym> <b.tpf> <b.sym>\n\n{USAGE}"
        )));
    }
    let threads = args.analyzer_threads()?;
    let load = |log_path: &str, sym_path: &str| -> Result<Analyzer, CliError> {
        let log = LogFile::load(log_path).map_err(|e| path_err(log_path, e))?;
        let sym_text = std::fs::read_to_string(sym_path).map_err(|e| path_err(sym_path, e))?;
        let debug = DebugInfo::from_text(&sym_text)
            .ok_or_else(|| path_err(sym_path, "malformed symbol file"))?;
        Ok(Analyzer::new(log, debug)
            .map_err(|e| err(e.to_string()))?
            .with_analyzer_threads(threads))
    };
    let a = load(args.positional[0], args.positional[1])?.profile();
    let b = load(args.positional[2], args.positional[3])?.profile();
    let d = teeperf_analyzer::diff(&a, &b);
    let mut out = String::from(
        "profile diff (delta_pct = b - a in exclusive-time share; negative = improved)\n\n",
    );
    out.push_str(&d.to_table());
    if let Some(svg_path) = args.flag("svg") {
        let before = FlameGraph::from_folded_ids(&a.symbols, &a.folded_ids);
        let after = FlameGraph::from_folded_ids(&b.symbols, &b.folded_ids);
        let svg = after.to_diff_svg(
            &before,
            &SvgOptions::default()
                .with_title("Differential flame graph (b vs a)")
                .with_subtitle("red = share grew, blue = share shrank"),
        );
        std::fs::write(svg_path, svg).map_err(|e| err(format!("{svg_path}: {e}")))?;
        out.push_str(&format!("\nwrote differential flame graph: {svg_path}\n"));
    }
    Ok(out)
}

fn cmd_phoenix(args: &Args<'_>) -> Result<String, CliError> {
    let cost = args.arch()?;
    let kind = cost.kind;
    let only = args.flag("bench");
    let mut out = format!("phoenix suite on {kind} (small scale)\n");
    let mut matched = false;
    for b in phoenix::suite(phoenix::Scale::Small, 42) {
        if let Some(name) = only {
            if b.name() != name {
                continue;
            }
        }
        matched = true;
        let vm = phoenix::run_and_verify(b.as_ref(), cost.clone()).map_err(err)?;
        writeln!(
            out,
            "{:20} ok   {:>12} cycles  {:>10} instructions",
            b.name(),
            vm.machine().clock().now(),
            vm.executed_instructions()
        )
        .expect("writing to string");
    }
    if !matched {
        return Err(err(format!(
            "no benchmark named `{}`",
            only.unwrap_or_default()
        )));
    }
    Ok(out)
}

/// `teeperf daemon`: run a fleet profiling daemon in the foreground (the
/// same engine as the `teeperfd` binary). Blocks until `GET /shutdown` or
/// stdin EOF, then returns the closing report.
fn cmd_daemon(args: &Args<'_>) -> Result<String, CliError> {
    let mut config = teeperf_daemon::DaemonConfig::default();
    if let Some(dir) = args.flag("dir") {
        config.dir = std::path::PathBuf::from(dir);
    }
    if let Some(listen) = args.flag("listen") {
        config.listen = listen.to_string();
    }
    if let Some(out) = args.flag("snapshot-out") {
        config.snapshot_out = Some(std::path::PathBuf::from(out));
    }
    if let Some(v) = args.flag("pump-ms") {
        let ms: u64 = v.parse().map_err(|_| err(format!("bad --pump-ms `{v}`")))?;
        config.pump_interval = std::time::Duration::from_millis(ms);
    }
    if let Some(v) = args.flag("scan-every") {
        config.scan_every = v
            .parse()
            .ok()
            .filter(|n| *n >= 1)
            .ok_or_else(|| err(format!("bad --scan-every `{v}` (want >= 1)")))?;
    }
    if let Some(v) = args.flag("max-loops") {
        config.max_loops = Some(
            v.parse()
                .map_err(|_| err(format!("bad --max-loops `{v}`")))?,
        );
    }
    config.retention = live_retention(args)?;
    config.budget = live_budget(args)?;
    let daemon = teeperf_daemon::Daemon::new(config.clone())
        .map_err(|e| err(format!("failed to start daemon: {e}")))?;
    let daemon = if args.flag("liveness").unwrap_or("yes") == "yes" {
        daemon
    } else {
        daemon.without_liveness_probe()
    };
    // The daemon blocks; announce the bound address before entering the
    // loop so callers can connect (the one place a command prints early).
    println!("teeperf daemon listening on {}", daemon.addr());
    println!("teeperf daemon watching {}", config.dir.display());
    let _ = std::io::Write::flush(&mut std::io::stdout());
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut sink = [0u8; 256];
        let mut stdin = std::io::stdin();
        loop {
            match std::io::Read::read(&mut stdin, &mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => continue,
            }
        }
        let _ = tx.send("stdin closed".to_string());
    });
    let report = daemon.run(&rx).map_err(|e| err(format!("daemon: {e}")))?;
    Ok(report.summary())
}

/// A parsed `[methods]` row: name, calls, inclusive ticks, exclusive ticks.
type MethodRow = (String, u64, u64, u64);

/// One rendered `teeperf top` frame: the live counters plus the method
/// table sorted by exclusive ticks, each row diffed against the previous
/// poll. Pure — the wire text in, the frame text out — so the rendering is
/// unit-testable without a daemon.
fn top_frame(
    poll: u64,
    text: &str,
    prev: &[MethodRow],
) -> Result<(String, Vec<MethodRow>), String> {
    let status = Snapshot::summary_from_text(text)?;
    let rows = sorted_method_rows(text)?;
    // Degraded fidelity is never silent: a daemon running under an
    // overhead budget reports its regime, and the badge carries it into
    // every frame header next to the counters it qualifies.
    let badge = match Snapshot::regime_from_text(text)? {
        None => String::new(),
        Some(info) => format!(" [{} \u{00b7} {}]", info.regime, info.confidence()),
    };
    let mut out = format!("--- poll {poll}: {}{badge}\n", status.banner());
    out.push_str(&method_table(&rows, prev));
    Ok((out, rows))
}

/// One rendered `teeperf top --window <n>` frame: a `/query` body for the
/// newest `n` windows re-rendered as the same rolling table. The `[methods]`
/// rows of a query response share the snapshot wire shape, so the windowed
/// frame reuses the snapshot parser; the banner is the span lines the
/// daemon reported instead of the whole-session counters.
fn top_window_frame(
    poll: u64,
    window: u64,
    text: &str,
    prev: &[MethodRow],
) -> Result<(String, Vec<MethodRow>), String> {
    let rows = sorted_method_rows(text)?;
    let spans: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("pid ") && l.contains(" span "))
        .collect();
    let mut out = format!(
        "--- poll {poll}: last {window} windows ({})\n",
        if spans.is_empty() {
            "no spans".to_string()
        } else {
            spans.join("; ")
        }
    );
    out.push_str(&method_table(&rows, prev));
    Ok((out, rows))
}

fn sorted_method_rows(text: &str) -> Result<Vec<MethodRow>, String> {
    let mut rows = Snapshot::methods_from_text(text)?;
    rows.sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
    Ok(rows)
}

/// The shared table body of both `top` frame renderers: rows sorted by
/// exclusive ticks, each diffed against the previous poll's rows.
fn method_table(rows: &[MethodRow], prev: &[MethodRow]) -> String {
    let mut out = format!(
        "{:<24} {:>8} {:>10} {:>10} {:>10}\n",
        "method", "calls", "incl", "excl", "excl+"
    );
    for (name, calls, incl, excl) in rows {
        let before = prev
            .iter()
            .find(|(n, _, _, _)| n == name)
            .map_or(0, |(_, _, _, e)| *e);
        let delta = excl.saturating_sub(before);
        out.push_str(&format!(
            "{name:<24} {calls:>8} {incl:>10} {excl:>10} {:>10}\n",
            if delta > 0 {
                format!("+{delta}")
            } else {
                "·".to_string()
            }
        ));
    }
    out
}

/// `teeperf top --connect <addr>`: poll a running daemon's `/snapshot` and
/// render it as a rolling method table. The client consumes nothing but
/// the stable snapshot text format — the same bytes a human can curl — so
/// the text format is the wire contract, not an implementation detail.
fn cmd_top(args: &Args<'_>) -> Result<String, CliError> {
    let addr = args
        .flag("connect")
        .ok_or_else(|| err(format!("top needs --connect <addr>\n\n{USAGE}")))?;
    let iterations: u64 = match args.flag("iterations") {
        Some(v) => v
            .parse()
            .map_err(|_| err(format!("bad --iterations `{v}`")))?,
        None => 0, // forever
    };
    let interval = match args.flag("interval-ms") {
        Some(v) => std::time::Duration::from_millis(
            v.parse()
                .map_err(|_| err(format!("bad --interval-ms `{v}`")))?,
        ),
        None => std::time::Duration::from_millis(1_000),
    };
    let window: Option<u64> = match args.flag("window") {
        Some(v) => Some(
            v.parse()
                .ok()
                .filter(|n| *n >= 1)
                .ok_or_else(|| err(format!("bad --window `{v}` (want >= 1)")))?,
        ),
        None => None,
    };
    let path = match window {
        Some(w) => format!("/query?windows=last:{w}"),
        None => "/snapshot".to_string(),
    };
    let mut prev: Vec<(String, u64, u64, u64)> = Vec::new();
    let mut poll = 0u64;
    loop {
        poll += 1;
        let (status, body) =
            teeperf_daemon::http::get(addr, &path, std::time::Duration::from_secs(5))
                .map_err(|e| err(format!("{addr}: {e}")))?;
        if status != 200 {
            return Err(err(format!(
                "{addr}: {path} returned {status}: {}",
                body.trim()
            )));
        }
        let (frame, rows) = match window {
            Some(w) => top_window_frame(poll, w, &body, &prev),
            None => top_frame(poll, &body, &prev),
        }
        .map_err(|e| err(format!("{addr}: {e}")))?;
        print!("{frame}");
        let _ = std::io::Write::flush(&mut std::io::stdout());
        prev = rows;
        if iterations > 0 && poll >= iterations {
            return Ok(format!("teeperf top: {poll} polls of {addr}\n"));
        }
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("teeperf-cli-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn no_args_prints_usage() {
        let out = dispatch(&[]).unwrap();
        assert!(out.contains("usage:"));
    }

    #[test]
    fn top_frame_diffs_against_the_previous_poll() {
        let text = "[live]\nepoch 0\nevents 8\ndropped 0\nthreads 1\nopen 0\ntotal_ticks 100\n\
                    [methods]\nwork 2 80 60\nmain 1 100 40\n[folded]\nmain;work 60\n";
        let (frame, rows) = top_frame(1, text, &[]).unwrap();
        assert!(frame.contains("--- poll 1:"), "{frame}");
        // Sorted by exclusive ticks, first poll shows the full count as new.
        let work_line = frame.lines().find(|l| l.starts_with("work")).unwrap();
        assert!(work_line.ends_with("+60"), "{work_line}");
        assert_eq!(rows[0].0, "work");

        // Second poll: only the growth since the previous rows is marked.
        let text2 = text.replace("work 2 80 60", "work 3 95 75");
        let (frame2, _) = top_frame(2, &text2, &rows).unwrap();
        let work_line = frame2.lines().find(|l| l.starts_with("work")).unwrap();
        assert!(work_line.ends_with("+15"), "{work_line}");
        let main_line = frame2.lines().find(|l| l.starts_with("main")).unwrap();
        assert!(
            main_line.ends_with('·'),
            "unchanged rows show a dot: {main_line}"
        );
    }

    #[test]
    fn top_frame_rejects_unparseable_snapshots() {
        assert!(top_frame(1, "not a snapshot", &[]).is_err());
        assert!(top_frame(1, "[live]\nepoch 0\n", &[]).is_err());
    }

    #[test]
    fn top_frame_badges_a_degraded_regime() {
        let text = "[live]\nepoch 0\nevents 8\ndropped 4\nthreads 1\nopen 0\ntotal_ticks 100\n\
                    [regime]\nmode sampled 1/4\nbudget 5\ntransitions 1\nestimated_events 32\n\
                    faults 0\nconfidence estimated\n\
                    [methods]\nwork 2 80 60\n[folded]\nwork 60\n";
        let (frame, _) = top_frame(1, text, &[]).unwrap();
        let header = frame.lines().next().unwrap();
        assert!(
            header.contains("[sampled(1/4) \u{00b7} estimated]"),
            "{header}"
        );
        // No [regime] section, no badge — full-fidelity output is unchanged.
        let plain = "[live]\nepoch 0\nevents 8\ndropped 0\nthreads 1\nopen 0\ntotal_ticks 100\n\
                     [methods]\nwork 2 80 60\n[folded]\nwork 60\n";
        let (frame, _) = top_frame(1, plain, &[]).unwrap();
        let header = frame.lines().next().unwrap();
        assert!(!header.contains('['), "{header}");
    }

    #[test]
    fn top_polls_a_live_daemon_over_tcp() {
        use teeperf_core::layout::{EventKind, LogEntry};
        use teeperf_core::log::make_header;
        use teeperf_core::shm_file::{publish_sidecar, FileShmWriter};

        let dir = std::env::temp_dir().join(format!("teeperf-cli-top-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let debug = mcvm::DebugInfo::from_functions([("main", 4, 1), ("work", 4, 5)]);
        publish_sidecar(&dir, 41, "sym", &debug.to_text()).unwrap();
        let mut w = FileShmWriter::create(&dir, &make_header(41, 64, true, 0, 0)).unwrap();
        let (a0, a1) = (debug.entry_addr(0), debug.entry_addr(1));
        let e = |kind, counter, addr| LogEntry {
            kind,
            counter,
            addr,
            tid: 0,
        };
        w.write(&e(EventKind::Call, 1, a0)).unwrap();
        w.write(&e(EventKind::Call, 10, a1)).unwrap();
        w.write(&e(EventKind::Return, 60, a1)).unwrap();
        w.write(&e(EventKind::Return, 101, a0)).unwrap();
        w.finish().unwrap();

        let daemon = teeperf_daemon::Daemon::new(teeperf_daemon::DaemonConfig {
            dir: dir.clone(),
            listen: "127.0.0.1:0".to_string(),
            pump_interval: std::time::Duration::from_millis(1),
            scan_every: 1,
            ..teeperf_daemon::DaemonConfig::default()
        })
        .unwrap()
        .without_liveness_probe();
        let addr = daemon.addr().to_string();
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || daemon.run(&rx));

        let out = dispatch(&strs(&[
            "top",
            "--connect",
            &addr,
            "--iterations",
            "2",
            "--interval-ms",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("2 polls"), "{out}");

        tx.send("test done".to_string()).unwrap();
        let report = handle.join().unwrap().unwrap();
        assert_eq!(report.attached, vec![41]);
        let _ = std::fs::remove_dir_all(&dir);

        // Usage errors: missing --connect, unreachable daemon.
        assert!(dispatch(&strs(&["top"])).is_err());
        let e = dispatch(&strs(&[
            "top",
            "--connect",
            "127.0.0.1:1",
            "--iterations",
            "1",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("127.0.0.1:1"));
    }

    #[test]
    fn top_window_frame_renders_query_bodies() {
        let text = "[query]\nspec windows=last:2&top=0\n\
                    pid 41 span 3..=6 ticks 48..=111 calls 2\n\
                    [methods]\nwork 1 50 50\nmain 1 100 40\n";
        let (frame, rows) = top_window_frame(1, 2, text, &[]).unwrap();
        assert!(
            frame.contains("--- poll 1: last 2 windows (pid 41 span 3..=6"),
            "{frame}"
        );
        assert_eq!(rows[0].0, "work", "sorted by exclusive ticks");
        let work_line = frame.lines().find(|l| l.starts_with("work")).unwrap();
        assert!(work_line.ends_with("+50"), "{work_line}");

        // A span-less body still renders (empty table, honest banner).
        let (frame, rows) = top_window_frame(2, 2, "[query]\nspec x\n[methods]\n", &rows).unwrap();
        assert!(frame.contains("(no spans)"), "{frame}");
        assert!(rows.is_empty());

        assert!(top_window_frame(1, 2, "not a query body", &[]).is_err());
    }

    #[test]
    fn query_connect_and_windowed_top_against_a_retaining_daemon() {
        use teeperf_core::layout::{EventKind, LogEntry};
        use teeperf_core::log::make_header;
        use teeperf_core::shm_file::{publish_sidecar, FileShmWriter};

        let dir = std::env::temp_dir().join(format!("teeperf-cli-query-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let debug = mcvm::DebugInfo::from_functions([("main", 4, 1), ("work", 4, 5)]);
        publish_sidecar(&dir, 41, "sym", &debug.to_text()).unwrap();
        let mut w = FileShmWriter::create(&dir, &make_header(41, 64, true, 0, 0)).unwrap();
        let (a0, a1) = (debug.entry_addr(0), debug.entry_addr(1));
        let e = |kind, counter, addr| LogEntry {
            kind,
            counter,
            addr,
            tid: 0,
        };
        w.write(&e(EventKind::Call, 1, a0)).unwrap();
        w.write(&e(EventKind::Call, 10, a1)).unwrap();
        w.write(&e(EventKind::Return, 60, a1)).unwrap();
        w.write(&e(EventKind::Return, 101, a0)).unwrap();
        w.finish().unwrap();

        let daemon = teeperf_daemon::Daemon::new(teeperf_daemon::DaemonConfig {
            dir: dir.clone(),
            listen: "127.0.0.1:0".to_string(),
            pump_interval: std::time::Duration::from_millis(1),
            scan_every: 1,
            retention: Some(RingConfig {
                interval: 16,
                ..RingConfig::default()
            }),
            ..teeperf_daemon::DaemonConfig::default()
        })
        .unwrap()
        .without_liveness_probe();
        let addr = daemon.addr().to_string();
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || daemon.run(&rx));

        // The daemon attaches the writer asynchronously: poll until the
        // retention ring answers.
        let mut listing = String::new();
        for _ in 0..2_000 {
            let out = dispatch(&strs(&["query", "--connect", &addr, "windows"])).unwrap();
            if out.contains("window 6..=6") {
                listing = out;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        // work exits at tick 60 -> window 3; main at 101 -> window 6.
        assert!(listing.contains("pid 41 interval 16"), "{listing}");
        assert!(listing.contains("window 3..=3"), "{listing}");
        assert!(listing.contains("window 6..=6"), "{listing}");

        // Spec clauses are positional tokens, joined with `&` on the wire.
        let out = dispatch(&strs(&[
            "query",
            "--connect",
            &addr,
            "windows=3..=3",
            "pid=41",
        ]))
        .unwrap();
        assert!(out.contains("pid 41 span 3..=3"), "{out}");
        assert!(out.contains("work 1 50 50"), "{out}");
        assert!(!out.contains("main"), "main exits outside window 3: {out}");

        let out = dispatch(&strs(&[
            "query",
            "--connect",
            &addr,
            "windows=all",
            "top=5",
        ]))
        .unwrap();
        assert!(out.contains("work"), "{out}");
        assert!(out.contains("main"), "{out}");

        // A malformed clause surfaces the daemon's 400 with the offender.
        let e = dispatch(&strs(&["query", "--connect", &addr, "windows=sideways"])).unwrap_err();
        assert!(e.to_string().contains("400"), "{e}");
        assert!(e.to_string().contains("sideways"), "{e}");

        // An out-of-range window is a 404, not an empty table.
        let e = dispatch(&strs(&["query", "--connect", &addr, "windows=9..=9"])).unwrap_err();
        assert!(e.to_string().contains("404"), "{e}");

        // top --window renders frames from the same /query endpoint.
        let out = dispatch(&strs(&[
            "top",
            "--connect",
            &addr,
            "--window",
            "8",
            "--iterations",
            "2",
            "--interval-ms",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("2 polls"), "{out}");
        assert!(dispatch(&strs(&["top", "--connect", &addr, "--window", "0"])).is_err());

        tx.send("test done".to_string()).unwrap();
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn daemon_command_rejects_bad_flags() {
        for bad in [
            &["daemon", "--scan-every", "0"][..],
            &["daemon", "--pump-ms", "x"],
            &["daemon", "--max-loops", "x"],
        ] {
            assert!(dispatch(&strs(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn daemon_command_runs_to_its_loop_limit() {
        let dir = std::env::temp_dir().join(format!("teeperf-cli-daemon-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dispatch(&strs(&[
            "daemon",
            "--dir",
            dir.to_str().unwrap(),
            "--listen",
            "127.0.0.1:0",
            "--pump-ms",
            "1",
            "--max-loops",
            "3",
            "--liveness",
            "no",
        ]))
        .unwrap();
        // Under the test harness stdin is already at EOF, so the run may
        // shut down via the stdin watcher before the loop limit: either
        // way the command returns a clean closing report.
        assert!(out.contains("teeperfd: shut down"), "{out}");
        assert!(out.contains("attached pids: -"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_command_errors() {
        assert!(dispatch(&strs(&["frobnicate"])).is_err());
    }

    #[test]
    fn archs_lists_all() {
        let out = dispatch(&strs(&["archs"])).unwrap();
        for k in ["native", "sgx-v1", "trustzone"] {
            assert!(out.contains(k));
        }
    }

    #[test]
    fn run_record_analyze_query_flamegraph_pipeline() {
        let dir = tmpdir();
        let prog = dir.join("demo.mc");
        std::fs::write(
            &prog,
            "fn work(n: int) -> int { let s: int = 0; for (let i: int = 0; i < n; i = i + 1) { s = s + i; } return s; }
             fn main() -> int { print_int(work(100)); return 0; }",
        )
        .unwrap();
        let prog = prog.to_str().unwrap().to_string();
        let base = dir.join("demo").to_str().unwrap().to_string();

        let out = dispatch(&strs(&["run", &prog, "--arch", "native"])).unwrap();
        assert!(out.contains("4950"));
        assert!(out.contains("exit code: 0"));

        let out = dispatch(&strs(&[
            "record", &prog, "--arch", "sgx-v1", "--out", &base,
        ]))
        .unwrap();
        assert!(out.contains("recorded 4 events"), "{out}");

        let tpf = format!("{base}.tpf");
        let sym = format!("{base}.sym");
        let out = dispatch(&strs(&["analyze", &tpf, &sym])).unwrap();
        assert!(out.contains("work"));
        assert!(out.contains("main"));

        // The sharded analyzer must render the identical report.
        let sharded = dispatch(&strs(&["analyze", &tpf, &sym, "--analyzer-threads", "4"])).unwrap();
        assert_eq!(sharded, out);
        let e = dispatch(&strs(&["analyze", &tpf, &sym, "--analyzer-threads", "x"])).unwrap_err();
        assert!(e.to_string().contains("analyzer-threads"));

        let out = dispatch(&strs(&[
            "query",
            &tpf,
            &sym,
            "select method, calls sort calls desc limit 1",
        ]))
        .unwrap();
        assert!(out.contains("method"));

        let out = dispatch(&strs(&["flamegraph", &tpf, &sym])).unwrap();
        assert!(out.contains("work"));

        let svg = dir.join("demo.svg").to_str().unwrap().to_string();
        dispatch(&strs(&["flamegraph", &tpf, &sym, "--svg", &svg])).unwrap();
        let svg_text = std::fs::read_to_string(&svg).unwrap();
        assert!(svg_text.starts_with("<svg"));
    }

    #[test]
    fn compile_then_run_and_record_object_file() {
        let dir = tmpdir();
        let prog = dir.join("obj.mc");
        std::fs::write(
            &prog,
            "fn f(x: int) -> int { return x * 2; }
             fn main() -> int { print_int(f(21)); return 0; }",
        )
        .unwrap();
        let prog = prog.to_str().unwrap().to_string();
        let tpo = dir.join("obj.tpo").to_str().unwrap().to_string();

        let out = dispatch(&strs(&["compile", &prog, "--out", &tpo])).unwrap();
        assert!(out.contains("hooks"), "{out}");
        assert!(out.contains(&tpo));

        // Run the prebuilt object directly.
        let out = dispatch(&strs(&["run", &tpo, "--arch", "native"])).unwrap();
        assert!(out.contains("42"));

        // Record it: the hooks baked into the object fire.
        let base = dir.join("obj").to_str().unwrap().to_string();
        let out = dispatch(&strs(&["record", &tpo, "--arch", "sgx-v1", "--out", &base])).unwrap();
        assert!(out.contains("recorded 4 events"), "{out}");

        // Selective compile-time instrumentation via --only.
        let tpo2 = dir.join("obj_only.tpo").to_str().unwrap().to_string();
        dispatch(&strs(&["compile", &prog, "--out", &tpo2, "--only", "f"])).unwrap();
        let out = dispatch(&strs(&[
            "record", &tpo2, "--arch", "sgx-v1", "--out", &base,
        ]))
        .unwrap();
        assert!(out.contains("recorded 2 events"), "{out}");
    }

    #[test]
    fn diff_compares_two_recordings() {
        let dir = tmpdir();
        let write_prog = |name: &str, body: &str| -> String {
            let p = dir.join(name);
            std::fs::write(&p, body).unwrap();
            p.to_str().unwrap().to_string()
        };
        let a = write_prog(
            "before.mc",
            "fn hot() -> int { let s: int = 0; for (let i: int = 0; i < 500; i = i + 1) { s = s + i; } return s; }
             fn main() -> int { hot(); return 0; }",
        );
        let b = write_prog(
            "after.mc",
            "fn hot() -> int { return 124750; }
             fn main() -> int { hot(); return 0; }",
        );
        let base_a = dir.join("before").to_str().unwrap().to_string();
        let base_b = dir.join("after").to_str().unwrap().to_string();
        dispatch(&strs(&["record", &a, "--out", &base_a])).unwrap();
        dispatch(&strs(&["record", &b, "--out", &base_b])).unwrap();
        let svg = dir.join("diff.svg").to_str().unwrap().to_string();
        let out = dispatch(&strs(&[
            "diff",
            &format!("{base_a}.tpf"),
            &format!("{base_a}.sym"),
            &format!("{base_b}.tpf"),
            &format!("{base_b}.sym"),
            "--svg",
            &svg,
        ]))
        .unwrap();
        assert!(out.contains("hot"));
        assert!(out.contains("delta_pct"));
        let svg_text = std::fs::read_to_string(&svg).unwrap();
        assert!(svg_text.contains("Differential"));
    }

    #[test]
    fn live_session_over_a_tiny_log() {
        let dir = tmpdir();
        let prog = dir.join("live.mc");
        std::fs::write(
            &prog,
            "fn work(n: int) -> int { let s: int = 0; for (let i: int = 0; i < n; i = i + 1) { s = s + i; } return s; }
             fn main() -> int { let acc: int = 0; for (let r: int = 0; r < 20; r = r + 1) { acc = acc + work(10); } print_int(acc); return 0; }",
        )
        .unwrap();
        let prog = prog.to_str().unwrap().to_string();
        let svg = dir.join("live.svg").to_str().unwrap().to_string();
        let base = dir.join("live").to_str().unwrap().to_string();

        // 42 events through an 8-entry log: the session must rotate.
        let out = dispatch(&strs(&[
            "live",
            &prog,
            "--max-entries",
            "8",
            "--refresh",
            "10",
            "--frames",
            "yes",
            "--svg",
            &svg,
            "--out",
            &base,
        ]))
        .unwrap();
        assert!(out.contains("exit code: 0"), "{out}");
        assert!(out.contains("42 events"), "{out}");
        assert!(out.contains("0 dropped"), "{out}");
        assert!(out.contains("--- refresh 1 ---"), "{out}");
        assert!(out.contains("work"), "{out}");

        let svg_text = std::fs::read_to_string(&svg).unwrap();
        assert!(svg_text.starts_with("<svg"));
        let snap_text = std::fs::read_to_string(format!("{base}.live")).unwrap();
        assert!(snap_text.contains("[live]"));
        assert!(snap_text.contains("dropped 0"));

        assert!(dispatch(&strs(&["live", &prog, "--watermark", "0"])).is_err());
        assert!(dispatch(&strs(&["live", &prog, "--max-entries", "x"])).is_err());
    }

    #[test]
    fn follow_pids_runs_a_multi_process_session() {
        let dir = tmpdir();
        let prog = dir.join("multi.mc");
        std::fs::write(
            &prog,
            "fn work(n: int) -> int { let s: int = 0; for (let i: int = 0; i < n; i = i + 1) { s = s + i; } return s; }
             fn main() -> int { let acc: int = 0; for (let r: int = 0; r < 20; r = r + 1) { acc = acc + work(10); } print_int(acc); return 0; }",
        )
        .unwrap();
        let prog = prog.to_str().unwrap().to_string();
        let base = dir.join("multi").to_str().unwrap().to_string();

        // 42 events per process × 3 processes through 8-entry logs.
        let out = dispatch(&strs(&[
            "live",
            &prog,
            "--follow-pids",
            "3",
            "--max-entries",
            "8",
            "--out",
            &base,
        ]))
        .unwrap();
        assert!(out.contains("3 simulated processes"), "{out}");
        assert!(out.contains("126 events, 0 dropped"), "{out}");
        let host = u64::from(std::process::id());
        for pid in host..host + 3 {
            assert!(out.contains(&format!("pid {pid}")), "{out}");
        }
        let snap_text = std::fs::read_to_string(format!("{base}.live")).unwrap();
        assert!(snap_text.contains("[processes]"), "{snap_text}");
        assert!(snap_text.contains(&format!("pid {host}\n")), "{snap_text}");

        assert!(dispatch(&strs(&["live", &prog, "--follow-pids", "0"])).is_err());
        assert!(dispatch(&strs(&["live", &prog, "--follow-pids", "x"])).is_err());
    }

    #[test]
    fn logs_replay_merges_recordings_as_processes() {
        let dir = tmpdir();
        let prog = dir.join("replay.mc");
        std::fs::write(
            &prog,
            "fn f(x: int) -> int { return x * 2; }
             fn main() -> int { print_int(f(21)); return 0; }",
        )
        .unwrap();
        let prog = prog.to_str().unwrap().to_string();
        let base_a = dir.join("proc_a").to_str().unwrap().to_string();
        let base_b = dir.join("proc_b").to_str().unwrap().to_string();
        dispatch(&strs(&["record", &prog, "--out", &base_a, "--pid", "71"])).unwrap();
        dispatch(&strs(&["record", &prog, "--out", &base_b, "--pid", "72"])).unwrap();
        assert!(dispatch(&strs(&["record", &prog, "--pid", "0"])).is_err());

        let merged = dir.join("replay").to_str().unwrap().to_string();
        let out = dispatch(&strs(&[
            "live",
            "--logs",
            &format!("{base_a},{base_b}"),
            "--out",
            &merged,
        ]))
        .unwrap();
        assert!(
            out.contains("replayed 2 logs: 8 events, 0 dropped"),
            "{out}"
        );
        assert!(out.contains("pid 71"), "{out}");
        assert!(out.contains("pid 72"), "{out}");
        let snap_text = std::fs::read_to_string(format!("{merged}.live")).unwrap();
        assert!(
            snap_text.contains("[processes]\npid 71\npid 72\n"),
            "{snap_text}"
        );

        // Colliding pids are remapped, not refused.
        let out = dispatch(&strs(&["live", "--logs", &format!("{base_a},{base_a}")])).unwrap();
        assert!(out.contains("replaying as pid 72"), "{out}");
        assert!(dispatch(&strs(&["live", "--logs", " , "])).is_err());
    }

    #[test]
    fn missing_input_paths_exit_with_code_2() {
        let e = dispatch(&strs(&["analyze", "/no/such/log.tpf", "/no/such/log.sym"])).unwrap_err();
        assert_eq!(e.code, 2, "missing log path is a path error: {e}");
        assert!(e.to_string().starts_with("/no/such/log.tpf:"), "{e}");

        let e = dispatch(&strs(&["live", "--logs", "/no/such/a,/no/such/b"])).unwrap_err();
        assert_eq!(e.code, 2);
        let msg = e.to_string();
        // Every bad path gets its own message, not just the first.
        assert!(msg.contains("/no/such/a.tpf:"), "{msg}");
        assert!(msg.contains("/no/such/b.tpf:"), "{msg}");

        // Usage errors stay exit code 1.
        let e = dispatch(&strs(&["analyze"])).unwrap_err();
        assert_eq!(e.code, 1);
    }

    #[test]
    fn analyze_salvages_a_truncated_log() {
        let dir = tmpdir();
        let prog = dir.join("salv.mc");
        std::fs::write(
            &prog,
            "fn f(x: int) -> int { return x * 2; }
             fn main() -> int { print_int(f(21)); return 0; }",
        )
        .unwrap();
        let prog = prog.to_str().unwrap().to_string();
        let base = dir.join("salv").to_str().unwrap().to_string();
        dispatch(&strs(&["record", &prog, "--out", &base])).unwrap();

        // Tear the tail off the recording, as a crash mid-save would.
        let tpf = format!("{base}.tpf");
        let sym = format!("{base}.sym");
        let bytes = std::fs::read(&tpf).unwrap();
        std::fs::write(&tpf, &bytes[..bytes.len() - 10]).unwrap();

        let e = dispatch(&strs(&["analyze", &tpf, &sym])).unwrap_err();
        assert_eq!(e.code, 2, "a torn log is rejected by default: {e}");

        let out = dispatch(&strs(&["analyze", &tpf, &sym, "--salvage", "yes"])).unwrap();
        assert!(out.starts_with("salvage: kept 3 dropped 1"), "{out}");
        assert!(out.contains("truncated-file: 1"), "{out}");
        assert!(out.contains("main"), "the surviving records still analyze");
    }

    #[test]
    fn logs_replay_accepts_a_watchdog_timeout() {
        let dir = tmpdir();
        let prog = dir.join("dog.mc");
        std::fs::write(
            &prog,
            "fn f(x: int) -> int { return x * 2; }
             fn main() -> int { print_int(f(21)); return 0; }",
        )
        .unwrap();
        let prog = prog.to_str().unwrap().to_string();
        let base = dir.join("dog").to_str().unwrap().to_string();
        dispatch(&strs(&["record", &prog, "--out", &base, "--pid", "81"])).unwrap();

        // Replay sources finish; the watchdog must not quarantine them.
        let out = dispatch(&strs(&["live", "--logs", &base, "--watchdog-timeout", "4"])).unwrap();
        assert!(
            out.contains("replayed 1 logs: 4 events, 0 dropped"),
            "{out}"
        );
        assert!(!out.contains("quarantined"), "{out}");

        let e = dispatch(&strs(&["live", "--logs", &base, "--watchdog-timeout", "0"])).unwrap_err();
        assert!(e.to_string().contains("watchdog-timeout"), "{e}");
    }

    #[test]
    fn logs_replay_rejects_a_watermark() {
        let dir = tmpdir();
        let prog = dir.join("mark.mc");
        std::fs::write(&prog, "fn main() -> int { return 0; }").unwrap();
        let prog = prog.to_str().unwrap().to_string();
        let base = dir.join("mark").to_str().unwrap().to_string();
        dispatch(&strs(&["record", &prog, "--out", &base, "--pid", "83"])).unwrap();

        let e = dispatch(&strs(&["live", "--logs", &base, "--watermark", "50"])).unwrap_err();
        assert_eq!(e.code, 2, "{e}");
        assert!(e.to_string().contains("--watermark"), "{e}");
        assert!(!USAGE.contains("--logs <a,b,c> [--watermark"), "{USAGE}");
    }

    #[test]
    fn retention_flags_thread_through_live_and_logs_replay() {
        let dir = tmpdir();
        let prog = dir.join("ring.mc");
        std::fs::write(
            &prog,
            "fn work(n: int) -> int { let s: int = 0; for (let i: int = 0; i < n; i = i + 1) { s = s + i; } return s; }
             fn main() -> int { let acc: int = 0; for (let r: int = 0; r < 20; r = r + 1) { acc = acc + work(10); } print_int(acc); return 0; }",
        )
        .unwrap();
        let prog = prog.to_str().unwrap().to_string();
        let base = dir.join("ring").to_str().unwrap().to_string();

        // A tiny ring over a long run must evict, and the transitions land
        // in the snapshot's [events] section.
        let out = dispatch(&strs(&[
            "live",
            &prog,
            "--window-interval",
            "50",
            "--retain",
            "1",
            "--max-width",
            "1",
            "--out",
            &base,
        ]))
        .unwrap();
        assert!(out.contains("exit code: 0"), "{out}");
        let snap_text = std::fs::read_to_string(format!("{base}.live")).unwrap();
        assert!(snap_text.contains("evicted windows"), "{snap_text}");

        // Logs replay reports what each pid retained.
        let rec = dir.join("ring_rec").to_str().unwrap().to_string();
        dispatch(&strs(&["record", &prog, "--out", &rec, "--pid", "91"])).unwrap();
        let out = dispatch(&strs(&[
            "live",
            "--logs",
            &rec,
            "--window-interval",
            "100000",
            "--retain",
            "8",
        ]))
        .unwrap();
        assert!(out.contains("pid 91: retained"), "{out}");
        assert!(out.contains("windows of 100000 ticks (0 evicted)"), "{out}");

        for bad in [
            &["live", &prog, "--window-interval", "0"][..],
            &["live", &prog, "--retain", "x"],
            &["live", &prog, "--max-width", "0"],
        ] {
            assert!(dispatch(&strs(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn batch_slots_and_transition_mode_thread_through_record_and_live() {
        let dir = tmpdir();
        let prog = dir.join("knobs.mc");
        std::fs::write(
            &prog,
            "fn f(x: int) -> int { return x * 2; }
             fn main() -> int { print_int(f(21)); return 0; }",
        )
        .unwrap();
        let prog = prog.to_str().unwrap().to_string();
        let base = dir.join("knobs").to_str().unwrap().to_string();

        // Both knobs are performance knobs: they reshape the timeline (the
        // counter is the cycle clock, and switchless transitions are
        // cheaper) but must not change *what* was recorded — same events,
        // same methods, same call counts.
        let calls_query = "select method, calls sort method asc";
        let classic = dispatch(&strs(&["record", &prog, "--out", &base])).unwrap();
        assert!(classic.contains("recorded 4 events"), "{classic}");
        let tpf = format!("{base}.tpf");
        let sym = format!("{base}.sym");
        let classic_calls = dispatch(&strs(&["query", &tpf, &sym, calls_query])).unwrap();

        let tuned = dispatch(&strs(&[
            "record",
            &prog,
            "--out",
            &base,
            "--batch-slots",
            "8",
            "--transition-mode",
            "switchless",
        ]))
        .unwrap();
        assert!(tuned.contains("recorded 4 events"), "{tuned}");
        let tuned_calls = dispatch(&strs(&["query", &tpf, &sym, calls_query])).unwrap();
        assert_eq!(
            classic_calls, tuned_calls,
            "knobs must not change what was recorded"
        );

        // Live sessions accept both knobs too.
        let out = dispatch(&strs(&[
            "live",
            &prog,
            "--max-entries",
            "8",
            "--batch-slots",
            "2",
            "--transition-mode",
            "switchless",
        ]))
        .unwrap();
        assert!(out.contains("exit code: 0"), "{out}");
        assert!(out.contains("0 dropped"), "{out}");

        for bad in [
            &["record", &prog, "--batch-slots", "0"][..],
            &["record", &prog, "--batch-slots", "x"],
            &["record", &prog, "--transition-mode", "teleport"],
            &["live", &prog, "--batch-slots", "0"],
        ] {
            assert!(dispatch(&strs(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn bad_arch_rejected() {
        let dir = tmpdir();
        let prog = dir.join("p.mc");
        std::fs::write(&prog, "fn main() -> int { return 0; }").unwrap();
        let e = dispatch(&strs(&["run", prog.to_str().unwrap(), "--arch", "sgx-v9"])).unwrap_err();
        assert!(e.to_string().contains("unknown architecture"));
    }

    #[test]
    fn phoenix_single_bench_runs() {
        let out = dispatch(&strs(&[
            "phoenix",
            "--bench",
            "linear_regression",
            "--arch",
            "native",
        ]))
        .unwrap();
        assert!(out.contains("linear_regression"));
        assert!(out.contains("ok"));
        assert!(dispatch(&strs(&["phoenix", "--bench", "nope"])).is_err());
    }

    #[test]
    fn missing_flag_value_rejected() {
        assert!(dispatch(&strs(&["run", "--arch"])).is_err());
    }
}
