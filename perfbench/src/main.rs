//! perfbench — one benchmark for the whole profiler.
//!
//! ```text
//! perfbench --workload fleet_mixed|fleet_burst|paper_pipeline --seed N
//!           --seconds S --trace 0|1 --teeperfd PATH [--rev REV] [--run-dir DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace
//! 1` runs the workload untraced and then traced on the same seed, prints
//! both sets of end-to-end numbers side by side (their difference is the
//! tracing overhead) and reports the per-layer metrics of the traced run.
//! The last line of standard output is the JSON result. The exit code is
//! non-zero when any correctness check failed. `LAYERS.md` lists every
//! metric with the end-to-end number it should move.

mod fleet;
mod gen;
mod inproc;
mod pipeline;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use stats::{median, Dist, Outcome};

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub teeperfd: PathBuf,
    pub rev: String,
    pub run_dir: PathBuf,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        teeperfd: PathBuf::new(),
        rev: "unknown".into(),
        run_dir: PathBuf::from(".bench_run"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => args.seconds = value.parse().map_err(|_| "--seconds: not a number")?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--teeperfd" => args.teeperfd = PathBuf::from(value),
            "--rev" => args.rev = value.clone(),
            "--run-dir" => args.run_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

const WORKLOADS: [&str; 3] = ["fleet_mixed", "fleet_burst", "paper_pipeline"];

/// One workload run's context: its arguments, the clock origin every
/// timestamp counts from, and the scratch directory it may write in.
pub struct Ctx {
    pub args: Args,
    pub origin: Instant,
    pub run_dir: PathBuf,
}

impl Ctx {
    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

/// Per-layer metrics and their units, in report order (the names of
/// `BENCHMARK.json`'s `per_layer`; `LAYERS.md` gives the end-to-end metric
/// and workload each one should move).
const LAYER_METRICS: &[(&str, &str)] = &[
    ("core.shm_write_ns", "ns"),
    ("core.source_pump_us.p50", "us"),
    ("core.source_pump_us.max", "us"),
    ("core.entries_per_pump", "count"),
    ("core.backlog_entries_max", "count"),
    ("core.salvage_dropped", "count"),
    ("core.record_ms", "ms"),
    ("core.record_events", "count"),
    ("live.pump_ms.p50", "ms"),
    ("live.pump_ms.max", "ms"),
    ("live.ingest_ns_per_entry", "ns"),
    ("live.ring_windows", "count"),
    ("live.ring_coarsened", "count"),
    ("live.ring_evicted", "count"),
    ("live.snapshot_ms", "ms"),
    ("live.snapshot_bytes", "bytes"),
    ("live.query_ms.last5", "ms"),
    ("live.query_ms.all", "ms"),
    ("live.query_ms.diff", "ms"),
    ("live.svg_ms", "ms"),
    ("analyzer.load_ms", "ms"),
    ("analyzer.profile_ms", "ms"),
    ("analyzer.report_ms", "ms"),
    ("analyzer.entries_per_s", "entries/s"),
    ("analyzer.spec_parse_us", "us"),
    ("flamegraph.svg_ms", "ms"),
    ("flamegraph.svg_bytes", "bytes"),
    ("daemon.route_ms.healthz", "ms"),
    ("daemon.route_ms.snapshot", "ms"),
    ("daemon.route_ms.pid", "ms"),
    ("daemon.route_ms.query", "ms"),
    ("daemon.route_ms.flame", "ms"),
    ("daemon.route_ms.metrics", "ms"),
    ("daemon.http_read_us", "us"),
    ("daemon.http_write_us", "us"),
    ("daemon.wait_ms", "ms"),
    ("daemon.wait_ms.tail", "ms"),
    ("compiler.instrument_ms", "ms"),
    ("mcvm.native_ms", "ms"),
    ("mcvm.instructions", "count"),
    ("teesim.native_cycles", "cycles"),
    ("teesim.traced_cycles", "cycles"),
];

fn unit_of(name: &str) -> &'static str {
    LAYER_METRICS
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("count", |(_, u)| u)
}

fn p50(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

fn layer(out: &mut Outcome, name: &str, value: f64, note: impl Into<String>) {
    out.metric(name, value, unit_of(name), note);
}

fn fleet_layers(t: &fleet::FleetTrace, out: &mut Outcome) {
    let d = &t.daemon;
    let spans = |name: &str| d.tracer.ms(name);
    let writes: Vec<f64> = t.write_ns.iter().map(|&n| f64::from(n)).collect();
    layer(
        out,
        "core.shm_write_ns",
        p50(&writes),
        format!("FileShmWriter::write p50 (n={})", writes.len()),
    );
    let pumps_us: Vec<f64> = d
        .sources
        .pumps
        .iter()
        .map(|(ns, _)| *ns as f64 / 1e3)
        .collect();
    let src = Dist::of(&pumps_us);
    layer(
        out,
        "core.source_pump_us.p50",
        src.p50,
        format!("FileShmSource pump (n={})", src.n),
    );
    layer(
        out,
        "core.source_pump_us.max",
        src.max,
        format!("n={}", src.n),
    );
    let drained: u64 = d.sources.pumps.iter().map(|(_, n)| n).sum();
    layer(
        out,
        "core.entries_per_pump",
        drained as f64 / d.sources.pumps.len().max(1) as f64,
        "mean over every source pump",
    );
    layer(
        out,
        "core.backlog_entries_max",
        d.sources.backlog_max as f64,
        "published minus drained, at pump time",
    );
    layer(
        out,
        "core.salvage_dropped",
        d.salvage_dropped as f64,
        "SalvageReport::dropped",
    );
    let reg_ms: Vec<f64> = d.pumps.iter().map(|(ns, _)| *ns as f64 / 1e6).collect();
    let reg = Dist::of(&reg_ms);
    layer(
        out,
        "live.pump_ms.p50",
        reg.p50,
        format!("SessionRegistry::pump (n={})", reg.n),
    );
    layer(out, "live.pump_ms.max", reg.max, format!("n={}", reg.n));
    let reg_ns: u64 = d.pumps.iter().map(|(ns, _)| ns).sum();
    let src_ns: u64 = d.sources.pumps.iter().map(|(ns, _)| ns).sum();
    let entries: u64 = d.pumps.iter().map(|(_, n)| n).sum();
    layer(
        out,
        "live.ingest_ns_per_entry",
        reg_ns.saturating_sub(src_ns) as f64 / entries.max(1) as f64,
        format!("registry pump self time over {entries} entries"),
    );
    layer(
        out,
        "live.ring_windows",
        d.ring_windows as f64,
        "retained windows, all pids",
    );
    layer(
        out,
        "live.ring_coarsened",
        d.ring_coarsened as f64,
        "coarsening events",
    );
    layer(
        out,
        "live.ring_evicted",
        d.ring_evicted as f64,
        "eviction events",
    );
    layer(
        out,
        "live.snapshot_ms",
        p50(&spans("daemon.route.snapshot")),
        "merged_snapshot + to_text (route span of /snapshot)",
    );
    let bytes: Vec<f64> = t
        .ops
        .iter()
        .filter(|o| o.kind == "snapshot")
        .map(|o| o.bytes as f64)
        .collect();
    layer(out, "live.snapshot_bytes", p50(&bytes), "/snapshot body");
    layer(
        out,
        "live.query_ms.last5",
        p50(&spans("live.query.last")),
        "SessionRegistry::query_text",
    );
    layer(
        out,
        "live.query_ms.all",
        p50(&spans("live.query.all")),
        "SessionRegistry::query_text",
    );
    layer(
        out,
        "live.query_ms.diff",
        p50(&spans("live.query.diff")),
        "SessionRegistry::query_text",
    );
    layer(
        out,
        "live.svg_ms",
        p50(&spans("live.svg")),
        "SessionRegistry::render_svg",
    );
    let parse_us: Vec<f64> = spans("analyzer.spec_parse")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    layer(
        out,
        "analyzer.spec_parse_us",
        p50(&parse_us),
        "WindowSpec::parse",
    );
    for (metric, span) in [
        ("daemon.route_ms.healthz", "daemon.route.healthz"),
        ("daemon.route_ms.snapshot", "daemon.route.snapshot"),
        ("daemon.route_ms.pid", "daemon.route.pid"),
        ("daemon.route_ms.query", "daemon.route.query"),
        ("daemon.route_ms.flame", "daemon.route.flame"),
        ("daemon.route_ms.metrics", "daemon.route.metrics"),
    ] {
        let v = spans(span);
        layer(
            out,
            metric,
            p50(&v),
            format!("teeperf_daemon::route p50 (n={})", v.len()),
        );
    }
    let read: Vec<f64> = d.served.iter().map(|s| s.read_ns as f64 / 1e3).collect();
    let write: Vec<f64> = d.served.iter().map(|s| s.write_ns as f64 / 1e3).collect();
    layer(out, "daemon.http_read_us", p50(&read), "http::read_request");
    layer(
        out,
        "daemon.http_write_us",
        p50(&write),
        "Response::write_to",
    );
    let served: std::collections::BTreeMap<u64, &inproc::Served> =
        d.served.iter().map(|s| (s.id, s)).collect();
    let waits: Vec<f64> = t
        .ops
        .iter()
        .filter_map(|o| {
            let s = served.get(&o.seq)?;
            let busy = (s.read_ns + s.route_ns + s.write_ns) as f64 / 1e6;
            Some(((o.end - o.start) * 1e3 - busy).max(0.0))
        })
        .collect();
    let wait = Dist::of(&waits);
    layer(
        out,
        "daemon.wait_ms",
        wait.p50,
        format!("client latency minus read+route+write (n={})", wait.n),
    );
    layer(
        out,
        "daemon.wait_ms.tail",
        wait.tail,
        format!("p{} (n={})", wait.tail_pct, wait.n),
    );
    out.lines.push(format!(
        "blocking steps: registry pump {}, of which source pumps {:.1}% and ingest self time {:.1}%; request wait {}",
        reg.describe("ms"),
        100.0 * src_ns as f64 / reg_ns.max(1) as f64,
        100.0 * reg_ns.saturating_sub(src_ns) as f64 / reg_ns.max(1) as f64,
        wait.describe("ms")
    ));
    out.lines.extend(trace::rollup(
        &[&d.tracer, &t.client, &t.writer],
        t.window_s,
    ));
}

fn pipeline_layers(t: &pipeline::PipelineTrace, out: &mut Outcome) {
    let per_pass = |f: fn(&pipeline::Pass) -> f64| p50(&t.passes.iter().map(f).collect::<Vec<_>>());
    let n = t.passes.len();
    let note = |what: &str| format!("{what}, sum over 7 programs, median of {n} passes");
    layer(
        out,
        "compiler.instrument_ms",
        per_pass(|p| p.compile_ms),
        note("compile_instrumented"),
    );
    layer(
        out,
        "core.record_ms",
        per_pass(|p| p.record_ms),
        note("profile_program"),
    );
    layer(
        out,
        "core.record_events",
        per_pass(|p| p.events as f64),
        "log entries recorded per pass",
    );
    layer(
        out,
        "analyzer.load_ms",
        per_pass(|p| p.load_ms),
        note("Analyzer::new"),
    );
    layer(
        out,
        "analyzer.profile_ms",
        per_pass(|p| p.profile_ms),
        note("Analyzer::profile"),
    );
    layer(
        out,
        "analyzer.report_ms",
        per_pass(|p| p.report_ms),
        note("Analyzer::report"),
    );
    layer(
        out,
        "analyzer.entries_per_s",
        per_pass(|p| p.events as f64 / (p.profile_ms / 1e3)),
        "entries / Analyzer::profile time",
    );
    layer(
        out,
        "flamegraph.svg_ms",
        per_pass(|p| p.svg_ms),
        note("FlameGraph::to_svg"),
    );
    layer(
        out,
        "flamegraph.svg_bytes",
        per_pass(|p| p.svg_bytes as f64),
        "bytes per pass",
    );
    layer(
        out,
        "mcvm.native_ms",
        t.native_ms,
        "native baseline runs, 7 programs, once",
    );
    layer(
        out,
        "mcvm.instructions",
        t.instructions as f64,
        "native instructions, 7 programs",
    );
    layer(
        out,
        "teesim.native_cycles",
        t.native_cycles as f64,
        "tee-sim clock, native",
    );
    layer(
        out,
        "teesim.traced_cycles",
        t.passes.first().map_or(0.0, |p| p.traced_cycles as f64),
        "tee-sim clock, traced",
    );
    out.lines.extend(trace::rollup(&[&t.tracer], t.window_s));
}

fn run_workload(ctx: &Ctx, out: &mut Outcome) -> Result<Layers, String> {
    Ok(match ctx.args.workload.as_str() {
        "fleet_mixed" => Layers::Fleet(fleet::mixed(ctx, out)?.map(Box::new)),
        "fleet_burst" => Layers::Fleet(fleet::burst(ctx, out)?.map(Box::new)),
        _ => Layers::Pipeline(pipeline::run(ctx, out)?),
    })
}

enum Layers {
    Fleet(Option<Box<fleet::FleetTrace>>),
    Pipeline(Option<pipeline::PipelineTrace>),
}

fn header(args: &Args) -> Vec<String> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let flags = match args.workload.as_str() {
        "fleet_mixed" => {
            let logs = fleet::mixed_programs(args.seed).len() as u64;
            fleet::daemon_flags(Some(&fleet::mixed_ring(args.seconds, logs))).join(" ")
        }
        "fleet_burst" => fleet::daemon_flags(None).join(" "),
        _ => "no daemon (in-process SharedLog, sgx-v1 cost model, Scale::Full)".to_string(),
    };
    let inputs = match args.workload.as_str() {
        "fleet_mixed" => describe(&fleet::mixed_programs(args.seed)),
        "fleet_burst" => describe(&fleet::burst_programs(args.seed)),
        _ => "the seven Phoenix programs, inputs drawn from the seed".to_string(),
    };
    vec![
        format!(
            "perfbench {} seed {} seconds {} trace {}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        "clock: wall (std::time::Instant); modeled_overhead_x uses the tee-sim cycle clock"
            .to_string(),
        format!(
            "host_cores {cores} (available_parallelism); load threads 2; rev {}",
            args.rev
        ),
        format!(
            "set-ups per untraced run {} (setup_s is their median), per traced run 1; \
             one measured window of --seconds per run",
            match args.workload.as_str() {
                "fleet_mixed" => fleet::MIXED_SETUP_REPEATS,
                "fleet_burst" => fleet::BURST_SETUP_REPEATS,
                _ => pipeline::SETUP_REPEATS,
            }
        ),
        format!("daemon flags: {flags}"),
        format!("inputs: {inputs}"),
    ]
}

fn describe(programs: &[gen::Program]) -> String {
    let shapes: Vec<String> = programs
        .iter()
        .map(|p| {
            let s = p.shape;
            format!("d{}f{}m{}n{}", s.depth, s.fanout, s.methods, s.nodes)
        })
        .collect();
    format!(
        "{} logs (depth/fanout/methods/nodes: {})",
        programs.len(),
        shapes.join(" ")
    )
}

fn print_metrics(title: &str, out: &Outcome) {
    println!("{title}");
    for m in out.metrics.iter().chain(&out.extra) {
        println!(
            "  {:<28} {:>16.4} {:<9} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_dir = args.run_dir.join(format!(
        "{}-s{}-p{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    for line in header(&args) {
        println!("{line}");
    }
    let mut untraced = Outcome::default();
    let ctx = Ctx {
        args: Args {
            trace: false,
            ..args.clone()
        },
        origin: Instant::now(),
        run_dir: run_dir.clone(),
    };
    let mut result = run_workload(&ctx, &mut untraced).map(|_| ());
    let mut report = untraced;
    if args.trace && result.is_ok() {
        for line in report.lines.drain(..) {
            println!("{line}");
        }
        let ctx = Ctx {
            args: args.clone(),
            origin: Instant::now(),
            run_dir: run_dir.clone(),
        };
        let mut traced = Outcome::default();
        let layers = run_workload(&ctx, &mut traced);
        let spans = args
            .run_dir
            .join(format!("spans-{}-s{}.tsv", args.workload, args.seed));
        print_metrics("untraced end-to-end:", &report);
        print_metrics("traced end-to-end:", &traced);
        println!("tracing overhead (traced vs untraced):");
        for m in &report.metrics {
            if let Some(t) = traced.get(&m.name) {
                println!(
                    "  {:<28} {:>+9.2}%",
                    m.name,
                    100.0 * (t - m.value) / m.value
                );
            }
        }
        let mut layered = Outcome {
            attempted: report.attempted + traced.attempted,
            failed: report.failed + traced.failed,
            mismatches: [report.mismatches, traced.mismatches].concat(),
            lines: traced.lines,
            ..Outcome::default()
        };
        match layers {
            Ok(Layers::Fleet(Some(t))) => {
                fleet_layers(&t, &mut layered);
                let _ = trace::write_spans(&spans, &[&t.daemon.tracer, &t.client, &t.writer]);
            }
            Ok(Layers::Pipeline(Some(t))) => {
                pipeline_layers(&t, &mut layered);
                let _ = trace::write_spans(&spans, &[&t.tracer]);
            }
            Ok(_) => {}
            Err(e) => result = Err(e),
        }
        // Layers this workload's path never calls did no work here.
        for (name, _) in LAYER_METRICS {
            if layered.get(name).is_none() {
                layer(&mut layered, name, 0.0, "not on this workload's path");
            }
        }
        let order = |name: &str| LAYER_METRICS.iter().position(|(n, _)| *n == name);
        layered.metrics.sort_by_key(|m| order(&m.name));
        report = layered;
    }
    for line in &report.lines {
        println!("{line}");
    }
    print_metrics(
        if args.trace {
            "per-layer (traced run):"
        } else {
            "end-to-end:"
        },
        &report,
    );
    if let Err(e) = &result {
        report.attempted += 1;
        report.failed += 1;
        report.mismatches.push(format!("run aborted: {e}"));
    }
    println!(
        "  failed_ratio {:.6} ({} failed of {} attempted: requests, events, checks)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for m in &report.mismatches {
        println!("MISMATCH {m}");
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
