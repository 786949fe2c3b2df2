//! paper_pipeline: the paper's batch flow, in-process, over the seven
//! Phoenix programs at `Scale::Full` under SGX v1 — compile with hooks,
//! record into the in-process `SharedLog`, analyze offline, render the
//! flame graph. No file transport, no HTTP.

use mcvm::{RunConfig, Vm};
use phoenix::{Benchmark, Scale};
use tee_sim::{CostModel, Machine};
use teeperf_analyzer::Analyzer;
use teeperf_compiler::{compile_instrumented, profile_program, InstrumentOptions};
use teeperf_core::layout::EventKind;
use teeperf_core::RecorderConfig;
use teeperf_flamegraph::{FlameGraph, SvgOptions};

use crate::fleet::{peak_rss_mb, svg_well_formed};
use crate::stats::{median, Dist, Outcome};
use crate::trace::Tracer;
use crate::Ctx;

/// Times the Phoenix inputs are generated in an untraced run (setup_s is
/// the median). One generation takes a few milliseconds, so a handful of
/// them would leave setup_s at the mercy of one scheduler hiccup.
pub const SETUP_REPEATS: usize = 25;

/// The native baseline of one program: `run_native`'s steps, kept here
/// so `Benchmark::verify` can read the finished VM (`run_native` drops
/// it).
struct Native {
    exit_code: i64,
    output: Vec<String>,
    cycles: u64,
    instructions: u64,
}

fn native(bench: &dyn Benchmark) -> Result<Native, String> {
    let program = mcvm::compile(bench.source()).map_err(|e| e.to_string())?;
    let mut vm = Vm::with_config(
        program,
        Machine::new(CostModel::sgx_v1()),
        RunConfig::default(),
    );
    bench.setup(&mut vm).map_err(|e| e.to_string())?;
    let exit_code = vm.run().map_err(|e| e.to_string())?;
    bench.verify(&vm)?;
    Ok(Native {
        exit_code,
        output: vm.output().to_vec(),
        cycles: vm.machine().clock().now(),
        instructions: vm.executed_instructions(),
    })
}

/// Per-pass sums of what each stage cost.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    pub wall_s: f64,
    /// End of recording to report and flame graph, summed over programs.
    pub analyze_ms: f64,
    pub compile_ms: f64,
    pub record_ms: f64,
    pub load_ms: f64,
    pub profile_ms: f64,
    pub report_ms: f64,
    pub svg_ms: f64,
    pub svg_bytes: u64,
    pub events: u64,
    pub traced_cycles: u64,
}

/// What a traced pipeline run adds to its outcome.
#[derive(Debug)]
pub struct PipelineTrace {
    pub tracer: Tracer,
    pub passes: Vec<Pass>,
    pub native_ms: f64,
    pub instructions: u64,
    pub native_cycles: u64,
    pub window_s: f64,
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<Option<PipelineTrace>, String> {
    let reps = if ctx.args.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut suite = Vec::new();
    for _ in 0..reps {
        let t = ctx.now();
        suite = phoenix::suite(Scale::Full, ctx.args.seed);
        setups.push(ctx.now() - t);
    }
    out.metric(
        "setup_s",
        median(&setups),
        "s",
        format!(
            "median of {} set-ups (generate the Phoenix inputs)",
            setups.len()
        ),
    );

    let traced = ctx.args.trace;
    let mut tracer = Tracer::new("pipeline", ctx.origin);
    let mut passes: Vec<Pass> = Vec::new();
    let mut ratios = Vec::new();
    let (mut native_ms, mut instructions, mut native_cycles) = (0.0, 0u64, 0u64);
    let recorder = RecorderConfig {
        max_entries: 1 << 22,
        ..RecorderConfig::default()
    };
    let t0 = ctx.now();
    let mut outputs = Vec::new();
    while passes.is_empty() || ctx.now() - t0 < ctx.args.seconds {
        let first = passes.is_empty();
        let mut pass = Pass::default();
        for (i, bench) in suite.iter().enumerate() {
            let id = (passes.len() * suite.len() + i) as u64;
            let name = bench.name();
            let t_start = ctx.now();
            let program = tracer.span(traced, "compiler.instrument", id, || {
                compile_instrumented(bench.source(), &InstrumentOptions::default())
            });
            let t_compiled = ctx.now();
            let program = program.map_err(|e| format!("{name}: compile: {e}"))?;
            let run = tracer.span(traced, "core.record", id, || {
                profile_program(
                    program,
                    CostModel::sgx_v1(),
                    RunConfig::default(),
                    &recorder,
                    |vm| bench.setup(vm),
                )
            });
            let t_recorded = ctx.now();
            let run = run.map_err(|e| format!("{name}: record: {e}"))?;
            let calls = run
                .log
                .entries
                .iter()
                .filter(|e| e.kind == EventKind::Call)
                .count() as u64;
            let entries = run.log.entries.len() as u64;
            let dropped = run.log.header.dropped_entries();
            let (exit_code, output, cycles) = (run.exit_code, run.output, run.cycles);
            let analyzer = tracer.span(traced, "analyzer.load", id, || {
                Analyzer::new(run.log, run.debug)
            });
            let t_loaded = ctx.now();
            // One shard: on a shared two-core host the second shard's
            // speed depends on whether the other core is free, which made
            // analysis times swing by a third between runs.
            let analyzer = analyzer
                .map_err(|e| format!("{name}: analyze: {e}"))?
                .with_analyzer_threads(1);
            let profile = tracer.span(traced, "analyzer.profile", id, || analyzer.profile());
            let t_profiled = ctx.now();
            let report = tracer.span(traced, "analyzer.report", id, || analyzer.report());
            let t_reported = ctx.now();
            let svg = tracer.span(traced, "flamegraph.svg", id, || {
                FlameGraph::from_folded_ids(&profile.symbols, &profile.folded_ids)
                    .to_svg(&SvgOptions::default().with_title(name))
            });
            let t_end = ctx.now();
            pass.compile_ms += (t_compiled - t_start) * 1e3;
            pass.record_ms += (t_recorded - t_compiled) * 1e3;
            pass.load_ms += (t_loaded - t_recorded) * 1e3;
            pass.profile_ms += (t_profiled - t_loaded) * 1e3;
            pass.report_ms += (t_reported - t_profiled) * 1e3;
            pass.svg_ms += (t_end - t_reported) * 1e3;
            pass.svg_bytes += svg.len() as u64;
            pass.events += entries;
            pass.traced_cycles += cycles;
            pass.wall_s += t_end - t_start;
            pass.analyze_ms += (t_end - t_recorded) * 1e3;

            let profiled_calls: u64 = profile.methods.iter().map(|m| m.calls).sum();
            out.check(dropped == 0, || {
                format!("{name}: log dropped {dropped} entries")
            });
            out.check(profiled_calls == calls && 2 * calls == entries, || {
                format!("{name}: profile has {profiled_calls} calls, log has {calls} calls in {entries} entries")
            });
            out.check(report.contains(&profile.methods[0].name), || {
                format!("{name}: report lacks the top method")
            });
            let svg_ok = svg_well_formed(&svg);
            out.check(svg_ok.is_ok(), || {
                format!("{name}: flame graph: {}", svg_ok.clone().unwrap_err())
            });
            if first {
                outputs.push((exit_code, output, cycles));
            }
        }
        passes.push(pass);
    }
    let window_s = ctx.now() - t0;
    // The native baselines run after the measured window: they are the
    // reference for `verify` and for modeled cycles, not part of the flow.
    for (i, (bench, (exit_code, output, cycles))) in suite.iter().zip(outputs).enumerate() {
        let name = bench.name();
        let tn = ctx.now();
        let base = tracer.span(traced, "mcvm.native", i as u64, || native(bench.as_ref()));
        native_ms += (ctx.now() - tn) * 1e3;
        match base {
            Ok(n) => {
                out.check(n.exit_code == exit_code && n.output == output, || {
                    format!("{name}: traced run computed something else than the native run")
                });
                ratios.push(cycles as f64 / n.cycles as f64);
                instructions += n.instructions;
                native_cycles += n.cycles;
            }
            Err(e) => out.check(false, || format!("{name}: verify: {e}")),
        }
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s * 1e3).collect();
    // A handful of passes and a few dozen program runs: too few samples
    // for ten beyond any percentile, so the tail is the maximum.
    let wall = Dist::at(&walls, 100.0);
    out.metric(
        "latency_p50_ms",
        wall.p50,
        "ms",
        format!(
            "pipeline_s: compile→record→analyze→flame over 7 programs, per pass (n={})",
            wall.n
        ),
    );
    out.metric(
        "latency_tail_ms",
        wall.tail,
        "ms",
        format!("pipeline pass p{} (n={})", wall.tail_pct, wall.n),
    );
    let lag_ms: Vec<f64> = passes.iter().map(|p| p.analyze_ms).collect();
    let lag = Dist::at(&lag_ms, 100.0);
    out.metric(
        "lag_p50_ms",
        lag.p50,
        "ms",
        format!(
            "end of recording to report and flame graph, summed over 7 programs, per pass (n={})",
            lag.n
        ),
    );
    out.metric(
        "lag_tail_ms",
        lag.tail,
        "ms",
        format!("p{} (n={})", lag.tail_pct, lag.n),
    );
    let events: u64 = passes.iter().map(|p| p.events).sum();
    let record_s: f64 = passes.iter().map(|p| p.record_ms).sum::<f64>() / 1e3;
    out.metric(
        "record_events_per_s",
        events as f64 / record_s,
        "events/s",
        format!("{events} events / {record_s:.3} s inside profile_program"),
    );
    out.metric(
        "peak_rss_mb",
        peak_rss_mb("self"),
        "MB",
        "benchmark process VmHWM",
    );
    let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len().max(1) as f64).exp();
    out.extra(
        "pipeline_s",
        median(&walls) / 1e3,
        "s",
        format!("median pass, n={}", walls.len()),
    );
    out.extra(
        "modeled_overhead_x",
        geomean,
        "x",
        "tee-sim cycles, not wall time: geomean traced/native over 7 programs",
    );
    out.lines.push(format!("paper_pipeline: {} passes over {} programs in {window_s:.3} s; native baselines {native_ms:.1} ms after the window", passes.len(), suite.len()));
    Ok(ctx.args.trace.then_some(PipelineTrace {
        tracer,
        passes,
        native_ms,
        instructions,
        native_cycles,
        window_s,
    }))
}
