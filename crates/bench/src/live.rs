//! Continuous-monitoring overhead: what does keeping the profiler *always
//! on* cost a long-running service?
//!
//! The paper measures batch recording overhead (Figure 4). This experiment
//! extends it to the `teeperf-live` subsystem: the long-running
//! `db_bench readrandomwriterandom` workload runs three ways —
//!
//! 1. **native** — probe disabled, no recording;
//! 2. **batch** — the paper's mode: one huge log sized for the whole run;
//! 3. **live** — a log three orders of magnitude smaller, rotated under
//!    the running workload by a real drainer thread feeding a rolling
//!    profile.
//!
//! The interesting result is that live costs the *enclave* the same as
//! batch — the drain work happens host-side, outside the TEE — while the
//! log footprint drops from `O(events)` to a fixed window, which is the
//! point of the subsystem. Emits `results/BENCH_live_overhead.json`.

// teeperf-lint: allow(raw-atomics, file): the bench harness's stop flag
// for its OS drainer thread — host-side orchestration, not shared-log
// state (the log is only touched through SharedLog's accessors).

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lsm_store::{run_db_bench, BenchOptions};
use tee_sim::{CostModel, Machine};
use teeperf_analyzer::symbolize::Symbolizer;
use teeperf_analyzer::Profile;
use teeperf_core::{EventSource, LiveLogSource, Profiler, Recorder, RecorderConfig};
use teeperf_live::RollingProfile;

/// How long the drain thread sleeps after a pump that found nothing. The
/// source closes a hole (a slot reserved but not yet published) after 64
/// consecutive stuck pumps; at this backoff that deadline is at least
/// 64 ms of real time, so a writer descheduled between reserve and
/// publish gets that long to finish before its slot is given up on.
const IDLE_BACKOFF: Duration = Duration::from_millis(1);

/// Harness options.
#[derive(Debug, Clone)]
pub struct LiveBenchOptions {
    /// db_bench operations (the "long-running" knob).
    pub ops: u64,
    /// Value size in bytes.
    pub value_bytes: usize,
    /// Capacity of the live session's rotating log, in entries. The batch
    /// run gets `1 << 24` regardless — it has to hold everything.
    pub live_log_entries: u64,
    /// Rotation watermark percentage for the live drain.
    pub watermark_pct: u8,
    /// TEE architecture.
    pub cost: CostModel,
}

impl Default for LiveBenchOptions {
    fn default() -> Self {
        LiveBenchOptions {
            ops: 20_000,
            value_bytes: 1_024,
            live_log_entries: 1 << 15,
            watermark_pct: 50,
            cost: CostModel::sgx_v1(),
        }
    }
}

/// Measured outcomes.
#[derive(Debug, Clone)]
pub struct LiveBenchResult {
    /// Virtual cycles with the probe disabled.
    pub native_cycles: u64,
    /// Virtual cycles under batch recording (whole-run log).
    pub batch_cycles: u64,
    /// Virtual cycles under live recording (rotating log + drainer thread).
    pub live_cycles: u64,
    /// Events the batch log captured (== the full event stream).
    pub batch_events: u64,
    /// Events the live session merged.
    pub live_events: u64,
    /// Events the live session lost to overflow (accounted, not silent).
    pub live_dropped: u64,
    /// Epochs the live log rotated through.
    pub epochs: u64,
    /// Host-side wall time of the live run, milliseconds.
    pub live_wall_ms: u128,
    /// The live session's final rolling profile, symbolized.
    pub live_profile: Profile,
    /// The batch analyzer's profile of the same workload.
    pub batch_profile: Profile,
}

impl LiveBenchResult {
    /// Batch recording slowdown over native (virtual cycles).
    pub fn batch_overhead(&self) -> f64 {
        self.batch_cycles as f64 / self.native_cycles as f64
    }

    /// Live recording slowdown over native (virtual cycles).
    pub fn live_overhead(&self) -> f64 {
        self.live_cycles as f64 / self.native_cycles as f64
    }

    /// Top-N methods of a profile as `(name, exclusive)` pairs.
    pub fn top(profile: &Profile, n: usize) -> Vec<(String, u64)> {
        profile
            .methods
            .iter()
            .take(n)
            .map(|m| (m.name.clone(), m.exclusive))
            .collect()
    }
}

/// One shared setup: recorder + entered machine + profiler.
fn profiled_machine(
    cost: &CostModel,
    config: &RecorderConfig,
    live: bool,
) -> (Recorder, Machine, Rc<RefCell<Profiler>>) {
    let recorder = Recorder::new(config);
    let mut machine = Machine::new(cost.clone());
    recorder.attach(&mut machine);
    machine.ecall();
    let hooks = recorder.sim_hooks(machine.clock().clone());
    let hooks = if live {
        hooks.with_live_writes()
    } else {
        hooks
    };
    let profiler = Rc::new(RefCell::new(Profiler::new(hooks)));
    (recorder, machine, profiler)
}

/// Run the three-way comparison.
///
/// # Panics
/// Panics if the batch log overflows (it is sized not to) or if live-mode
/// accounting does not balance against the batch event stream.
pub fn run_live_overhead(options: &LiveBenchOptions) -> LiveBenchResult {
    let bench_options = BenchOptions {
        ops: options.ops,
        value_bytes: options.value_bytes,
        ..BenchOptions::default()
    };

    // 1. Native: probe disabled.
    let mut machine = Machine::new(options.cost.clone());
    machine.ecall();
    run_db_bench(&mut machine, &bench_options, None);
    let native_cycles = machine.clock().now();

    // 2. Batch: the paper's mode, log sized for the whole run.
    let (recorder, mut machine, profiler) = profiled_machine(
        &options.cost,
        &RecorderConfig {
            max_entries: 1 << 24,
            ..RecorderConfig::default()
        },
        false,
    );
    run_db_bench(&mut machine, &bench_options, Some(Rc::clone(&profiler)));
    let batch_cycles = machine.clock().now();
    let batch_log = recorder.finish();
    assert_eq!(
        batch_log.header.dropped_entries(),
        0,
        "batch log overflowed"
    );
    let batch_events = batch_log.entries.len() as u64;
    let batch_debug = profiler.borrow().debug_info();
    let batch_profile = {
        let sym = Symbolizer::new(batch_debug, &batch_log.header);
        teeperf_analyzer::profile::build(&batch_log, &sym)
    };

    // 3. Live: a small rotating log, drained by a real host thread while
    // the enclave workload keeps writing.
    let (recorder, mut machine, profiler) = profiled_machine(
        &options.cost,
        &RecorderConfig {
            max_entries: options.live_log_entries,
            ..RecorderConfig::default()
        },
        true,
    );
    let header = recorder.log().header();
    let stop = Arc::new(AtomicBool::new(false));
    let drain_thread = {
        let mut source = LiveLogSource::new(recorder.log().clone(), options.watermark_pct);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rolling = RollingProfile::new();
            loop {
                let batch = source.pump();
                rolling.ingest(&batch.entries);
                // ord: Acquire pairs with the Release store below so the
                // drainer observes everything the workload wrote before
                // requesting the final flush.
                if stop.load(Ordering::Acquire) {
                    // Writers are done: flush the final partial epoch.
                    loop {
                        let last = source.drain_to_end();
                        if last.entries.is_empty() && last.dropped == 0 {
                            break;
                        }
                        rolling.ingest(&last.entries);
                    }
                    break;
                }
                if batch.entries.is_empty() {
                    std::thread::sleep(IDLE_BACKOFF);
                }
            }
            rolling.finish();
            (source.epoch(), source.dropped_total(), rolling)
        })
    };
    let wall = std::time::Instant::now();
    run_db_bench(&mut machine, &bench_options, Some(Rc::clone(&profiler)));
    let live_cycles = machine.clock().now();
    // ord: Release pairs with the drainer's Acquire poll above.
    stop.store(true, Ordering::Release);
    let (epochs, live_dropped, rolling) = drain_thread.join().expect("drainer thread");
    let live_wall_ms = wall.elapsed().as_millis();
    let live_events = rolling.events();
    assert_eq!(
        live_events + live_dropped,
        batch_events,
        "live accounting must balance against the batch event stream"
    );
    let live_profile = {
        let sym = Symbolizer::new(profiler.borrow().debug_info(), &header);
        rolling.snapshot(&sym, live_dropped)
    };

    LiveBenchResult {
        native_cycles,
        batch_cycles,
        live_cycles,
        batch_events,
        live_events,
        live_dropped,
        epochs,
        live_wall_ms,
        live_profile,
        batch_profile,
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Serialize the result as the `BENCH_live_overhead.json` artifact (no
/// external serialization crates in this workspace).
pub fn to_json(result: &LiveBenchResult, options: &LiveBenchOptions) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"live_overhead\",");
    let _ = writeln!(
        out,
        "  \"workload\": \"lsm-store db_bench readrandomwriterandom\","
    );
    let _ = writeln!(out, "  \"arch\": \"{}\",", options.cost.kind);
    let _ = writeln!(out, "  \"ops\": {},", options.ops);
    let _ = writeln!(out, "  \"live_log_entries\": {},", options.live_log_entries);
    let _ = writeln!(out, "  \"watermark_pct\": {},", options.watermark_pct);
    let _ = writeln!(out, "  \"native_cycles\": {},", result.native_cycles);
    let _ = writeln!(out, "  \"batch_cycles\": {},", result.batch_cycles);
    let _ = writeln!(out, "  \"live_cycles\": {},", result.live_cycles);
    let _ = writeln!(out, "  \"batch_overhead\": {:.4},", result.batch_overhead());
    let _ = writeln!(out, "  \"live_overhead\": {:.4},", result.live_overhead());
    let _ = writeln!(out, "  \"batch_events\": {},", result.batch_events);
    let _ = writeln!(out, "  \"live_events\": {},", result.live_events);
    let _ = writeln!(out, "  \"live_dropped\": {},", result.live_dropped);
    let _ = writeln!(out, "  \"epochs\": {},", result.epochs);
    let _ = writeln!(out, "  \"live_wall_ms\": {},", result.live_wall_ms);
    out.push_str("  \"top5\": [\n");
    let top = LiveBenchResult::top(&result.live_profile, 5);
    for (i, (name, exclusive)) in top.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"method\": \"{}\", \"exclusive\": {}}}",
            json_escape(name),
            exclusive
        );
        out.push_str(if i + 1 < top.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test scale: the log is bigger than the whole event stream (~10k
    /// events at 800 ops), so overflow is *structurally* impossible no
    /// matter how the OS schedules the drainer thread — while the 10%
    /// watermark still forces several rotations. The default options keep
    /// the interesting small-log configuration; there drop counts are an
    /// honest measurement, not a test invariant.
    fn small() -> LiveBenchOptions {
        LiveBenchOptions {
            ops: 800,
            live_log_entries: 1 << 14,
            watermark_pct: 10,
            ..LiveBenchOptions::default()
        }
    }

    #[test]
    fn live_matches_batch_and_rotates() {
        let r = run_live_overhead(&small());
        // The enclave pays for recording either way; draining is host-side.
        assert!(r.batch_overhead() > 1.0);
        assert!(r.live_overhead() > 1.0);
        let ratio = r.live_cycles as f64 / r.batch_cycles as f64;
        assert!(
            (0.8..1.2).contains(&ratio),
            "live should cost the enclave about what batch does, ratio {ratio:.3}"
        );
        // Capacity exceeds the stream, so nothing can be lost...
        assert!(r.batch_events < small().live_log_entries);
        assert_eq!(r.live_dropped, 0);
        assert_eq!(r.live_events, r.batch_events);
        // ...and the watermark still rotated the log repeatedly.
        assert!(r.epochs >= 3, "only {} epochs", r.epochs);
        // With a complete stream the rolling profile agrees with batch on
        // the hot methods. (Exclusive ticks differ slightly — entry writes
        // land at different shared-memory addresses across the two runs,
        // and the memory model's cost is address-dependent — so compare
        // the top-5 as a set, not ranks or cycles: near-equal methods can
        // swap places whenever the log header layout shifts addresses.)
        let names = |p: &Profile| {
            let mut v = p
                .methods
                .iter()
                .take(5)
                .map(|m| m.name.clone())
                .collect::<Vec<_>>();
            v.sort();
            v
        };
        assert_eq!(names(&r.live_profile), names(&r.batch_profile));
        for m in &r.live_profile.methods {
            let b = r
                .batch_profile
                .method(&m.name)
                .unwrap_or_else(|| panic!("{} missing in batch", m.name));
            assert_eq!(m.calls, b.calls, "{}", m.name);
        }
    }

    #[test]
    fn json_artifact_is_well_formed() {
        let options = small();
        let r = run_live_overhead(&options);
        let json = to_json(&r, &options);
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        for key in [
            "\"bench\"",
            "\"native_cycles\"",
            "\"live_overhead\"",
            "\"epochs\"",
            "\"top5\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Balanced braces/brackets — cheap structural sanity without a
        // JSON parser in the workspace.
        let count = |c: char| json.matches(c).count();
        assert_eq!(count('{'), count('}'));
        assert_eq!(count('['), count(']'));
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
