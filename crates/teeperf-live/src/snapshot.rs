//! Serializable snapshots of a rolling profile.
//!
//! A [`Snapshot`] freezes one refresh of the live session: the session
//! status plus a complete [`Profile`] materialized from the rolling
//! aggregate. Snapshots serialize to a stable, line-oriented text format
//! (no external serialization crates in this workspace).

use std::fmt;

use teeperf_analyzer::Profile;
use teeperf_core::Regime;
use teeperf_flamegraph::LiveStatus;

/// A registry lifecycle event worth surfacing to the consumer: a source
/// arriving, leaving, or being declared dead. Rendered in the snapshot's
/// `[events]` section (present only when any occurred, so single-source
/// snapshots serialize exactly as they always have).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEvent {
    /// A source for this pid was attached.
    Attached {
        /// Process id of the new session.
        pid: u64,
    },
    /// The session for this pid was detached by the consumer; its
    /// contribution stays in the merged profile.
    Detached {
        /// Process id of the departed session.
        pid: u64,
    },
    /// The liveness watchdog declared this pid's source dead and detached
    /// it; its prior contribution stays in the merged profile.
    Quarantined {
        /// Process id of the dead session.
        pid: u64,
        /// Why the watchdog gave up on it.
        reason: String,
    },
    /// The retention ring aged the windows `first..=last` out entirely:
    /// their calls moved to the evicted remainder (totals still
    /// reconcile) and are no longer queryable per-window.
    WindowsEvicted {
        /// Process id whose ring evicted.
        pid: u64,
        /// First window index evicted.
        first: u64,
        /// Last window index evicted.
        last: u64,
        /// Completed calls the evicted span held.
        calls: u64,
    },
    /// The retention ring merged its two oldest slots into one bucket
    /// covering `first..=last` — resolution loss only, nothing dropped.
    WindowsCoarsened {
        /// Process id whose ring coarsened.
        pid: u64,
        /// First window index of the merged bucket.
        first: u64,
        /// Last window index of the merged bucket.
        last: u64,
    },
    /// The overhead-budget controller moved this pid's session to a new
    /// fidelity regime (see [`teeperf_core::fidelity`]): degraded under
    /// backpressure, or upgraded after a clean window.
    RegimeChanged {
        /// Process id whose session transitioned.
        pid: u64,
        /// Regime the session left.
        from: Regime,
        /// Regime the session entered.
        to: Regime,
    },
    /// The drainer found this pid's shared regime word corrupt, fell back
    /// to the [`Regime::Full`] interpretation for the entries in flight,
    /// and re-published the word — no entry was dropped over it.
    RegimeFault {
        /// Process id whose regime word was salvaged.
        pid: u64,
    },
}

impl fmt::Display for SessionEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionEvent::Attached { pid } => write!(f, "attached pid {pid}"),
            SessionEvent::Detached { pid } => write!(f, "detached pid {pid}"),
            SessionEvent::Quarantined { pid, reason } => {
                write!(f, "quarantined pid {pid}: {reason}")
            }
            SessionEvent::WindowsEvicted {
                pid,
                first,
                last,
                calls,
            } => {
                write!(
                    f,
                    "evicted windows {first}..={last} of pid {pid} ({calls} calls)"
                )
            }
            SessionEvent::WindowsCoarsened { pid, first, last } => {
                write!(f, "coarsened windows {first}..={last} of pid {pid}")
            }
            SessionEvent::RegimeChanged { pid, from, to } => {
                write!(f, "regime of pid {pid}: {from} -> {to}")
            }
            SessionEvent::RegimeFault { pid } => {
                write!(
                    f,
                    "regime word of pid {pid} corrupt: salvaged as full, re-published"
                )
            }
        }
    }
}

/// The fidelity-regime block of a snapshot: which regime the session runs
/// in, under what budget, and how much of the profile is estimate rather
/// than exact count. Absent (`None` on [`Snapshot::regime`]) for sessions
/// running without an overhead budget — their snapshots serialize exactly
/// as they always have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegimeInfo {
    /// Regime in force when the snapshot froze.
    pub regime: Regime,
    /// The session's overhead budget (tolerated stream loss) in percent,
    /// when one is configured.
    pub budget_pct: Option<u8>,
    /// Regime transitions so far.
    pub transitions: u64,
    /// Bias-corrected estimate of the events the writers offered (equals
    /// the status `events` counter while the session never left full
    /// fidelity).
    pub estimated_events: u64,
    /// Corrupt regime words salvaged so far (each fell back to the full
    /// interpretation; none dropped an entry).
    pub faults: u64,
}

impl RegimeInfo {
    /// The stated confidence of the snapshot's totals: `exact` while the
    /// session has never left [`Regime::Full`], `estimated` as soon as
    /// any window ran sampled or quiescent — degraded fidelity is never
    /// passed off as an exact count.
    pub fn confidence(&self) -> &'static str {
        if self.regime == Regime::Full && self.transitions == 0 {
            "exact"
        } else {
            "estimated"
        }
    }

    /// The `mode …` wire line value: `full`, `sampled 1/<n>`, or
    /// `quiescent`.
    fn mode_text(&self) -> String {
        match self.regime {
            Regime::Full => "full".to_string(),
            Regime::Sampled(n) => format!("sampled 1/{n}"),
            Regime::Quiescent => "quiescent".to_string(),
        }
    }
}

/// One frozen refresh of a live session.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Session state at the moment of the snapshot.
    pub status: LiveStatus,
    /// The rolling profile, materialized.
    pub profile: Profile,
    /// Registry lifecycle events up to this snapshot (attach, detach,
    /// quarantine). Empty for plain single-session snapshots.
    pub events: Vec<SessionEvent>,
    /// Fidelity-regime state, for sessions running under an overhead
    /// budget. `None` (the unbudgeted default) serializes to exactly the
    /// historical snapshot text.
    pub regime: Option<RegimeInfo>,
}

impl Snapshot {
    /// The folded-stack lines of this snapshot (`a;b;c ticks`), the
    /// interchange format every flame-graph tool consumes.
    pub fn folded_text(&self) -> String {
        let mut out = String::new();
        for (path, ticks) in &self.profile.folded {
            out.push_str(&format!("{} {ticks}\n", path.join(";")));
        }
        out
    }

    /// Serialize to the snapshot text format: a `[live]` header with the
    /// session counters, a `[methods]` table (`name calls incl excl`) and
    /// the `[folded]` stacks. Stable across runs; parseable by
    /// [`Snapshot::summary_from_text`] and by humans.
    ///
    /// A cross-process merged snapshot (profile covering more than one
    /// pid) additionally lists its processes in a `[processes]` section,
    /// and registry lifecycle events (attach/detach/quarantine), when any
    /// occurred, in an `[events]` section; single-source snapshots
    /// serialize exactly as they always have.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("[live]\n");
        out.push_str(&format!(
            "epoch {}\nevents {}\ndropped {}\nthreads {}\nopen {}\ntotal_ticks {}\n",
            self.status.epoch,
            self.status.events,
            self.status.dropped,
            self.status.threads,
            self.status.open_frames,
            self.profile.total_ticks
        ));
        if self.profile.pids.len() > 1 {
            out.push_str("[processes]\n");
            for pid in &self.profile.pids {
                out.push_str(&format!("pid {pid}\n"));
            }
        }
        if !self.events.is_empty() {
            out.push_str("[events]\n");
            for e in &self.events {
                out.push_str(&format!("{e}\n"));
            }
        }
        if let Some(r) = &self.regime {
            out.push_str("[regime]\n");
            out.push_str(&format!("mode {}\n", r.mode_text()));
            if let Some(pct) = r.budget_pct {
                out.push_str(&format!("budget {pct}\n"));
            }
            out.push_str(&format!(
                "transitions {}\nestimated_events {}\nfaults {}\nconfidence {}\n",
                r.transitions,
                r.estimated_events,
                r.faults,
                r.confidence()
            ));
        }
        out.push_str("[methods]\n");
        for m in &self.profile.methods {
            out.push_str(&format!(
                "{} {} {} {}\n",
                m.name, m.calls, m.inclusive, m.exclusive
            ));
        }
        out.push_str("[folded]\n");
        out.push_str(&self.folded_text());
        out
    }

    /// Parse the `[live]` counters back out of a serialized snapshot — the
    /// part a monitoring pipeline needs to alert on (events, drops, open
    /// frames) without reconstructing the whole profile.
    ///
    /// # Errors
    /// Returns a description of the first malformed line, and rejects a
    /// `[live]` section missing any counter — a truncated snapshot must
    /// fail loudly, not parse as "zero drops".
    pub fn summary_from_text(text: &str) -> Result<LiveStatus, String> {
        const REQUIRED: [&str; 6] = [
            "epoch",
            "events",
            "dropped",
            "threads",
            "open",
            "total_ticks",
        ];
        let mut status = LiveStatus::default();
        let mut in_live = false;
        let mut seen = [false; REQUIRED.len()];
        for line in text.lines() {
            match line.trim() {
                "[live]" => in_live = true,
                l if l.starts_with('[') => in_live = false,
                l if in_live => {
                    let (key, value) = l
                        .split_once(' ')
                        .ok_or_else(|| format!("malformed counter line `{l}`"))?;
                    let value: u64 = value.parse().map_err(|_| format!("bad value in `{l}`"))?;
                    match key {
                        "epoch" => status.epoch = value,
                        "events" => status.events = value,
                        "dropped" => status.dropped = value,
                        "threads" => status.threads = value,
                        "open" => status.open_frames = value,
                        "total_ticks" => {}
                        other => return Err(format!("unknown counter `{other}`")),
                    }
                    let idx = REQUIRED.iter().position(|k| *k == key).expect("matched");
                    seen[idx] = true;
                }
                _ => {}
            }
        }
        if let Some(idx) = seen.iter().position(|s| !s) {
            return Err(format!(
                "incomplete [live] section: missing `{}`",
                REQUIRED[idx]
            ));
        }
        Ok(status)
    }

    /// Parse the `[methods]` table back out of a serialized snapshot:
    /// `(name, calls, inclusive, exclusive)` per row, in serialized order.
    /// This is the other half of the wire contract `teeperf top` consumes —
    /// together with [`Snapshot::summary_from_text`] it reconstructs the
    /// whole monitoring view from the text a daemon serves.
    ///
    /// # Errors
    /// Returns a description of the first malformed row. A snapshot with
    /// no `[methods]` section at all is malformed (the serializer always
    /// emits the header, even for an empty profile).
    pub fn methods_from_text(text: &str) -> Result<Vec<(String, u64, u64, u64)>, String> {
        let mut rows = Vec::new();
        let mut in_methods = false;
        let mut seen_section = false;
        for line in text.lines() {
            match line.trim() {
                "[methods]" => {
                    in_methods = true;
                    seen_section = true;
                }
                l if l.starts_with('[') => in_methods = false,
                l if in_methods && !l.is_empty() => {
                    // Method names contain no spaces (mangled identifiers or
                    // raw hex); the three counters are the trailing fields.
                    let fields: Vec<&str> = l.split(' ').collect();
                    if fields.len() != 4 {
                        return Err(format!("malformed method row `{l}`"));
                    }
                    let num = |s: &str| {
                        s.parse::<u64>()
                            .map_err(|_| format!("bad counter in method row `{l}`"))
                    };
                    rows.push((
                        fields[0].to_string(),
                        num(fields[1])?,
                        num(fields[2])?,
                        num(fields[3])?,
                    ));
                }
                _ => {}
            }
        }
        if !seen_section {
            return Err("no [methods] section".to_string());
        }
        Ok(rows)
    }

    /// Parse the `[regime]` block back out of a serialized snapshot.
    /// `Ok(None)` when the text has no regime section at all — the
    /// unbudgeted sessions that have always serialized without one.
    ///
    /// # Errors
    /// Returns a description of the first malformed line; a present but
    /// incomplete section is an error (a truncated regime block must not
    /// parse as "full fidelity, zero faults").
    pub fn regime_from_text(text: &str) -> Result<Option<RegimeInfo>, String> {
        let mut in_section = false;
        let mut seen = false;
        let mut regime: Option<Regime> = None;
        let mut budget_pct: Option<u8> = None;
        let mut transitions: Option<u64> = None;
        let mut estimated_events: Option<u64> = None;
        let mut faults: Option<u64> = None;
        for line in text.lines() {
            match line.trim() {
                "[regime]" => {
                    in_section = true;
                    seen = true;
                }
                l if l.starts_with('[') => in_section = false,
                l if in_section && !l.is_empty() => {
                    let (key, value) = l
                        .split_once(' ')
                        .ok_or_else(|| format!("malformed regime line `{l}`"))?;
                    match key {
                        "mode" => {
                            regime = Some(
                                parse_mode(value)
                                    .ok_or_else(|| format!("bad mode in regime line `{l}`"))?,
                            );
                        }
                        "budget" => {
                            budget_pct = Some(
                                value
                                    .parse::<u8>()
                                    .map_err(|_| format!("bad value in regime line `{l}`"))?,
                            );
                        }
                        "transitions" | "estimated_events" | "faults" => {
                            let n = value
                                .parse::<u64>()
                                .map_err(|_| format!("bad value in regime line `{l}`"))?;
                            match key {
                                "transitions" => transitions = Some(n),
                                "estimated_events" => estimated_events = Some(n),
                                _ => faults = Some(n),
                            }
                        }
                        // Derived from the counters on re-serialization.
                        "confidence" => {}
                        other => return Err(format!("unknown regime key `{other}`")),
                    }
                }
                _ => {}
            }
        }
        if !seen {
            return Ok(None);
        }
        let missing = |what: &str| format!("incomplete [regime] section: missing `{what}`");
        Ok(Some(RegimeInfo {
            regime: regime.ok_or_else(|| missing("mode"))?,
            budget_pct,
            transitions: transitions.ok_or_else(|| missing("transitions"))?,
            estimated_events: estimated_events.ok_or_else(|| missing("estimated_events"))?,
            faults: faults.ok_or_else(|| missing("faults"))?,
        }))
    }
}

/// Parse the value of a `mode` wire line: `full`, `sampled 1/<n>`, or
/// `quiescent`.
fn parse_mode(value: &str) -> Option<Regime> {
    match value {
        "full" => Some(Regime::Full),
        "quiescent" => Some(Regime::Quiescent),
        _ => {
            let n: u32 = value.strip_prefix("sampled 1/")?.parse().ok()?;
            (n >= 2).then_some(Regime::sampled(n))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rolling::RollingProfile;
    use mcvm::DebugInfo;
    use teeperf_analyzer::symbolize::Symbolizer;
    use teeperf_core::layout::{EventKind, LogEntry};

    fn debug() -> DebugInfo {
        DebugInfo::from_functions([("main", 4, 1), ("work", 4, 5)])
    }

    fn snap(work_ticks: u64) -> Snapshot {
        let d = debug();
        let (a0, a1) = (d.entry_addr(0), d.entry_addr(1));
        let e = |kind, counter, addr| LogEntry {
            kind,
            counter,
            addr,
            tid: 0,
        };
        let mut rolling = RollingProfile::new();
        rolling.ingest(&[
            e(EventKind::Call, 1, a0),
            e(EventKind::Call, 10, a1),
            e(EventKind::Return, 10 + work_ticks, a1),
            e(EventKind::Return, 101, a0),
        ]);
        rolling.finish();
        Snapshot {
            status: rolling.status(2, 0),
            profile: rolling.snapshot(&Symbolizer::without_relocation(d), 0),
            events: Vec::new(),
            regime: None,
        }
    }

    #[test]
    fn text_round_trips_the_summary() {
        let s = snap(50);
        let text = s.to_text();
        assert!(text.contains("[methods]\n"));
        assert!(text.contains("work 1 50 50\n"));
        assert!(text.contains("main;work 50\n"));
        let parsed = Snapshot::summary_from_text(&text).unwrap();
        assert_eq!(parsed, s.status);
    }

    #[test]
    fn methods_table_round_trips() {
        let s = snap(50);
        let rows = Snapshot::methods_from_text(&s.to_text()).unwrap();
        assert_eq!(
            rows,
            s.profile
                .methods
                .iter()
                .map(|m| (m.name.clone(), m.calls, m.inclusive, m.exclusive))
                .collect::<Vec<_>>()
        );
        assert!(rows
            .iter()
            .any(|(n, c, i, e)| (n.as_str(), *c, *i, *e) == ("work", 1, 50, 50)));
    }

    #[test]
    fn methods_parser_rejects_malformed_rows() {
        assert!(Snapshot::methods_from_text("[live]\nepoch 0\n").is_err());
        assert!(Snapshot::methods_from_text("[methods]\nwork 1 2\n").is_err());
        assert!(Snapshot::methods_from_text("[methods]\nwork 1 2 x\n").is_err());
        assert_eq!(Snapshot::methods_from_text("[methods]\n").unwrap(), vec![]);
        // Sections after [methods] are not mistaken for rows.
        let rows = Snapshot::methods_from_text("[methods]\nwork 1 2 3\n[folded]\na;b 4\n").unwrap();
        assert_eq!(rows, vec![("work".to_string(), 1, 2, 3)]);
    }

    #[test]
    fn summary_rejects_garbage() {
        assert!(Snapshot::summary_from_text("").is_err());
        assert!(Snapshot::summary_from_text("[live]\nepoch x\n").is_err());
        assert!(Snapshot::summary_from_text("[live]\nwhat 3\n").is_err());
        // A [live] section missing counters is a truncation, not zeroes.
        assert!(Snapshot::summary_from_text("[live]\nepoch 1\nevents 2\n").is_err());
    }

    #[test]
    fn events_section_renders_only_when_nonempty() {
        let mut s = snap(50);
        let plain = s.to_text();
        assert!(!plain.contains("[events]"));
        s.events = vec![
            SessionEvent::Attached { pid: 5 },
            SessionEvent::Quarantined {
                pid: 5,
                reason: "no progress after 8 pumps".to_string(),
            },
            SessionEvent::Detached { pid: 6 },
        ];
        let text = s.to_text();
        assert!(text.contains(
            "[events]\nattached pid 5\nquarantined pid 5: no progress after 8 pumps\ndetached pid 6\n"
        ));
        // The summary parser skips the section it does not know.
        assert_eq!(Snapshot::summary_from_text(&text).unwrap(), s.status);
    }

    #[test]
    fn retention_events_render_in_the_events_section() {
        let mut s = snap(50);
        s.events = vec![
            SessionEvent::WindowsCoarsened {
                pid: 7,
                first: 0,
                last: 1,
            },
            SessionEvent::WindowsEvicted {
                pid: 7,
                first: 0,
                last: 1,
                calls: 12,
            },
        ];
        let text = s.to_text();
        assert!(text.contains(
            "[events]\ncoarsened windows 0..=1 of pid 7\nevicted windows 0..=1 of pid 7 (12 calls)\n"
        ));
        // The wire parsers skip the section unchanged.
        assert_eq!(Snapshot::summary_from_text(&text).unwrap(), s.status);
        assert!(Snapshot::methods_from_text(&text).is_ok());
    }

    use proptest::prelude::*;

    proptest::proptest! {
        /// Fuzz-style robustness: any truncation inside the `[live]`
        /// section must return `Err`; arbitrary byte mutations anywhere
        /// must never panic.
        #[test]
        fn prop_summary_survives_truncations_and_mutations(
            cut_frac in 0.0f64..1.0,
            flips in proptest::collection::vec((any::<usize>(), 0u8..128), 0..6),
        ) {
            let text = snap(50).to_text();

            // Truncation that cuts off the last counter (or more): some
            // required counter is missing or its line is cut mid-key, so
            // parsing must fail — a truncated snapshot never parses as
            // "zero drops".
            let last_key = text.find("total_ticks").expect("snapshot has total_ticks");
            #[allow(clippy::cast_possible_truncation, clippy::cast_precision_loss, clippy::cast_sign_loss)]
            let cut = ((last_key as f64) * cut_frac) as usize;
            prop_assert!(Snapshot::summary_from_text(&text[..cut]).is_err());

            // Arbitrary single-byte mutations: Err or Ok, never a panic.
            let mut bytes = text.clone().into_bytes();
            for (pos, val) in flips {
                let pos = pos % bytes.len();
                bytes[pos] = val;
            }
            if let Ok(mutated) = String::from_utf8(bytes) {
                let _ = Snapshot::summary_from_text(&mutated);
            }
        }

        /// Mutating any digit of a counter value to a letter must fail
        /// parsing — a corrupted counter can never round down to "fine".
        #[test]
        fn prop_summary_rejects_corrupted_counters(which in any::<usize>()) {
            let text = snap(50).to_text();
            let live_end = text.find("[methods]").expect("methods section");
            let digit_positions: Vec<usize> = text[..live_end]
                .bytes()
                .enumerate()
                .filter(|(_, b)| b.is_ascii_digit())
                .map(|(i, _)| i)
                .collect();
            prop_assert!(!digit_positions.is_empty());
            let pos = digit_positions[which % digit_positions.len()];
            let mut bytes = text.into_bytes();
            bytes[pos] = b'x';
            let mutated = String::from_utf8(bytes).expect("ascii mutation");
            prop_assert!(Snapshot::summary_from_text(&mutated).is_err());
        }
    }

    #[test]
    fn regime_section_renders_and_round_trips() {
        let mut s = snap(50);
        let plain = s.to_text();
        assert!(
            !plain.contains("[regime]"),
            "unbudgeted snapshots serialize as they always have"
        );
        assert_eq!(Snapshot::regime_from_text(&plain), Ok(None));

        s.regime = Some(RegimeInfo {
            regime: Regime::sampled(8),
            budget_pct: Some(5),
            transitions: 3,
            estimated_events: 4096,
            faults: 1,
        });
        s.events = vec![SessionEvent::RegimeChanged {
            pid: 7,
            from: Regime::Full,
            to: Regime::sampled(2),
        }];
        let text = s.to_text();
        assert!(text.contains(
            "[regime]\nmode sampled 1/8\nbudget 5\ntransitions 3\nestimated_events 4096\nfaults 1\nconfidence estimated\n"
        ), "{text}");
        assert!(
            text.contains("regime of pid 7: full -> sampled(1/2)\n"),
            "{text}"
        );
        assert_eq!(Snapshot::regime_from_text(&text), Ok(s.regime.clone()));
        // The other wire parsers skip the new section unchanged.
        assert_eq!(Snapshot::summary_from_text(&text).unwrap(), s.status);
        assert!(Snapshot::methods_from_text(&text).is_ok());
    }

    #[test]
    fn regime_confidence_is_exact_only_for_an_unbroken_full_run() {
        let exact = RegimeInfo {
            regime: Regime::Full,
            budget_pct: Some(5),
            transitions: 0,
            estimated_events: 10,
            faults: 0,
        };
        assert_eq!(exact.confidence(), "exact");
        let back_to_full = RegimeInfo {
            transitions: 2,
            ..exact.clone()
        };
        assert_eq!(
            back_to_full.confidence(),
            "estimated",
            "a session that ever degraded holds estimated totals"
        );
        let quiescent = RegimeInfo {
            regime: Regime::Quiescent,
            ..exact
        };
        assert_eq!(quiescent.confidence(), "estimated");
    }

    #[test]
    fn regime_parser_rejects_truncation_and_garbage() {
        assert!(Snapshot::regime_from_text("[regime]\nmode full\n").is_err());
        assert!(Snapshot::regime_from_text(
            "[regime]\nmode nonsense\ntransitions 0\nestimated_events 0\nfaults 0\n"
        )
        .is_err());
        assert!(Snapshot::regime_from_text(
            "[regime]\nmode full\ntransitions x\nestimated_events 0\nfaults 0\n"
        )
        .is_err());
        assert!(Snapshot::regime_from_text(
            "[regime]\nmode sampled 1/0\ntransitions 0\nestimated_events 0\nfaults 0\n"
        )
        .is_err());
        // A budget-less block is complete: budget is optional on the wire.
        let ok = Snapshot::regime_from_text(
            "[regime]\nmode quiescent\ntransitions 9\nestimated_events 12\nfaults 0\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(ok.regime, Regime::Quiescent);
        assert_eq!(ok.budget_pct, None);
        assert_eq!(ok.transitions, 9);
    }
}
