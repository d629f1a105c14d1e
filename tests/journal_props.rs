//! Property tests on the journal decoder. Campaign journals and shard
//! worker segments are the same format read by the same
//! [`JournalReader`], so these properties cover both.
//!
//! * Arbitrary bytes and arbitrary line sequences never make the reader
//!   panic or fail, and a line whose checksum does not verify never
//!   yields an outcome.
//! * Any outcome with any counter deltas survives
//!   `record_with_counters` → `next_entry` unchanged.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use snake_core::journal::{JournalEntry, JournalHeader, JournalReader, JournalWriter};
use snake_core::{OutcomeKind, StrategyOutcome, TestMetrics, Verdict};
use snake_proxy::{BasicAttack, Endpoint, ProxyReport, Strategy as Strat, StrategyKind};

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "snake-journal-props-{}-{name}.jsonl",
        std::process::id()
    ))
}

fn header() -> JournalHeader {
    JournalHeader {
        implementation: "Linux 3.13".into(),
        seed: 7,
        threshold: 0.5,
        memoize: Some(true),
        impairment: Some("none".into()),
    }
}

/// A journal holding just the header, opened for appending. `create`
/// syncs to disk, which costs more than the rest of a case, so the header
/// is written through it once and its bytes reused.
fn fresh_journal(name: &str) -> (PathBuf, JournalWriter) {
    static HEADER_LINE: OnceLock<Vec<u8>> = OnceLock::new();
    let bytes = HEADER_LINE.get_or_init(|| {
        let path = temp_path("header");
        JournalWriter::create(&path, &header()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    });
    let path = temp_path(name);
    std::fs::write(&path, bytes).unwrap();
    let writer = JournalWriter::append(&path).unwrap();
    (path, writer)
}

/// Characters that stress the encoder: JSON escapes, the checksum
/// separator, line breaks, multi-byte UTF-8.
const ALPHABET: [char; 12] = [
    'a', 'Z', '0', ' ', '"', '\\', '\t', '\n', '\r', 'é', '→', '\u{1}',
];

fn text(len: usize) -> impl proptest::Strategy<Value = String> {
    prop::collection::vec(0..ALPHABET.len(), 0..len)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

fn attack() -> impl proptest::Strategy<Value = BasicAttack> {
    (0u8..5, 1u8..=100, any::<u32>(), 0u32..4_000).prop_map(|(kind, percent, copies, eighths)| {
        // Eighths of a second are exact in binary, so they round-trip.
        let secs = f64::from(eighths) / 8.0;
        match kind {
            0 => BasicAttack::Drop { percent },
            1 => BasicAttack::Duplicate { copies },
            2 => BasicAttack::Delay { secs },
            3 => BasicAttack::Batch { secs },
            _ => BasicAttack::Reflect,
        }
    })
}

fn strategy() -> impl proptest::Strategy<Value = Strat> {
    (any::<u64>(), any::<bool>(), text(12), text(12), attack()).prop_map(
        |(id, client, state, packet_type, attack)| Strat {
            id,
            kind: StrategyKind::OnPacket {
                endpoint: if client {
                    Endpoint::Client
                } else {
                    Endpoint::Server
                },
                state,
                packet_type,
                attack,
            },
        },
    )
}

fn verdict() -> impl proptest::Strategy<Value = Verdict> {
    any::<u8>().prop_map(|bits| {
        let bit = |i: u8| bits & (1 << i) != 0;
        Verdict {
            establishment_prevented: bit(0),
            throughput_degradation: bit(1),
            throughput_gain: bit(2),
            competing_degradation: bit(3),
            socket_leak: bit(4),
            fairness_collapse: bit(5),
            flow_starvation: bit(6),
            table_exhaustion: bit(7),
        }
    })
}

fn metrics() -> impl proptest::Strategy<Value = TestMetrics> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (0usize..1 << 20, 0usize..1 << 20, 0usize..1 << 20),
        (0usize..1 << 20, 0usize..1 << 20),
        any::<bool>(),
        prop::collection::vec(any::<u64>(), 0..6),
    )
        .prop_map(
            |(
                (target_bytes, competing_bytes, sim_events),
                (leaked_sockets, leaked_close_wait, leaked_with_queue),
                (server_sockets, leaked_total),
                truncated,
                flow_bytes,
            )| TestMetrics {
                target_bytes,
                competing_bytes,
                leaked_sockets,
                leaked_close_wait,
                leaked_with_queue,
                truncated,
                sim_events,
                flow_bytes,
                server_sockets,
                leaked_total,
                proxy: Arc::new(ProxyReport::default()),
            },
        )
}

fn outcome() -> impl proptest::Strategy<Value = StrategyOutcome> {
    (
        strategy(),
        verdict(),
        metrics(),
        (any::<bool>(), any::<bool>(), any::<bool>()),
        (0u8..4, 0u8..4),
        (any::<bool>(), text(40)),
    )
        .prop_map(
            |(
                strategy,
                verdict,
                metrics,
                (repeatable, on_path, false_positive),
                (kind, memo),
                (has_error, error),
            )| StrategyOutcome {
                strategy,
                verdict,
                metrics,
                repeatable,
                on_path,
                false_positive,
                outcome_kind: [
                    OutcomeKind::Ok,
                    OutcomeKind::Errored,
                    OutcomeKind::Truncated,
                    OutcomeKind::Stalled,
                ][usize::from(kind)],
                error: has_error.then_some(error),
                memo: [None, Some("inert"), Some("class"), Some("halt")][usize::from(memo)]
                    .map(str::to_owned),
            },
        )
}

fn counters() -> impl proptest::Strategy<Value = Vec<(String, u64)>> {
    prop::collection::vec((text(10), any::<u64>()), 0..5).prop_map(|pairs| {
        // Distinct names: the counters travel as one JSON object.
        pairs
            .into_iter()
            .enumerate()
            .map(|(i, (name, n))| (format!("c{i}.{name}"), n))
            .collect()
    })
}

/// Replaces a file's contents. Removing it first matters: truncating a
/// file in place makes ext4 flush it on close, which would dominate the
/// run time of these properties.
fn rewrite(path: &Path, contents: String) {
    std::fs::remove_file(path).unwrap();
    std::fs::write(path, contents).unwrap();
}

/// Drains a reader, returning every entry it yields.
fn read_all(path: &Path) -> (Option<JournalHeader>, Vec<JournalEntry>, usize) {
    let mut reader = JournalReader::open(path).expect("a readable file never errors");
    let header = reader.header().cloned();
    let mut entries = Vec::new();
    while let Some(entry) = reader.next_entry().expect("damage is skipped, not fatal") {
        entries.push(entry);
    }
    (header, entries, reader.malformed_lines())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any byte soup — including invalid UTF-8, NULs, stray tabs and
    /// half-lines — is skipped and counted, never a panic or an error.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let path = temp_path("bytes");
        std::fs::write(&path, &bytes).unwrap();
        let (_, entries, malformed) = read_all(&path);
        let lines = bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()).count();
        prop_assert!(entries.len() + malformed <= lines);
        std::fs::remove_file(&path).ok();
    }

    /// Arbitrary lines around real ones: the reader never panics, and the
    /// real ones still come out intact.
    #[test]
    fn arbitrary_lines_never_panic(
        junk in prop::collection::vec(text(60), 0..8),
        first in outcome(),
    ) {
        let (path, mut writer) = fresh_journal("lines");
        writer.record(&first).unwrap();
        drop(writer);
        let mut body = std::fs::read_to_string(&path).unwrap();
        for line in &junk {
            body.push_str(line);
            body.push('\n');
        }
        rewrite(&path, body);
        let (header_back, entries, _) = read_all(&path);
        prop_assert_eq!(header_back, Some(header()));
        prop_assert!(entries.iter().any(|e| e.outcome == first));
        std::fs::remove_file(&path).ok();
    }

    /// One byte of a line's payload is damaged in place, checksum left
    /// alone: exactly the damaged lines are dropped, and only they are
    /// counted.
    #[test]
    fn a_failed_checksum_never_yields_an_outcome(
        outcomes in prop::collection::vec(outcome(), 1..6),
        damage in prop::collection::vec((any::<bool>(), any::<u64>(), 0usize..4), 6),
    ) {
        let (path, mut writer) = fresh_journal("checksum");
        for o in &outcomes {
            writer.record(o).unwrap();
        }
        drop(writer);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let mut kept = Vec::new();
        for (i, o) in outcomes.iter().enumerate() {
            let (hit, at, with) = damage[i];
            if !hit {
                kept.push(o.clone());
                continue;
            }
            let line = &mut lines[i + 1];
            let (payload, sum) = line.rsplit_once('\t').unwrap();
            let mut bytes = payload.as_bytes().to_vec();
            let at = (at % bytes.len() as u64) as usize;
            // An ASCII byte that differs from the original and stays on
            // one line; multi-byte characters simply become invalid.
            let replacement = [b'x', b'0', b'"', b'{'][with];
            bytes[at] = if bytes[at] == replacement { b'y' } else { replacement };
            let damaged = String::from_utf8_lossy(&bytes).into_owned();
            *line = format!("{damaged}\t{sum}");
        }
        rewrite(&path, lines.join("\n") + "\n");
        let (_, entries, malformed) = read_all(&path);
        let back: Vec<StrategyOutcome> = entries.into_iter().map(|e| e.outcome).collect();
        prop_assert_eq!(back, kept.clone());
        prop_assert_eq!(malformed, outcomes.len() - kept.len());
        std::fs::remove_file(&path).ok();
    }

    /// Any outcome with any counter deltas reads back unchanged.
    #[test]
    fn outcomes_and_counters_roundtrip(o in outcome(), deltas in counters()) {
        let (path, mut writer) = fresh_journal("roundtrip");
        writer.record_with_counters(&o, &deltas).unwrap();
        drop(writer);
        let (_, entries, malformed) = read_all(&path);
        prop_assert_eq!(malformed, 0);
        prop_assert_eq!(entries, vec![JournalEntry { outcome: o, counters: deltas }]);
        std::fs::remove_file(&path).ok();
    }
}
