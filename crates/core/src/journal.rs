//! Streaming JSONL campaign journal.
//!
//! One line per completed [`StrategyOutcome`], appended and flushed as the
//! executors finish, preceded by a header line identifying the campaign. A
//! campaign process that is killed (or crashes) mid-run leaves behind every
//! outcome that completed; `Campaign::run` with `resume: true` reloads
//! them, re-runs only what is missing, and reproduces the same final table.
//!
//! The format is deliberately line-oriented: a writer dying mid-append can
//! corrupt at most the final line, which the loader skips (and counts)
//! instead of rejecting the whole journal.
//!
//! Two hardening measures protect resumes against torn and silently
//! corrupted data:
//!
//! * every line the writer emits carries a trailing FNV-1a checksum
//!   (`<json>\t<16 hex digits>`), verified on load — a line whose payload
//!   was damaged in place (bit rot, a partially overwritten sector, an
//!   editor mishap) is counted as malformed and skipped instead of being
//!   trusted, and the affected strategy simply re-runs;
//! * the header is first written to a temporary sibling file and then
//!   renamed into place, so a crash during journal creation can never
//!   leave a half-written header behind.
//!
//! Checksums are optional on read: journals written before this scheme
//! (bare JSON lines) still load.
//!
//! Worker *segments* are journals too. In a sharded campaign with a
//! journal, every shard worker appends each outcome it evaluates, with its
//! counter deltas, to a private journal file in `<journal>.segments/`,
//! named `shard-<nn>-g<gen>-p<pid>.seg`. The generation tells a reconnected
//! worker's file from its predecessor's; the controller pid keeps a resumed
//! run's files from overwriting the crashed run's. A controller that dies
//! loses what was evaluated but still on the wire; on resume
//! [`open_campaign`] folds every segment whose header equals the
//! campaign's into the journal before round 0, so the campaign resumes
//! from the journal alone. The directory is cleared when a fresh campaign
//! starts and removed once a campaign completes.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use snake_json::{obj, FromJson, JsonError, ObjExt, ToJson, Value};
use snake_observe::Observer;
use snake_proxy::{ProxyReport, Strategy};

use crate::campaign::{CampaignConfig, CampaignError, ChaosPlan, OutcomeKind, StrategyOutcome};
use crate::detect::Verdict;
use crate::scenario::{ScenarioSpec, TestMetrics};

impl ToJson for Verdict {
    fn to_json(&self) -> Value {
        obj([
            (
                "establishment_prevented",
                Value::Bool(self.establishment_prevented),
            ),
            (
                "throughput_degradation",
                Value::Bool(self.throughput_degradation),
            ),
            ("throughput_gain", Value::Bool(self.throughput_gain)),
            (
                "competing_degradation",
                Value::Bool(self.competing_degradation),
            ),
            ("socket_leak", Value::Bool(self.socket_leak)),
            ("fairness_collapse", Value::Bool(self.fairness_collapse)),
            ("flow_starvation", Value::Bool(self.flow_starvation)),
            ("table_exhaustion", Value::Bool(self.table_exhaustion)),
        ])
    }
}

impl FromJson for Verdict {
    fn from_json(value: &Value) -> Result<Verdict, JsonError> {
        // The cross-flow flags postdate the journal format; journals
        // written before them decode with the flags clear, which is also
        // what their two-flow scenarios would have computed.
        let opt_bool = |key: &str| -> Result<bool, JsonError> {
            match value.get(key) {
                Some(_) => value.req_bool(key),
                None => Ok(false),
            }
        };
        Ok(Verdict {
            establishment_prevented: value.req_bool("establishment_prevented")?,
            throughput_degradation: value.req_bool("throughput_degradation")?,
            throughput_gain: value.req_bool("throughput_gain")?,
            competing_degradation: value.req_bool("competing_degradation")?,
            socket_leak: value.req_bool("socket_leak")?,
            fairness_collapse: opt_bool("fairness_collapse")?,
            flow_starvation: opt_bool("flow_starvation")?,
            table_exhaustion: opt_bool("table_exhaustion")?,
        })
    }
}

impl ToJson for TestMetrics {
    fn to_json(&self) -> Value {
        obj([
            ("target_bytes", Value::U64(self.target_bytes)),
            ("competing_bytes", Value::U64(self.competing_bytes)),
            ("leaked_sockets", Value::U64(self.leaked_sockets as u64)),
            (
                "leaked_close_wait",
                Value::U64(self.leaked_close_wait as u64),
            ),
            (
                "leaked_with_queue",
                Value::U64(self.leaked_with_queue as u64),
            ),
            ("truncated", Value::Bool(self.truncated)),
            ("sim_events", Value::U64(self.sim_events)),
            (
                "flow_bytes",
                Value::Arr(self.flow_bytes.iter().map(|&b| Value::U64(b)).collect()),
            ),
            ("server_sockets", Value::U64(self.server_sockets as u64)),
            ("leaked_total", Value::U64(self.leaked_total as u64)),
            ("proxy", self.proxy.to_json()),
        ])
    }
}

impl FromJson for TestMetrics {
    fn from_json(value: &Value) -> Result<TestMetrics, JsonError> {
        let count = |key: &str| -> Result<usize, JsonError> {
            usize::try_from(value.req_u64(key)?)
                .map_err(|_| JsonError::decode(format!("field `{key}` out of range")))
        };
        let target_bytes = value.req_u64("target_bytes")?;
        let competing_bytes = value.req_u64("competing_bytes")?;
        let leaked_sockets = count("leaked_sockets")?;
        // The cross-flow fields postdate the journal format. An old line
        // decodes to the values its classic two-flow run would have
        // measured: the two known per-flow byte counts, no occupancy
        // reading, and the attacked server's leaks as the total.
        let flow_bytes = match value.get("flow_bytes") {
            Some(v) => v
                .as_arr()
                .ok_or_else(|| JsonError::decode("field `flow_bytes` is not an array"))?
                .iter()
                .map(|b| {
                    b.as_u64()
                        .ok_or_else(|| JsonError::decode("flow_bytes entries must be u64"))
                })
                .collect::<Result<Vec<u64>, JsonError>>()?,
            None => vec![target_bytes, competing_bytes],
        };
        let server_sockets = if value.get("server_sockets").is_some() {
            count("server_sockets")?
        } else {
            0
        };
        let leaked_total = if value.get("leaked_total").is_some() {
            count("leaked_total")?
        } else {
            leaked_sockets
        };
        Ok(TestMetrics {
            target_bytes,
            competing_bytes,
            leaked_sockets,
            leaked_close_wait: count("leaked_close_wait")?,
            leaked_with_queue: count("leaked_with_queue")?,
            truncated: value.req_bool("truncated")?,
            // Journals written before event accounting lack the field;
            // default to zero rather than rejecting the whole journal.
            sim_events: if value.get("sim_events").is_some() {
                value.req_u64("sim_events")?
            } else {
                0
            },
            flow_bytes,
            server_sockets,
            leaked_total,
            proxy: std::sync::Arc::new(ProxyReport::from_json(value.req("proxy")?)?),
        })
    }
}

impl ToJson for OutcomeKind {
    fn to_json(&self) -> Value {
        Value::Str(self.label().to_owned())
    }
}

impl FromJson for OutcomeKind {
    fn from_json(value: &Value) -> Result<OutcomeKind, JsonError> {
        match value.as_str() {
            Some("ok") => Ok(OutcomeKind::Ok),
            Some("errored") => Ok(OutcomeKind::Errored),
            Some("truncated") => Ok(OutcomeKind::Truncated),
            Some("stalled") => Ok(OutcomeKind::Stalled),
            _ => Err(JsonError::decode(
                "outcome kind must be ok/errored/truncated/stalled",
            )),
        }
    }
}

impl ToJson for StrategyOutcome {
    fn to_json(&self) -> Value {
        obj([
            ("type", Value::Str("outcome".into())),
            ("outcome", self.outcome_kind.to_json()),
            (
                "error",
                match &self.error {
                    Some(e) => Value::Str(e.clone()),
                    None => Value::Null,
                },
            ),
            ("strategy", self.strategy.to_json()),
            ("verdict", self.verdict.to_json()),
            ("metrics", self.metrics.to_json()),
            ("repeatable", Value::Bool(self.repeatable)),
            ("on_path", Value::Bool(self.on_path)),
            ("false_positive", Value::Bool(self.false_positive)),
            (
                "memo",
                match &self.memo {
                    Some(m) => Value::Str(m.clone()),
                    None => Value::Null,
                },
            ),
        ])
    }
}

impl FromJson for StrategyOutcome {
    fn from_json(value: &Value) -> Result<StrategyOutcome, JsonError> {
        let error = match value.req("error")? {
            Value::Null => None,
            Value::Str(s) => Some(s.clone()),
            _ => return Err(JsonError::decode("field `error` must be a string or null")),
        };
        Ok(StrategyOutcome {
            strategy: Strategy::from_json(value.req("strategy")?)?,
            verdict: Verdict::from_json(value.req("verdict")?)?,
            metrics: TestMetrics::from_json(value.req("metrics")?)?,
            repeatable: value.req_bool("repeatable")?,
            on_path: value.req_bool("on_path")?,
            false_positive: value.req_bool("false_positive")?,
            outcome_kind: OutcomeKind::from_json(value.req("outcome")?)?,
            error,
            // Journals written before memoization lack the field; those
            // outcomes all ran for real. A legacy `"fp"` marker was
            // provenance only (the run went the ordinary distance), so it
            // reads as no marker — exactly what a fresh run records.
            memo: match value.get("memo") {
                None | Some(Value::Null) => None,
                Some(Value::Str(s)) => match s.as_str() {
                    "inert" | "class" | "halt" => Some(s.clone()),
                    "fp" => None,
                    _ => {
                        return Err(JsonError::decode(
                            "field `memo` must be inert/class/halt or null",
                        ))
                    }
                },
                Some(_) => return Err(JsonError::decode("field `memo` must be a string or null")),
            },
        })
    }
}

/// The journal's first line: which campaign the outcomes belong to. Resume
/// refuses a journal whose header does not match the current config (see
/// [`JournalHeader::mismatch_against`]).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalHeader {
    /// Implementation under test.
    pub implementation: String,
    /// Scenario seed.
    pub seed: u64,
    /// Detection threshold.
    pub threshold: f64,
    /// Whether campaign-level memoization was live when the journal was
    /// written. Memoized and unmemoized campaigns produce the same
    /// verdicts but different provenance markers, so mixing them in one
    /// journal would corrupt the memo accounting on resume. `None` in
    /// journals written before this field existed (accepted as matching).
    pub memoize: Option<bool>,
    /// Bottleneck impairment spec (its round-trippable `Display` form,
    /// `"none"` when unimpaired). An impaired and an unimpaired campaign
    /// share implementation, seed and threshold yet produce incomparable
    /// outcomes; recording the spec closes that resume hole. `None` in
    /// journals written before this field existed (accepted as matching).
    pub impairment: Option<String>,
}

impl JournalHeader {
    /// Compares a header loaded from disk (`self`) against the header the
    /// current campaign would write, returning a human-readable list of
    /// the fields that differ — or `None` when resuming is safe. The
    /// optional fields (`memoize`, `impairment`) only mismatch when the
    /// loaded journal actually recorded them: a legacy journal predating
    /// those fields is accepted, exactly as before they existed.
    pub fn mismatch_against(&self, current: &JournalHeader) -> Option<String> {
        let mut diffs: Vec<String> = Vec::new();
        if self.implementation != current.implementation {
            diffs.push(format!(
                "implementation: journal has `{}`, campaign has `{}`",
                self.implementation, current.implementation
            ));
        }
        if self.seed != current.seed {
            diffs.push(format!(
                "seed: journal has {}, campaign has {}",
                self.seed, current.seed
            ));
        }
        if self.threshold != current.threshold {
            diffs.push(format!(
                "threshold: journal has {}, campaign has {}",
                self.threshold, current.threshold
            ));
        }
        if let (Some(a), Some(b)) = (self.memoize, current.memoize) {
            if a != b {
                diffs.push(format!(
                    "memoization: journal was written with memoize={a}, campaign has memoize={b}"
                ));
            }
        }
        if let (Some(a), Some(b)) = (&self.impairment, &current.impairment) {
            if a != b {
                diffs.push(format!("impairment: journal has `{a}`, campaign has `{b}`"));
            }
        }
        if diffs.is_empty() {
            None
        } else {
            Some(diffs.join("; "))
        }
    }
}

impl ToJson for JournalHeader {
    fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("type", Value::Str("campaign".into())),
            ("implementation", Value::Str(self.implementation.clone())),
            ("seed", Value::U64(self.seed)),
            ("threshold", Value::F64(self.threshold)),
        ];
        if let Some(memoize) = self.memoize {
            pairs.push(("memoize", Value::Bool(memoize)));
        }
        if let Some(impairment) = &self.impairment {
            pairs.push(("impairment", Value::Str(impairment.clone())));
        }
        obj(pairs)
    }
}

impl FromJson for JournalHeader {
    fn from_json(value: &Value) -> Result<JournalHeader, JsonError> {
        Ok(JournalHeader {
            implementation: value.req_str("implementation")?.to_owned(),
            seed: value.req_u64("seed")?,
            threshold: value.req_f64("threshold")?,
            // Absent in journals written before config-drift detection;
            // those headers match any setting, as they always did.
            memoize: match value.get("memoize") {
                None | Some(Value::Null) => None,
                Some(Value::Bool(b)) => Some(*b),
                Some(_) => return Err(JsonError::decode("field `memoize` must be a bool or null")),
            },
            impairment: match value.get("impairment") {
                None | Some(Value::Null) => None,
                Some(Value::Str(s)) => Some(s.clone()),
                Some(_) => {
                    return Err(JsonError::decode(
                        "field `impairment` must be a string or null",
                    ))
                }
            },
        })
    }
}

/// The header line a campaign writes, to its journal and to every worker
/// segment alike: the [`JournalHeader`] fields plus the
/// [`scenario_digest`], which travels beside them on the same line.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CampaignHeader {
    pub(crate) fields: JournalHeader,
    /// `None` in headers written without one (before the digest existed,
    /// or from a bare [`JournalHeader`]); a journal resume accepts those,
    /// as it accepts legacy headers without `memoize` or `impairment`.
    pub(crate) digest: Option<u64>,
}

impl CampaignHeader {
    /// [`JournalHeader::mismatch_against`], plus the scenario digest when
    /// both headers carry one. The digest also covers what the five
    /// fields do not — the workload, the topology, the baseline reps.
    pub(crate) fn mismatch_against(&self, current: &CampaignHeader) -> Option<String> {
        let mut diffs: Vec<String> = self
            .fields
            .mismatch_against(&current.fields)
            .into_iter()
            .collect();
        if let (Some(a), Some(b)) = (self.digest, current.digest) {
            if a != b {
                diffs.push(format!(
                    "scenario digest: journal has {a:016x}, campaign has {b:016x}"
                ));
            }
        }
        (!diffs.is_empty()).then(|| diffs.join("; "))
    }
}

impl ToJson for CampaignHeader {
    fn to_json(&self) -> Value {
        let mut json = self.fields.to_json();
        if let (Some(digest), Value::Obj(pairs)) = (self.digest, &mut json) {
            pairs.push(("digest".to_owned(), Value::Str(format!("{digest:016x}"))));
        }
        json
    }
}

impl FromJson for CampaignHeader {
    fn from_json(value: &Value) -> Result<CampaignHeader, JsonError> {
        let digest = match value.get("digest") {
            None | Some(Value::Null) => None,
            Some(hex) => Some(
                hex.as_str()
                    .filter(|hex| hex.len() == 16)
                    .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| JsonError::decode("field `digest` must be 16 hex digits"))?,
            ),
        };
        Ok(CampaignHeader {
            fields: JournalHeader::from_json(value)?,
            digest,
        })
    }
}

/// Encodes worker counter deltas as a JSON object (`name -> count`), the
/// shape they travel in on the shard wire and in journal outcome lines.
pub(crate) fn counters_json(counters: &[(String, u64)]) -> Value {
    Value::Obj(
        counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::U64(*v)))
            .collect(),
    )
}

/// Decodes a counters object back into pairs. Tolerant by design: a
/// missing or malformed field is an empty delta (journals written before
/// counters existed have no field at all), and non-numeric entries are
/// dropped rather than poisoning the line.
pub(crate) fn decode_counters(value: Option<&Value>) -> Vec<(String, u64)> {
    match value {
        Some(Value::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
            .collect(),
        _ => Vec::new(),
    }
}

/// FNV-1a 64-bit hash of a line's JSON payload — the per-line checksum.
/// Small, dependency-free, and plenty for detecting torn or bit-rotted
/// lines (this guards against accidents, not adversaries).
pub(crate) fn line_checksum(payload: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in payload.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Stable FNV-1a digest of everything scenario-side that can influence a
/// verdict: the full [`ScenarioSpec`] (topology, workload, budgets, seed,
/// impairments), the detection threshold, and the baseline-ensemble size.
/// Journal and segment headers and the shard handshake gate on it.
/// Hashing the spec's `Debug` rendering deliberately over-approximates — any
/// representational change (a new field, a reordered one) moves the
/// digest in the safe direction — and keeps the digest independent of the
/// shard wire's spec encoding, which the wire's self-check relies on.
pub fn scenario_digest(spec: &ScenarioSpec, threshold: f64, baseline_reps: usize) -> u64 {
    line_checksum(&format!(
        "{spec:?}|threshold={threshold}|baseline_reps={baseline_reps}"
    ))
}

/// Renders one journal line: compact JSON, a tab, and the checksum as 16
/// lowercase hex digits. The tab can never appear inside the payload (the
/// JSON writer escapes control characters), so the loader can split
/// unambiguously from the right.
pub(crate) fn checksummed_line(payload: &str) -> String {
    debug_assert!(!payload.contains('\n'), "journal lines must be single-line");
    debug_assert!(
        !payload.contains('\t'),
        "payload tabs would break the checksum split"
    );
    format!("{payload}\t{:016x}\n", line_checksum(payload))
}

/// Splits a loaded line into its JSON payload, verifying the checksum
/// when one is present. Returns `None` for a checksum mismatch (the line
/// is damaged); bare lines without a checksum pass through untouched for
/// backward compatibility.
pub(crate) fn verify_line(line: &str) -> Option<&str> {
    match line.rsplit_once('\t') {
        Some((payload, suffix))
            if suffix.len() == 16 && suffix.bytes().all(|b| b.is_ascii_hexdigit()) =>
        {
            let expected = u64::from_str_radix(suffix, 16).ok()?;
            (line_checksum(payload) == expected).then_some(payload)
        }
        _ => Some(line),
    }
}

/// Appends outcomes to a journal file, flushing after every line so a
/// killed process loses at most the line being written.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Starts a fresh journal and writes the header line: a
    /// [`JournalHeader`], or inside the crate one that also carries the
    /// scenario digest. The header is written to a temporary sibling file
    /// and renamed into place, so a crash here leaves either the old
    /// journal or a complete new header — never a torn one. The returned
    /// writer keeps appending through the same (renamed) file handle.
    pub fn create(path: &Path, header: &impl ToJson) -> io::Result<JournalWriter> {
        JournalWriter::create_with(path, header, true)
    }

    /// Starts a worker segment: [`create`](JournalWriter::create) without
    /// the fsync before the rename. A segment only speeds up a resume, and
    /// one torn by a power loss fails the header check and is discarded
    /// whole, so it does not pay for durability (the sync also makes
    /// unlinking the segments slow when a finished campaign clears them).
    pub(crate) fn create_segment(path: &Path, header: &impl ToJson) -> io::Result<JournalWriter> {
        JournalWriter::create_with(path, header, false)
    }

    fn create_with(path: &Path, header: &impl ToJson, sync: bool) -> io::Result<JournalWriter> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp_path = std::path::PathBuf::from(tmp);
        let mut file = File::create(&tmp_path)?;
        let line = checksummed_line(&header.to_json().to_string_compact());
        file.write_all(line.as_bytes())?;
        file.flush()?;
        if sync {
            file.sync_all()?;
        }
        // Renaming moves the inode the handle already points at, so the
        // writer needs no reopen — appends after this land in `path`.
        fs::rename(&tmp_path, path)?;
        Ok(JournalWriter { file })
    }

    /// Reopens an existing journal for appending (resume). If the previous
    /// writer was killed mid-line, the file may not end with a newline;
    /// one is added so the torn fragment cannot glue onto the next record.
    pub fn append(path: &Path) -> io::Result<JournalWriter> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let len = file.metadata()?.len();
        if len > 0 {
            file.seek(SeekFrom::End(-1))?;
            let mut last = [0u8; 1];
            file.read_exact(&mut last)?;
            if last[0] != b'\n' {
                file.write_all(b"\n")?;
                file.flush()?;
            }
        }
        Ok(JournalWriter { file })
    }

    /// Appends one outcome as a single checksummed JSONL line and flushes.
    pub fn record(&mut self, outcome: &StrategyOutcome) -> io::Result<()> {
        self.record_with_counters(outcome, &[])
    }

    /// Like [`record`](JournalWriter::record), additionally embedding the
    /// worker counter deltas the outcome's evaluation produced (sharded
    /// campaigns receive them over the wire). On resume the deltas are
    /// re-folded into the observer, so a resumed sharded run's manifest
    /// counters match the uninterrupted run's exactly instead of missing
    /// every reused outcome's contribution. An empty slice writes the
    /// classic line with no `counters` field; readers that predate the
    /// field ignore it ([`StrategyOutcome`]'s decoder skips unknown keys).
    pub fn record_with_counters(
        &mut self,
        outcome: &StrategyOutcome,
        counters: &[(String, u64)],
    ) -> io::Result<()> {
        let mut json = outcome.to_json();
        if !counters.is_empty() {
            if let Value::Obj(pairs) = &mut json {
                pairs.push(("counters".to_owned(), counters_json(counters)));
            }
        }
        let line = checksummed_line(&json.to_string_compact());
        self.file.write_all(line.as_bytes())?;
        self.file.flush()
    }
}

/// One journal outcome line read back with its embedded worker counter
/// deltas (empty for lines written without any).
#[derive(Debug, PartialEq)]
pub struct JournalEntry {
    /// The recorded outcome.
    pub outcome: StrategyOutcome,
    /// Worker counter deltas embedded alongside it, if any.
    pub counters: Vec<(String, u64)>,
}

/// A journal read back from disk.
#[derive(Debug)]
pub struct LoadedJournal {
    /// The header line, when present and well-formed.
    pub header: Option<JournalHeader>,
    /// Every well-formed outcome line, in file order.
    pub outcomes: Vec<StrategyOutcome>,
    /// Lines that failed to parse (typically one partial final line left
    /// by a killed writer).
    pub malformed_lines: usize,
}

/// Streams a journal's outcome lines one at a time, so resuming a huge
/// journal never holds the whole file in memory. The header line (raw
/// line 0) is classified eagerly at [`open`](JournalReader::open), so
/// [`header`](JournalReader::header) is meaningful before any outcome has
/// been pulled. Tolerance matches [`load`]: a missing file is an empty
/// journal, and a line that is not UTF-8, fails its checksum, fails to
/// parse, or carries an unexpected type is skipped and counted in
/// [`malformed_lines`](JournalReader::malformed_lines), never fatal.
#[derive(Debug)]
pub struct JournalReader {
    /// `None` for a missing file or once the file is exhausted.
    file: Option<BufReader<File>>,
    header: Option<CampaignHeader>,
    /// An outcome sitting at raw line 0 (a headerless journal), decoded
    /// during `open` and handed out by the first `next_entry` call.
    pending: Option<Box<JournalEntry>>,
    malformed_lines: usize,
}

impl JournalReader {
    /// Opens a journal for streaming, classifying its first line so the
    /// header is available immediately. A missing file is an empty
    /// journal, not an error.
    pub fn open(path: &Path) -> io::Result<JournalReader> {
        let file = match File::open(path) {
            Ok(f) => Some(BufReader::new(f)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let mut reader = JournalReader {
            file,
            header: None,
            pending: None,
            malformed_lines: 0,
        };
        // Classify raw line 0 eagerly: it is the only line a header may
        // legitimately occupy, and callers decide resume-vs-fresh from
        // `header()` before replaying anything.
        if let Some(first) = reader.next_line()? {
            match reader.classify(&first, true) {
                Classified::Header(header) => reader.header = Some(header),
                Classified::Outcome(outcome) => reader.pending = Some(outcome),
                Classified::Skipped => {}
            }
        }
        Ok(reader)
    }

    /// The header line, when raw line 0 carried a well-formed one.
    pub fn header(&self) -> Option<&JournalHeader> {
        self.header.as_ref().map(|h| &h.fields)
    }

    /// Malformed lines encountered *so far*. Equals [`load`]'s total once
    /// [`next_entry`](JournalReader::next_entry) has returned `None`.
    pub fn malformed_lines(&self) -> usize {
        self.malformed_lines
    }

    /// Returns the next well-formed outcome with the worker counter
    /// deltas embedded in its line (empty for lines written without any),
    /// or `None` at end of file. I/O errors abort; damaged lines are
    /// skipped and counted.
    pub fn next_entry(&mut self) -> io::Result<Option<JournalEntry>> {
        if let Some(pending) = self.pending.take() {
            return Ok(Some(*pending));
        }
        while let Some(line) = self.next_line()? {
            if let Classified::Outcome(entry) = self.classify(&line, false) {
                return Ok(Some(*entry));
            }
        }
        Ok(None)
    }

    fn next_line(&mut self) -> io::Result<Option<Vec<u8>>> {
        let Some(file) = &mut self.file else {
            return Ok(None);
        };
        let mut line = Vec::new();
        if file.read_until(b'\n', &mut line)? == 0 {
            self.file = None;
            return Ok(None);
        }
        Ok(Some(line))
    }

    /// Decodes one raw line; only the `first` may be a header. A blank
    /// line is skipped; a damaged one — not UTF-8, failing its checksum
    /// (checked first, so it is never trusted even if it still parses),
    /// unparsable, or of an unexpected type — is skipped and counted.
    fn classify(&mut self, bytes: &[u8], first: bool) -> Classified {
        let text = std::str::from_utf8(bytes).map(|s| s.trim_end_matches(['\r', '\n']));
        if text.is_ok_and(|s| s.trim().is_empty()) {
            return Classified::Skipped;
        }
        let decoded = text.ok().and_then(verify_line).and_then(|payload| {
            let parsed = snake_json::parse(payload).ok()?;
            match parsed.get("type")?.as_str()? {
                "campaign" if first => CampaignHeader::from_json(&parsed)
                    .ok()
                    .map(Classified::Header),
                "outcome" => Some(Classified::Outcome(Box::new(JournalEntry {
                    outcome: StrategyOutcome::from_json(&parsed).ok()?,
                    counters: decode_counters(parsed.get("counters")),
                }))),
                _ => None,
            }
        });
        decoded.unwrap_or_else(|| {
            self.malformed_lines += 1;
            Classified::Skipped
        })
    }
}

enum Classified {
    Header(CampaignHeader),
    Outcome(Box<JournalEntry>),
    Skipped,
}

/// Loads a whole journal into memory, tolerating a missing file (empty
/// journal) and malformed lines (skipped and counted, never fatal).
/// Implemented over the streaming [`JournalReader`]; prefer the reader
/// directly when the journal may be large.
pub fn load(path: &Path) -> io::Result<LoadedJournal> {
    let mut reader = JournalReader::open(path)?;
    let mut outcomes = Vec::new();
    while let Some(entry) = reader.next_entry()? {
        outcomes.push(entry.outcome);
    }
    Ok(LoadedJournal {
        header: reader.header.take().map(|h| h.fields),
        outcomes,
        malformed_lines: reader.malformed_lines,
    })
}

/// The directory holding a journal's worker segments: the journal path
/// with a `.segments` suffix.
pub(crate) fn segment_dir(journal: &Path) -> PathBuf {
    let mut s = journal.as_os_str().to_owned();
    s.push(".segments");
    PathBuf::from(s)
}

/// The segment file one worker connection writes (see the module docs).
pub(crate) fn segment_file(dir: &Path, shard: usize, generation: u64) -> PathBuf {
    dir.join(format!(
        "shard-{shard:02}-g{generation}-p{pid}.seg",
        pid = std::process::id()
    ))
}

/// Deletes every segment in the directory — `*.seg`, and the `*.seg.tmp`
/// a worker killed inside [`JournalWriter::create`] leaves — then the
/// directory itself when it ends up empty. A missing directory is fine;
/// so is a file vanishing mid-walk.
pub(crate) fn clear_dir(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".seg") || name.ends_with(".seg.tmp") {
            fs::remove_file(entry.path()).ok();
        }
    }
    fs::remove_dir(dir).ok();
}

/// The campaign's journal writer and the write-and-one-retry policy every
/// append goes through: admitted outcomes, and segment outcomes folded in
/// on resume.
pub(crate) struct CampaignJournal {
    writer: JournalWriter,
    /// Appends attempted so far: the chaos plan's write ordinal.
    writes: u64,
    chaos: Option<ChaosPlan>,
    observer: Arc<dyn Observer>,
}

impl CampaignJournal {
    /// Appends one outcome with its worker counter deltas. A failed write
    /// (or an injected chaos fault) gets one bounded retry before the
    /// error is returned.
    pub(crate) fn append(
        &mut self,
        outcome: &StrategyOutcome,
        counters: &[(String, u64)],
    ) -> io::Result<()> {
        self.writes += 1;
        let result = if self
            .chaos
            .is_some_and(|c| c.fails_journal_write(self.writes))
        {
            self.observer.counter_add("campaign.journal_faults", 1);
            Err(io::Error::other("chaos: injected journal write failure"))
        } else {
            self.writer.record_with_counters(outcome, counters)
        };
        result.or_else(|_| {
            self.observer.counter_add("campaign.journal_retries", 1);
            self.writer.record_with_counters(outcome, counters)
        })
    }
}

/// A campaign's journal state, ready for round 0.
pub(crate) struct OpenedJournal {
    /// Where admitted outcomes go; `None` when the campaign has no journal.
    pub(crate) journal: Option<CampaignJournal>,
    /// Outcomes a resume reuses, keyed by strategy id: the journal's,
    /// including the segment outcomes just folded into it.
    pub(crate) reusable: BTreeMap<u64, JournalEntry>,
    /// Damaged journal lines a resume skipped.
    pub(crate) lines_skipped: usize,
    /// The directory shard workers write their segments into, when the
    /// campaign is sharded and the directory could be created.
    pub(crate) segments: Option<PathBuf>,
}

/// Sets up a campaign's journal and worker segments.
///
/// A fresh campaign writes `header` to a new journal and clears stale
/// segments, so it cannot inherit another campaign's. A resume first
/// refuses a journal whose header mismatches (digest included when both
/// carry one), then reads it; a missing or headerless journal resumes
/// from nothing. It then folds in every segment whose header equals
/// `header` exactly: each outcome whose strategy id the journal lacks is
/// appended, in strategy-id order, through [`CampaignJournal::append`].
/// The segment files stay until the campaign completes, so a resume that
/// itself crashes still finds them (journal wins on the next fold).
pub(crate) fn open_campaign(
    config: &CampaignConfig,
    header: &CampaignHeader,
) -> Result<OpenedJournal, CampaignError> {
    let mut opened = OpenedJournal {
        journal: None,
        reusable: BTreeMap::new(),
        lines_skipped: 0,
        segments: None,
    };
    // The builder has already refused `resume` without a journal.
    let Some(path) = &config.journal else {
        return Ok(opened);
    };
    let journal_err = |source| CampaignError::Journal {
        path: path.clone(),
        source,
    };
    let mut resumable = false;
    if config.resume {
        // Stream the journal line by line: a 1M-strategy journal replays
        // without ever holding the whole file in memory.
        let mut reader = JournalReader::open(path).map_err(journal_err)?;
        if let Some(detail) = reader
            .header
            .as_ref()
            .and_then(|h| h.mismatch_against(header))
        {
            return Err(CampaignError::JournalMismatch {
                path: path.clone(),
                detail,
            });
        }
        resumable = reader.header.is_some();
        // Drain even a headerless journal, so damaged-line accounting
        // matches what a whole-file load reports.
        while let Some(entry) = reader.next_entry().map_err(journal_err)? {
            if resumable {
                opened.reusable.insert(entry.outcome.strategy.id, entry);
            }
        }
        opened.lines_skipped = reader.malformed_lines;
    }
    let writer = if resumable {
        JournalWriter::append(path)
    } else {
        JournalWriter::create(path, header)
    };
    let mut journal = CampaignJournal {
        writer: writer.map_err(journal_err)?,
        writes: 0,
        chaos: config.chaos,
        observer: config.observer.clone(),
    };
    let dir = segment_dir(path);
    if config.resume {
        match read_segments(&dir, header, &opened.reusable) {
            Ok((fresh, discarded)) => {
                let observer = config.observer.as_ref();
                observer.counter_add("shard.segments.merged", fresh.len() as u64);
                observer.counter_add("shard.segments.discarded", discarded);
                for (id, entry) in fresh {
                    journal
                        .append(&entry.outcome, &entry.counters)
                        .map_err(journal_err)?;
                    opened.reusable.insert(id, entry);
                }
            }
            Err(err) => {
                eprintln!("snake: segment merge failed ({err}); resuming from the journal alone");
            }
        }
    } else {
        clear_dir(&dir);
    }
    opened.journal = Some(journal);
    if config.shards > 0 {
        match fs::create_dir_all(&dir) {
            Ok(()) => opened.segments = Some(dir),
            Err(err) => eprintln!(
                "snake: cannot create segment directory {} ({err}); \
                 workers will not write segments",
                dir.display()
            ),
        }
    }
    Ok(opened)
}

/// Reads every `*.seg` file in `dir`, in sorted name order, and returns
/// the outcomes `journaled` lacks, keyed by strategy id, plus the number
/// of lines discarded. A file whose header is not exactly `header` — a
/// foreign campaign, another memoize mode, a headerless or older-format
/// file — is discarded whole, header line included; so are torn or
/// corrupt lines, ids the journal already holds (admitted before the
/// crash, so the segment copy is stale) and ids an earlier file supplied
/// (a range re-dispatched after its worker died; evaluation is
/// deterministic, so the copies are identical). A missing directory
/// yields nothing.
fn read_segments(
    dir: &Path,
    header: &CampaignHeader,
    journaled: &BTreeMap<u64, JournalEntry>,
) -> io::Result<(BTreeMap<u64, JournalEntry>, u64)> {
    let mut fresh = BTreeMap::new();
    let mut discarded = 0u64;
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((fresh, 0)),
        Err(e) => return Err(e),
    };
    let mut files: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    files.sort();
    for path in files {
        let mut reader = JournalReader::open(&path)?;
        let matches = reader.header.as_ref() == Some(header);
        discarded += u64::from(reader.header.is_some() && !matches);
        while let Some(entry) = reader.next_entry()? {
            let id = entry.outcome.strategy.id;
            if matches && !journaled.contains_key(&id) && !fresh.contains_key(&id) {
                fresh.insert(id, entry);
            } else {
                discarded += 1;
            }
        }
        discarded += reader.malformed_lines as u64;
    }
    Ok((fresh, discarded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use snake_proxy::{BasicAttack, Endpoint, StrategyKind};

    fn outcome(id: u64) -> StrategyOutcome {
        StrategyOutcome {
            strategy: Strategy {
                id,
                kind: StrategyKind::OnPacket {
                    endpoint: Endpoint::Client,
                    state: "ESTABLISHED".into(),
                    packet_type: "ACK".into(),
                    attack: BasicAttack::Drop { percent: 100 },
                },
            },
            verdict: Verdict {
                throughput_degradation: true,
                ..Verdict::default()
            },
            metrics: TestMetrics {
                target_bytes: 123,
                ..TestMetrics::empty()
            },
            repeatable: true,
            on_path: false,
            false_positive: false,
            outcome_kind: OutcomeKind::Ok,
            error: None,
            memo: Some("inert".into()),
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "snake-journal-test-{}-{name}.jsonl",
            std::process::id()
        ));
        p
    }

    fn header(implementation: &str, seed: u64) -> JournalHeader {
        JournalHeader {
            implementation: implementation.into(),
            seed,
            threshold: 0.5,
            memoize: Some(true),
            impairment: Some("none".into()),
        }
    }

    #[test]
    fn outcomes_roundtrip_through_json() {
        let mut o = outcome(7);
        o.outcome_kind = OutcomeKind::Errored;
        o.error = Some("engine panicked: index out of bounds".into());
        let text = o.to_json().to_string_compact();
        assert!(!text.contains('\n'));
        let back = StrategyOutcome::from_json(&snake_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, o);
    }

    #[test]
    fn write_then_load_preserves_everything() {
        let path = temp_path("roundtrip");
        let header = header("Linux 3.13", 42);
        let mut w = JournalWriter::create(&path, &header).unwrap();
        w.record(&outcome(1)).unwrap();
        w.record(&outcome(2)).unwrap();
        drop(w);
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.header, Some(header));
        assert_eq!(loaded.outcomes.len(), 2);
        assert_eq!(loaded.outcomes[0], outcome(1));
        assert_eq!(loaded.malformed_lines, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partial_final_line_is_skipped_not_fatal() {
        let path = temp_path("partial");
        let header = header("x", 1);
        let mut w = JournalWriter::create(&path, &header).unwrap();
        w.record(&outcome(1)).unwrap();
        drop(w);
        // Simulate a writer killed mid-append: a truncated JSON fragment.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"type\":\"outcome\",\"outcome\":\"ok\",\"err");
        std::fs::write(&path, text).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.outcomes.len(), 1);
        assert_eq!(loaded.malformed_lines, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn counters_roundtrip_through_the_journal() {
        let path = temp_path("counters");
        let header = header("x", 1);
        let mut w = JournalWriter::create(&path, &header).unwrap();
        w.record_with_counters(&outcome(1), &[("exec.runs.from_scratch".into(), 3)])
            .unwrap();
        w.record(&outcome(2)).unwrap();
        drop(w);
        let mut r = JournalReader::open(&path).unwrap();
        let first = r.next_entry().unwrap().expect("first entry");
        assert_eq!(first.outcome, outcome(1));
        assert_eq!(
            first.counters,
            vec![("exec.runs.from_scratch".to_owned(), 3)]
        );
        let second = r.next_entry().unwrap().expect("second entry");
        assert_eq!(second.outcome, outcome(2));
        assert!(second.counters.is_empty(), "no field decodes as no deltas");
        assert!(r.next_entry().unwrap().is_none());
        assert_eq!(r.malformed_lines(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_empty_journal() {
        let loaded = load(Path::new("/nonexistent/snake-journal.jsonl")).unwrap();
        assert!(loaded.header.is_none());
        assert!(loaded.outcomes.is_empty());
    }

    #[test]
    fn stalled_outcomes_roundtrip_through_the_journal() {
        let path = temp_path("stalled");
        let header = header("x", 1);
        let mut o = outcome(9);
        o.outcome_kind = OutcomeKind::Stalled;
        o.error = Some("stalled: no outcome within 2s in any of 3 attempts; quarantined".into());
        o.verdict = Verdict::default();
        o.repeatable = false;
        o.memo = None;
        let mut w = JournalWriter::create(&path, &header).unwrap();
        w.record(&o).unwrap();
        drop(w);
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.outcomes, vec![o]);
        assert_eq!(loaded.malformed_lines, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_checksum_line_is_skipped_not_trusted() {
        let path = temp_path("corrupt");
        let header = header("x", 1);
        let mut w = JournalWriter::create(&path, &header).unwrap();
        w.record(&outcome(1)).unwrap();
        w.record(&outcome(2)).unwrap();
        drop(w);
        // Damage outcome 2's payload in place without touching its
        // checksum: the line still parses as JSON, so only the checksum
        // can reveal the corruption.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let last = lines.last_mut().unwrap();
        let damaged = last.replace("\"target_bytes\":123", "\"target_bytes\":999");
        assert_ne!(*last, damaged, "the replacement must hit");
        *last = damaged;
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.outcomes.len(), 1, "the damaged line must be dropped");
        assert_eq!(loaded.outcomes[0].strategy.id, 1);
        assert_eq!(loaded.malformed_lines, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_journals_without_checksums_still_load() {
        let path = temp_path("legacy");
        // A legacy header predates the memoize/impairment fields too.
        let header = JournalHeader {
            implementation: "x".into(),
            seed: 1,
            threshold: 0.5,
            memoize: None,
            impairment: None,
        };
        // A pre-checksum journal: bare JSON lines, no tab suffix.
        let mut text = header.to_json().to_string_compact();
        text.push('\n');
        text.push_str(&outcome(1).to_json().to_string_compact());
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.header, Some(header));
        assert_eq!(loaded.outcomes, vec![outcome(1)]);
        assert_eq!(loaded.malformed_lines, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_mismatch_reports_every_drifted_field() {
        let ours = header("x", 1);
        assert_eq!(ours.mismatch_against(&ours), None);

        let mut other = header("x", 1);
        other.seed = 2;
        other.memoize = Some(false);
        other.impairment = Some("loss=0.02".into());
        let detail = other.mismatch_against(&ours).expect("must mismatch");
        assert!(detail.contains("seed"), "{detail}");
        assert!(detail.contains("memoize=false"), "{detail}");
        assert!(detail.contains("loss=0.02"), "{detail}");

        // A legacy header that never recorded memoize/impairment matches
        // any current setting — resuming old journals must keep working.
        let legacy = JournalHeader {
            memoize: None,
            impairment: None,
            ..header("x", 1)
        };
        assert_eq!(legacy.mismatch_against(&ours), None);
        let mut degraded = ours.clone();
        degraded.memoize = Some(false);
        assert!(legacy.mismatch_against(&degraded).is_none());
    }

    #[test]
    fn header_roundtrips_with_and_without_optional_fields() {
        let full = header("Linux 3.13", 9);
        let back = JournalHeader::from_json(
            &snake_json::parse(&full.to_json().to_string_compact()).unwrap(),
        )
        .unwrap();
        assert_eq!(back, full);
        let legacy = JournalHeader {
            memoize: None,
            impairment: None,
            ..header("Linux 3.13", 9)
        };
        let text = legacy.to_json().to_string_compact();
        assert!(!text.contains("memoize"), "absent fields are not written");
        let back = JournalHeader::from_json(&snake_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, legacy);
    }

    #[test]
    fn memo_markers_decode_strictly() {
        let with_memo = |memo: &str| {
            let mut json = outcome(3).to_json();
            if let Value::Obj(pairs) = &mut json {
                for (k, v) in pairs.iter_mut() {
                    if k == "memo" {
                        *v = Value::Str(memo.into());
                    }
                }
            }
            StrategyOutcome::from_json(&json)
        };
        for marker in ["inert", "class", "halt"] {
            let back = with_memo(marker).expect("a current marker decodes");
            assert_eq!(back.memo.as_deref(), Some(marker));
        }
        // The retired fingerprint-cache marker reads as an ordinary run.
        assert_eq!(with_memo("fp").expect("legacy marker decodes").memo, None);
        assert!(with_memo("bogus").is_err());
        assert!(with_memo("").is_err());
    }

    #[test]
    fn unknown_memo_marker_is_a_malformed_line() {
        let path = temp_path("bad-memo");
        let header = header("x", 1);
        let mut w = JournalWriter::create(&path, &header).unwrap();
        w.record(&outcome(1)).unwrap();
        drop(w);
        // A correctly checksummed line whose marker is unknown must be
        // skipped and counted exactly like a checksum failure.
        let bad = outcome(2)
            .to_json()
            .to_string_compact()
            .replace("\"memo\":\"inert\"", "\"memo\":\"warp\"");
        assert!(bad.contains("warp"), "the replacement must hit");
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&checksummed_line(&bad));
        std::fs::write(&path, text).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.outcomes, vec![outcome(1)]);
        assert_eq!(loaded.malformed_lines, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scenario_digest_is_pinned() {
        // Journal and segment headers and shard handshakes carry these
        // values; a change here orphans them.
        use crate::scenario::ProtocolKind;
        let tcp =
            ScenarioSpec::quick(ProtocolKind::Tcp(snake_tcp::Profile::linux_3_13())).with_seed(7);
        let dccp =
            ScenarioSpec::evaluation(ProtocolKind::Dccp(snake_dccp::DccpProfile::linux_3_13()))
                .with_seed(7);
        assert_eq!(scenario_digest(&tcp, 0.5, 1), 0xa05d_644d_9653_7e56);
        assert_eq!(scenario_digest(&dccp, 0.5, 1), 0x0ce3_abf2_f5ee_9337);
    }

    #[test]
    fn digest_moves_with_every_verdict_relevant_knob() {
        use crate::scenario::ProtocolKind;
        use snake_netsim::Impairment;
        let spec = ScenarioSpec::quick(ProtocolKind::Tcp(snake_tcp::Profile::linux_3_13()));
        let base = scenario_digest(&spec, 0.5, 1);
        assert_eq!(base, scenario_digest(&spec.clone(), 0.5, 1), "stable");
        assert_ne!(base, scenario_digest(&spec, 0.4, 1), "threshold");
        assert_ne!(base, scenario_digest(&spec, 0.5, 3), "baseline reps");
        let mut other = spec.clone();
        other.seed += 1;
        assert_ne!(base, scenario_digest(&other, 0.5, 1), "seed");
        let impaired = spec
            .clone()
            .with_impairment(Impairment::preset("lossy").unwrap());
        assert_ne!(base, scenario_digest(&impaired, 0.5, 1), "impairment");
        let mut shorter = spec;
        shorter.data_secs -= 1;
        assert_ne!(base, scenario_digest(&shorter, 0.5, 1), "workload");
    }

    #[test]
    fn create_leaves_no_temporary_file_behind() {
        let header = header("x", 1);
        for create in [JournalWriter::create, JournalWriter::create_segment] {
            let path = temp_path("atomic");
            let mut w = create(&path, &header).unwrap();
            w.record(&outcome(1)).unwrap();
            drop(w);
            let mut tmp = path.as_os_str().to_owned();
            tmp.push(".tmp");
            assert!(
                !Path::new(&tmp).exists(),
                "header temp file must be renamed away"
            );
            // The writer kept appending through the renamed handle, so the
            // final file holds both the header and the outcome.
            let loaded = load(&path).unwrap();
            assert!(loaded.header.is_some());
            assert_eq!(loaded.outcomes.len(), 1);
            std::fs::remove_file(&path).ok();
        }
    }

    fn campaign_header(digest: u64, memoize: bool) -> CampaignHeader {
        CampaignHeader {
            fields: JournalHeader {
                memoize: Some(memoize),
                ..header("x", 1)
            },
            digest: Some(digest),
        }
    }

    #[test]
    fn digest_drift_is_named_and_a_digestless_header_matches() {
        let ours = campaign_header(0xd1e5, true);
        assert_eq!(ours.mismatch_against(&ours), None);
        let stale = campaign_header(0xbeef, false);
        let detail = stale.mismatch_against(&ours).expect("must mismatch");
        assert!(detail.contains("scenario digest"), "{detail}");
        assert!(
            detail.contains("memoize=false"),
            "field diffs stay listed: {detail}"
        );
        // A header written without a digest resumes, like legacy headers
        // without memoize or impairment.
        let legacy = CampaignHeader {
            digest: None,
            ..ours.clone()
        };
        assert_eq!(legacy.mismatch_against(&ours), None);
        let back = CampaignHeader::from_json(
            &snake_json::parse(&ours.to_json().to_string_compact()).unwrap(),
        )
        .unwrap();
        assert_eq!(back, ours);
    }

    fn counters(n: u64) -> Vec<(String, u64)> {
        vec![
            ("exec.runs.from_scratch".into(), n),
            ("netsim.events".into(), 10 * n),
        ]
    }

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("snake-segment-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        clear_dir(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    /// Writes a segment under the default test header (digest 0xd1e5,
    /// memoize on).
    fn write_segment(dir: &Path, shard: usize, generation: u64, ids: &[u64]) -> PathBuf {
        let path = segment_file(dir, shard, generation);
        let mut w = JournalWriter::create(&path, &campaign_header(0xd1e5, true)).unwrap();
        for &id in ids {
            w.record_with_counters(&outcome(id), &counters(id)).unwrap();
        }
        path
    }

    /// Reads `dir` against the default test header with nothing journaled.
    fn fold(dir: &Path) -> (BTreeMap<u64, JournalEntry>, u64) {
        read_segments(dir, &campaign_header(0xd1e5, true), &BTreeMap::new()).unwrap()
    }

    #[test]
    fn write_then_merge_roundtrips_outcomes_and_counters() {
        let dir = temp_dir("roundtrip");
        write_segment(&dir, 0, 0, &[3, 5]);
        let (entries, discarded) = fold(&dir);
        assert_eq!(entries.len(), 2);
        assert_eq!(discarded, 0);
        assert_eq!(entries[&3].outcome, outcome(3));
        assert_eq!(entries[&5].counters, counters(5));
        clear_dir(&dir);
    }

    #[test]
    fn journal_covered_outcomes_are_discarded() {
        let dir = temp_dir("journal-wins");
        write_segment(&dir, 0, 0, &[1, 2, 3]);
        let journaled = BTreeMap::from([(
            2,
            JournalEntry {
                outcome: outcome(2),
                counters: Vec::new(),
            },
        )]);
        let (entries, discarded) =
            read_segments(&dir, &campaign_header(0xd1e5, true), &journaled).unwrap();
        assert_eq!(entries.keys().copied().collect::<Vec<_>>(), [1, 3]);
        assert_eq!(discarded, 1, "the already-journaled id must be dropped");
        clear_dir(&dir);
    }

    #[test]
    fn duplicate_range_across_two_segments_keeps_one_copy() {
        // A worker died after writing its range; the range was
        // re-dispatched and a survivor wrote it again. Both copies are
        // identical (evaluation is deterministic); exactly one merges.
        let dir = temp_dir("duplicate");
        write_segment(&dir, 0, 0, &[4, 5]);
        write_segment(&dir, 1, 0, &[5, 6]);
        let (entries, discarded) = fold(&dir);
        assert_eq!(discarded, 1, "the duplicated id must be counted once");
        assert_eq!(entries.keys().copied().collect::<Vec<_>>(), [4, 5, 6]);
        clear_dir(&dir);
    }

    #[test]
    fn empty_and_header_only_segments_merge_to_nothing() {
        // A worker that died before its first outcome leaves either a
        // zero-byte file or a header-only one.
        let dir = temp_dir("empty");
        std::fs::write(segment_file(&dir, 0, 0), "").unwrap();
        write_segment(&dir, 1, 0, &[]);
        assert_eq!(fold(&dir), (BTreeMap::new(), 0));
        clear_dir(&dir);
    }

    #[test]
    fn segment_with_other_digest_or_memoize_is_discarded_whole() {
        let dir = temp_dir("mismatch");
        write_segment(&dir, 0, 0, &[1, 2]); // digest 0xd1e5, memoize on
        let (entries, discarded) =
            read_segments(&dir, &campaign_header(0xbeef, true), &BTreeMap::new()).unwrap();
        assert!(entries.is_empty());
        assert_eq!(discarded, 3, "both lines plus the rejected header");
        // Same digest, different memoize mode: provenance markers would
        // not line up, so the file is equally unusable.
        let (entries, _) =
            read_segments(&dir, &campaign_header(0xd1e5, false), &BTreeMap::new()).unwrap();
        assert!(entries.is_empty());
        // So is a header without a digest: segments must match exactly.
        let digestless = CampaignHeader {
            digest: None,
            ..campaign_header(0xd1e5, true)
        };
        let path = segment_file(&dir, 1, 0);
        let mut w = JournalWriter::create(&path, &digestless).unwrap();
        w.record_with_counters(&outcome(3), &counters(3)).unwrap();
        let (entries, _) = fold(&dir);
        assert_eq!(entries.keys().copied().collect::<Vec<_>>(), [1, 2]);
        clear_dir(&dir);
    }

    #[test]
    fn headerless_segment_is_discarded_whole() {
        let dir = temp_dir("headerless");
        let mut text = String::new();
        for id in [1, 2] {
            text.push_str(&checksummed_line(
                &outcome(id).to_json().to_string_compact(),
            ));
        }
        std::fs::write(segment_file(&dir, 0, 0), text).unwrap();
        assert_eq!(fold(&dir), (BTreeMap::new(), 2));
        clear_dir(&dir);
    }

    #[test]
    fn parent_format_segment_is_discarded_whole() {
        // The format segments had before they became journals: a
        // `segment` header, then one `eval` line per outcome.
        let dir = temp_dir("parent-format");
        let mut text = checksummed_line(
            &obj([
                ("type", Value::Str("segment".into())),
                ("version", Value::U64(1)),
                ("shard", Value::U64(0)),
                ("digest", Value::Str(format!("{:016x}", 0xd1e5))),
                ("memoize", Value::Bool(true)),
            ])
            .to_string_compact(),
        );
        for id in [1, 2] {
            let eval = obj([
                ("type", Value::Str("eval".into())),
                ("index", Value::U64(id)),
                ("busy_nanos", Value::U64(1_000)),
                ("counters", counters_json(&counters(id))),
                ("outcome", outcome(id).to_json()),
            ]);
            text.push_str(&checksummed_line(&eval.to_string_compact()));
        }
        std::fs::write(segment_file(&dir, 0, 0), text).unwrap();
        assert_eq!(fold(&dir), (BTreeMap::new(), 3));
        clear_dir(&dir);
    }

    #[test]
    fn missing_directory_is_an_empty_merge() {
        assert_eq!(
            fold(Path::new("/nonexistent/snake.segments")),
            (BTreeMap::new(), 0)
        );
    }

    #[test]
    fn clear_dir_also_removes_a_torn_create() {
        let dir = temp_dir("clear");
        let seg = write_segment(&dir, 0, 0, &[1]);
        let mut tmp = seg.as_os_str().to_owned();
        tmp.push(".tmp");
        std::fs::write(&tmp, "").unwrap();
        clear_dir(&dir);
        assert!(
            !dir.exists(),
            "segments, the temp file and the dir are gone"
        );
    }
}
