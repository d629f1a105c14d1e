//! Per-layer metrics of a traced rep, from three sources, none of which
//! adds tracing inside the program:
//!
//! 1. the `Recorder` the campaign ran under (the `phase.*`, `exec.runs.*`,
//!    `netsim.*`, `worker.*` and `shard.*` spans and counters);
//! 2. probes that time calls into a layer's public functions on the
//!    workload's own inputs (`generate_strategies`, `PlannedExecutor`
//!    against `Executor::run`, `detect_enveloped`, `JournalWriter`);
//! 3. the simulation rig (see [`crate::rig`]).

use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use snake_core::journal::{JournalHeader, JournalWriter};
use snake_core::{
    detect_enveloped, generate_strategies, CampaignResult, Executor, GenerationParams, OutcomeKind,
    PlannedExecutor, RecorderSnapshot, ScenarioSpec, DEFAULT_THRESHOLD,
};
use snake_netsim::SimTime;
use snake_proxy::{StateTimeline, Strategy, StrategyKind};

use crate::rig::{self, Layer, Rig};
use crate::workload::{executor_options, Workload};

/// Strategies the executor probe replays, spread evenly over the campaign.
const EXECUTOR_SAMPLE: usize = 24;
/// The planner's cap on snapshots per plan (thinned evenly above it).
const MAX_SNAPSHOTS: usize = 64;

type Metrics = Vec<(&'static str, f64, &'static str)>;

pub fn layer_metrics(
    w: Workload,
    seed: u64,
    scratch: &Path,
    result: &CampaignResult,
    snap: &RecorderSnapshot,
    campaign_s: f64,
) -> Metrics {
    let spec = w.spec(seed);
    let spans = snap.span_totals();
    let span_s = |name: &str| spans.get(name).map_or(0.0, |&(_, ns)| ns as f64 / 1e9);
    let hist_s = |name: &str| {
        snap.histograms
            .get(name)
            .map_or(0.0, |h| h.sum as f64 / 1e9)
    };
    let count = |name: &str| snap.counter(name) as f64;
    let mut m: Metrics = Vec::new();

    // netsim: campaign-wide counters; the per-event cost comes from the rig.
    m.push(("netsim.events", count("netsim.events"), "count"));
    let draws = [
        "lost",
        "duplicated",
        "corrupted",
        "reordered",
        "flap_dropped",
    ]
    .iter()
    .map(|k| snap.counter(&format!("netsim.impair.{k}")) as f64)
    .sum();
    m.push(("netsim.impair_draws", draws, "count"));
    m.push(("netsim.arena_alloc", count("netsim.arena.alloc"), "count"));
    m.extend(rig_metrics(&spec));

    // scenario: set-up spans and run counts from the campaign, per-run
    // cost from the executor probe.
    m.push(("scenario.baseline_s", span_s("phase.baseline"), "s"));
    m.push(("scenario.snapshot_s", span_s("phase.snapshotting"), "s"));
    m.push((
        "scenario.snapshots",
        count("netsim.snapshot_forks"),
        "count",
    ));
    m.push((
        "scenario.fork_clone_mb",
        count("netsim.fork_clone_bytes") / (1024.0 * 1024.0),
        "MiB",
    ));
    m.push((
        "scenario.runs_scratch",
        count("exec.runs.from_scratch"),
        "count",
    ));
    m.push(("scenario.runs_forked", count("exec.runs.forked"), "count"));
    m.extend(executor_probe(&spec, result));

    // memo
    let marked = |marker: &str| {
        result
            .outcomes
            .iter()
            .filter(|o| o.memo.as_deref() == Some(marker))
            .count() as f64
    };
    let avoided = count("exec.runs.elided") + marked("inert") + marked("class");
    let executed =
        count("exec.runs.from_scratch") + count("exec.runs.forked") + count("exec.runs.halted");
    m.push(("memo.runs_avoided", avoided, "count"));
    m.push((
        "memo.avoided_frac",
        ratio(avoided, avoided + executed),
        "frac",
    ));
    let accounted: u64 = result.outcomes.iter().map(|o| o.metrics.sim_events).sum();
    m.push((
        "memo.events_avoided",
        accounted as f64 - count("netsim.events"),
        "count",
    ));

    // campaign dispatch: in-process workers report `worker.*`, shard
    // workers are timed by the controller as `shard.*`.
    let (busy_s, idle_s) = if w.is_sharded() {
        (hist_s("shard.busy_nanos"), hist_s("shard.idle_nanos"))
    } else {
        (hist_s("worker.busy_nanos"), hist_s("worker.idle_nanos"))
    };

    // detect: retests run inside the workers; shard workers' spans stay in
    // their own processes, so there the retest time is estimated from a
    // probe of the re-test executor.
    let verdict_ns = verdict_probe(result);
    let (retests, retest_s) = match spans.get("phase.retests") {
        Some(&(n, ns)) => (n as f64, ns as f64 / 1e9),
        None => retest_estimate(&spec, result, verdict_ns),
    };
    m.push(("detect.retests", retests, "count"));
    m.push(("detect.retest_s", retest_s, "s"));
    m.push(("detect.retest_frac", ratio(retest_s, busy_s), "frac"));
    m.push(("detect.ensemble_s", span_s("phase.ensemble"), "s"));
    m.push(("detect.escalated", result.escalated as f64, "count"));
    m.push(("detect.ns_per_verdict", verdict_ns, "ns"));

    let (generate_ms, strategies) = strategen_probe(&spec, result);
    m.push(("strategen.generate_ms", generate_ms, "ms"));
    m.push(("strategen.strategies", strategies, "count"));

    let batch_s = span_s("phase.batch");
    let setup_s =
        span_s("phase.baseline") + span_s("phase.snapshotting") + span_s("phase.ensemble");
    m.push(("campaign.batch_s", batch_s, "s"));
    m.push(("campaign.worker_busy_s", busy_s, "s"));
    m.push(("campaign.worker_idle_s", idle_s, "s"));
    m.push(("campaign.idle_frac", ratio(idle_s, busy_s + idle_s), "frac"));
    m.push(("campaign.serial_s", campaign_s - setup_s - batch_s, "s"));

    let (append_us, bytes_per_outcome) = journal_probe(&spec, scratch, result);
    m.push(("journal.append_us", append_us, "us"));
    m.push(("journal.bytes_per_outcome", bytes_per_outcome, "B"));

    m.push(("shard.launch_s", span_s("phase.shard_launch"), "s"));
    m.push(("shard.busy_s", hist_s("shard.busy_nanos"), "s"));
    m.push(("shard.idle_s", hist_s("shard.idle_nanos"), "s"));
    m.push((
        "shard.ranges_dispatched",
        count("shard.ranges_dispatched"),
        "count",
    ));
    m.push((
        "shard.ranges_redispatched",
        count("shard.ranges_redispatched"),
        "count",
    ));
    m.push((
        "shard.outcome_batches",
        count("shard.outcome_batches"),
        "count",
    ));
    m.push((
        "shard.segments_written",
        count("shard.segments.written"),
        "count",
    ));
    m
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Engine, proxy and simulator self time from the rig, after checking the
/// rig reproduces `Executor::run(spec, None)`. On a mismatch the rig's
/// metrics are left out rather than estimated from a different program.
fn rig_metrics(spec: &ScenarioSpec) -> Metrics {
    let reference = Executor::run(spec, None);
    let clock_ns = rig::calibrate_clock_ns();
    let mut plain = Vec::new();
    let mut rigged = Vec::new();
    let mut runs = Vec::new();
    let started = Instant::now();
    while runs.len() < 3 || (started.elapsed() < Duration::from_secs(2) && runs.len() < 25) {
        let t = Instant::now();
        black_box(Executor::run(spec, None));
        plain.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let (run, _) = Rig::build(spec, false).run();
        rigged.push(t.elapsed().as_secs_f64());
        if !run.matches(&reference) {
            eprintln!(
                "perfbench: rig run differs from Executor::run (target {} vs {}, competing {} vs \
                 {}, events {} vs {}); rig metrics left out",
                run.target_bytes,
                reference.target_bytes,
                run.competing_bytes,
                reference.competing_bytes,
                run.events,
                reference.sim_events
            );
            return Vec::new();
        }
        runs.push(run);
    }
    let layer_ns = |layer: Layer| {
        median(
            runs.iter()
                .map(|r| r.clocks[layer as usize].estimated_nanos(clock_ns))
                .collect(),
        )
    };
    let per_call =
        |layer: Layer| ratio(layer_ns(layer), runs[0].clocks[layer as usize].calls as f64);
    let (tcp, dccp, proxy) = (
        layer_ns(Layer::Tcp),
        layer_ns(Layer::Dccp),
        layer_ns(Layer::Proxy),
    );
    let plain_s = median(plain);
    let netsim_ns = (plain_s * 1e9 - tcp - dccp - proxy).max(0.0);
    vec![
        (
            "netsim.ns_per_event",
            ratio(netsim_ns, runs[0].events as f64),
            "ns",
        ),
        ("tcp.ns_per_call", per_call(Layer::Tcp), "ns"),
        ("dccp.ns_per_call", per_call(Layer::Dccp), "ns"),
        (
            "proxy.ns_per_packet",
            ratio(proxy, runs[0].packets_seen as f64),
            "ns",
        ),
        ("proxy.packets_seen", runs[0].packets_seen as f64, "count"),
        ("rig.overhead", ratio(median(rigged), plain_s), "x"),
    ]
}

/// The simulated time a strategy's rules could first fire in the
/// baseline, as the snapshot planner decides it (`None`: not forkable).
fn trigger_time(timeline: &StateTimeline, strategy: &Strategy) -> Option<SimTime> {
    match &strategy.kind {
        StrategyKind::OnPacket {
            endpoint,
            state,
            packet_type,
            ..
        } => timeline
            .packets
            .get(&(*endpoint, state.clone(), packet_type.clone()))
            .map(|seen| seen.first_at),
        StrategyKind::OnState {
            endpoint, state, ..
        } => timeline
            .states
            .get(&(*endpoint, state.clone()))
            .map(|seen| seen.first_at),
        _ => None,
    }
}

/// The planner's snapshot times: one nanosecond before each first trigger
/// activation of the baseline, thinned evenly to at most
/// [`MAX_SNAPSHOTS`].
fn snapshot_times(timeline: &StateTimeline, end: SimTime) -> Vec<SimTime> {
    let mut times: Vec<SimTime> = timeline
        .states
        .values()
        .map(|seen| seen.first_at)
        .chain(timeline.packets.values().map(|seen| seen.first_at))
        .filter(|t| t.as_nanos() > 0 && *t < end)
        .map(|t| SimTime::from_nanos(t.as_nanos() - 1))
        .collect();
    times.sort_unstable();
    times.dedup();
    if times.len() > MAX_SNAPSHOTS {
        let step = times.len().div_ceil(MAX_SNAPSHOTS);
        times = times.into_iter().step_by(step).collect();
    }
    times
}

/// Replays an even sample of the campaign's strategies through a
/// `PlannedExecutor` (forking) and through `Executor::run` (from
/// scratch). A forked run's simulated events are its total minus the
/// events the baseline had processed at the snapshot it forked from.
fn executor_probe(spec: &ScenarioSpec, result: &CampaignResult) -> Metrics {
    let exec = PlannedExecutor::new(spec, executor_options());
    let end = SimTime::from_secs(spec.data_secs() + spec.grace_secs());
    let (_, timeline) = Rig::build(spec, true).run();
    let timeline = timeline.unwrap_or_default();
    let times = snapshot_times(&timeline, end);
    let prefix_events =
        (times.len() == exec.snapshot_count()).then(|| Rig::build(spec, false).events_at(&times));
    if prefix_events.is_none() {
        eprintln!(
            "perfbench: planner made {} snapshots, the probe expected {}; forked event counts \
             left out",
            exec.snapshot_count(),
            times.len()
        );
    }

    let n = result.outcomes.len();
    let k = EXECUTOR_SAMPLE.min(n);
    let (mut forked_ms, mut forked_events, mut scratch_ms, mut scratch_events) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..k {
        let strategy = &result.outcomes[i * n / k].strategy;
        let t = Instant::now();
        let (metrics, info) = exec.run_with_info(Some(strategy.clone()));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if info.forked {
            forked_ms.push(ms);
            let fork_at = trigger_time(&timeline, strategy)
                .and_then(|at| times.iter().rposition(|&snap| snap < at));
            if let (Some(prefix), Some(idx)) = (&prefix_events, fork_at) {
                forked_events.push(metrics.sim_events.saturating_sub(prefix[idx]) as f64);
            }
        }
        let t = Instant::now();
        let scratch = Executor::run(spec, Some(strategy.clone()));
        scratch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        scratch_events.push(scratch.sim_events as f64);
    }
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    let mut m = vec![
        ("scenario.run_ms_forked", mean(&forked_ms), "ms"),
        ("scenario.run_ms_scratch", mean(&scratch_ms), "ms"),
        (
            "scenario.events_per_run_scratch",
            mean(&scratch_events),
            "count",
        ),
    ];
    if prefix_events.is_some() {
        m.push((
            "scenario.events_per_run_forked",
            mean(&forked_events),
            "count",
        ));
    }
    m
}

/// Mean cost of one `detect_enveloped` call over every outcome's metrics.
fn verdict_probe(result: &CampaignResult) -> f64 {
    let t = Instant::now();
    for o in &result.outcomes {
        black_box(detect_enveloped(&result.envelope, black_box(&o.metrics)));
    }
    ratio(t.elapsed().as_nanos() as f64, result.outcomes.len() as f64)
}

/// Retest count and time where the retests ran in shard workers: every
/// flagged outcome that was actually evaluated (not copied from a class
/// representative, not answered as inert) was re-tested, plus every
/// escalated borderline one; each costs a re-test-seed run plus a
/// verdict, timed here on a sample.
fn retest_estimate(spec: &ScenarioSpec, result: &CampaignResult, verdict_ns: f64) -> (f64, f64) {
    let flagged: Vec<&Strategy> = result
        .outcomes
        .iter()
        .filter(|o| {
            o.outcome_kind == OutcomeKind::Ok
                && o.verdict.flagged()
                && !matches!(o.memo.as_deref(), Some("class") | Some("inert"))
        })
        .map(|o| &o.strategy)
        .collect();
    let retests = (flagged.len() + result.escalated) as f64;
    if flagged.is_empty() {
        return (retests, 0.0);
    }
    let retest_spec = spec.clone().with_seed(spec.seed().wrapping_add(1));
    let exec = PlannedExecutor::new(&retest_spec, executor_options());
    let k = EXECUTOR_SAMPLE.min(flagged.len());
    let t = Instant::now();
    for i in 0..k {
        black_box(exec.run(Some(flagged[i * flagged.len() / k].clone())));
    }
    let per_retest = t.elapsed().as_secs_f64() / k as f64 + verdict_ns / 1e9;
    (retests, retests * per_retest)
}

/// Replays the campaign's generation rounds: round 0 from the baseline
/// report, each later round adding the reports of the previous rounds'
/// completed outcomes.
fn strategen_probe(spec: &ScenarioSpec, result: &CampaignResult) -> (f64, f64) {
    let params = GenerationParams::default();
    let mut next_id = 0u64;
    let mut seen = BTreeSet::new();
    let mut reports = vec![result.baseline.proxy.clone()];
    let (mut consumed, mut generated) = (0usize, 0usize);
    let mut elapsed = Duration::ZERO;
    while consumed < result.outcomes.len() {
        let refs: Vec<&_> = reports.iter().map(|r| r.as_ref()).collect();
        let t = Instant::now();
        let fresh = generate_strategies(spec.protocol(), &refs, &params, &mut next_id, &mut seen);
        elapsed += t.elapsed();
        if fresh.is_empty() {
            break;
        }
        generated += fresh.len();
        let round_end = (consumed + fresh.len()).min(result.outcomes.len());
        for o in &result.outcomes[consumed..round_end] {
            if o.outcome_kind == OutcomeKind::Ok {
                reports.push(o.metrics.proxy.clone());
            }
        }
        consumed = round_end;
    }
    (elapsed.as_secs_f64() * 1e3, generated as f64)
}

/// Appends every outcome to a fresh journal, as the campaign's admission
/// path does (one checksummed, flushed line each).
fn journal_probe(spec: &ScenarioSpec, scratch: &Path, result: &CampaignResult) -> (f64, f64) {
    let path = scratch.join("journal-probe.jsonl");
    let header = JournalHeader {
        implementation: spec.protocol().implementation_name().to_owned(),
        seed: spec.seed(),
        threshold: DEFAULT_THRESHOLD,
        memoize: Some(true),
        impairment: Some(spec.bottleneck().impair.to_string()),
    };
    let appended = (|| -> std::io::Result<(f64, u64, u64)> {
        let mut writer = JournalWriter::create(&path, &header)?;
        let header_bytes = std::fs::metadata(&path)?.len();
        let t = Instant::now();
        for o in &result.outcomes {
            writer.record(o)?;
        }
        let secs = t.elapsed().as_secs_f64();
        drop(writer);
        Ok((secs, header_bytes, std::fs::metadata(&path)?.len()))
    })();
    std::fs::remove_file(&path).ok();
    match appended {
        Ok((secs, header_bytes, total_bytes)) => {
            let n = result.outcomes.len() as f64;
            (
                ratio(secs * 1e6, n),
                ratio((total_bytes - header_bytes) as f64, n),
            )
        }
        Err(e) => {
            eprintln!("perfbench: journal probe failed: {e}");
            (0.0, 0.0)
        }
    }
}
