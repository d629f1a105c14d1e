//! `perfbench` — one benchmark rep per process.
//!
//! ```text
//! perfbench rep   --workload W --seed N --scratch DIR [--trace]
//! perfbench setup --workload W --seed N
//! perfbench shard-worker --connect ADDR
//! ```
//!
//! `rep` runs one campaign through `Campaign::run` and prints one JSON
//! line: its wall, CPU and peak-RSS figures, the Table I row, the Table II
//! attack names and the digest of the per-strategy outcome projection
//! (the correctness gate compares these with `reference.json`). With
//! `--trace` the campaign runs under a `Recorder`, and the line gains the
//! per-layer metrics from the recorder, the layer probes and the rig.
//! `setup` times the set-up calls a campaign makes before it can dispatch
//! anything. `shard-worker` is what the sharded workload spawns.
//! `perfbench/run.py` drives these and prints the benchmark's result.

mod rig;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use snake_core::{
    Campaign, CampaignResult, Executor, Observer, OutcomeKind, PlannedExecutor, Recorder,
};
use snake_json::{obj, Value};

use workload::{ensemble_seed, executor_options, Workload};

struct Args {
    command: String,
    workload: Option<Workload>,
    seed: u64,
    scratch: PathBuf,
    trace: bool,
    connect: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let command = raw
        .next()
        .ok_or("missing command (rep, setup, shard-worker)")?;
    let mut args = Args {
        command,
        workload: None,
        seed: 7,
        scratch: PathBuf::from(".bench_tmp"),
        trace: false,
        connect: None,
    };
    while let Some(flag) = raw.next() {
        if flag == "--trace" {
            args.trace = true;
            continue;
        }
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--scratch" => args.scratch = PathBuf::from(value),
            "--connect" => args.connect = Some(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.command.as_str() {
        "shard-worker" => {
            let addr = args.connect.ok_or("shard-worker needs --connect")?;
            snake_core::run_shard_worker(&addr).map_err(|e| format!("shard worker: {e}"))
        }
        "rep" => rep(&args),
        "setup" => {
            let w = args.workload.ok_or("setup needs --workload")?;
            println!("{}", obj([("setup_s", Value::F64(setup_s(w, args.seed)))]));
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Wall time of the set-up calls `Campaign::run` makes before it can
/// dispatch: the planned executors for the campaign seed and the re-test
/// seed, and the K−1 extra envelope members of each.
fn setup_s(w: Workload, seed: u64) -> f64 {
    let spec = w.spec(seed);
    let retest_spec = spec.clone().with_seed(seed.wrapping_add(1));
    let t0 = Instant::now();
    for s in [&spec, &retest_spec] {
        let exec = PlannedExecutor::new(s, executor_options());
        std::hint::black_box(exec.baseline());
        for k in 1..w.baseline_reps() {
            let member = s.clone().with_seed(ensemble_seed(s.seed(), k));
            std::hint::black_box(Executor::run(&member, None));
        }
    }
    t0.elapsed().as_secs_f64()
}

/// Counts the shard ranges a controller dispatched, without turning
/// observation on (`enabled` stays false, so the campaign takes the same
/// paths as under the default no-op observer).
#[derive(Default)]
struct ShardWatch(AtomicU64);

impl Observer for ShardWatch {
    fn counter_add(&self, name: &'static str, delta: u64) {
        if name == "shard.ranges_dispatched" {
            self.0.fetch_add(delta, Ordering::Relaxed);
        }
    }
}

fn rep(args: &Args) -> Result<(), String> {
    let w = args.workload.ok_or("rep needs --workload")?;
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("scratch {}: {e}", args.scratch.display()))?;
    let watch = Arc::new(ShardWatch::default());
    let recorder = Arc::new(Recorder::new());
    let observer: Arc<dyn Observer> = if args.trace {
        recorder.clone()
    } else if w.is_sharded() {
        watch.clone()
    } else {
        snake_observe::noop()
    };
    let config = w.config(args.seed, &args.scratch, observer)?;

    let cpu0 = cpu_seconds()?;
    let t0 = Instant::now();
    let result = Campaign::run(config).map_err(|e| format!("campaign: {e}"))?;
    let campaign_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds()? - cpu0;
    let peak_rss_mb = peak_rss_mb()?;

    let snapshot = args.trace.then(|| recorder.snapshot());
    if w.is_sharded() {
        let dispatched = match &snapshot {
            Some(s) => s.counter("shard.ranges_dispatched"),
            None => watch.0.load(Ordering::Relaxed),
        };
        if dispatched == 0 {
            return Err(format!(
                "{}: no shard range was dispatched — the campaign fell back to \
                 in-process execution and would measure a different program",
                w.name()
            ));
        }
    }

    let mut fields = vec![
        ("workload", Value::Str(w.name().to_owned())),
        ("seed", Value::U64(args.seed)),
        ("campaign_s", Value::F64(campaign_s)),
        ("cpu_s", Value::F64(cpu_s)),
        ("peak_rss_mb", Value::F64(peak_rss_mb)),
        ("attempted", Value::U64(result.outcomes.len() as u64)),
        ("bad_outcomes", Value::U64(bad_outcomes(&result))),
        (
            "row",
            Value::Arr(table1_row(&result).into_iter().map(Value::U64).collect()),
        ),
        (
            "attacks",
            Value::Arr(
                result
                    .findings
                    .iter()
                    .map(|f| Value::Str(f.attack.name().to_owned()))
                    .collect(),
            ),
        ),
        (
            "digest",
            Value::Str(format!("{:016x}", projection_digest(&result))),
        ),
    ];
    if let Some(snapshot) = &snapshot {
        let layers =
            trace::layer_metrics(w, args.seed, &args.scratch, &result, snapshot, campaign_s);
        let layers = layers
            .into_iter()
            .map(|(name, value, unit)| {
                let metric = obj([
                    ("value", Value::F64(value)),
                    ("unit", Value::Str(unit.into())),
                ]);
                (name.to_owned(), metric)
            })
            .collect();
        fields.push(("layers", Value::Obj(layers)));
    }
    println!("{}", obj(fields));
    Ok(())
}

/// Table I: strategies tried, attack strategies found, on-path, false
/// positives, true attack strategies, true attacks.
fn table1_row(r: &CampaignResult) -> [u64; 6] {
    [
        r.strategies_tried(),
        r.attack_strategies_found(),
        r.on_path_count(),
        r.false_positive_count(),
        r.true_attack_strategies(),
        r.true_attacks(),
    ]
    .map(|n| n as u64)
}

fn bad_outcomes(r: &CampaignResult) -> u64 {
    r.outcomes
        .iter()
        .filter(|o| o.outcome_kind != OutcomeKind::Ok)
        .count() as u64
}

/// FNV-1a over the per-strategy outcome projection: id, description,
/// outcome kind, verdict labels, repeatable, on-path, false positive,
/// target and competing bytes, leaked sockets. Memo provenance markers
/// and timing are deliberately left out.
fn projection_digest(r: &CampaignResult) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for o in &r.outcomes {
        let line = format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            o.strategy.id,
            o.strategy.describe(),
            o.outcome_kind.label(),
            o.verdict.labels().join(","),
            o.repeatable,
            o.on_path,
            o.false_positive,
            o.metrics.target_bytes,
            o.metrics.competing_bytes,
            o.metrics.leaked_sockets,
        );
        for byte in line.bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// User plus system CPU seconds of this process and its reaped children
/// (the shard workers), from `/proc/self/stat` in clock ticks.
fn cpu_seconds() -> Result<f64, String> {
    const TICKS_PER_SEC: f64 = 100.0;
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    let after_comm = &stat[stat.rfind(')').ok_or("malformed /proc/self/stat")? + 1..];
    // Fields after the command name start at field 3 (state); utime,
    // stime, cutime and cstime are fields 14 to 17.
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(4)
        .map(|f| f.parse::<u64>().unwrap_or(0))
        .sum();
    Ok(ticks as f64 / TICKS_PER_SEC)
}

/// Peak resident set (VmHWM) of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}
