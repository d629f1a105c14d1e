use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use snake_observe::{self as observe, Observer};
use snake_proxy::{InjectionAttack, Strategy, StrategyKind};

use crate::attacks::{classify, cluster_attacks, AttackFinding};
use crate::detect::{baseline_valid, detect_enveloped, Envelope, Verdict, DEFAULT_THRESHOLD};
use crate::journal::{self, scenario_digest, CampaignHeader, JournalHeader};
use crate::scenario::{Executor, ExecutorOptions, PlannedExecutor, ScenarioSpec, TestMetrics};
use crate::shard::{intern_counter, ShardPool, DEFAULT_HEARTBEAT, DEFAULT_SHARD_TIMEOUT};
use crate::strategen::{generate_strategies, is_on_path, is_self_denial, GenerationParams};

/// Configuration of one campaign: one implementation under test, searched
/// exhaustively with the state-based strategy generator.
///
/// Built exclusively through [`CampaignConfig::builder`], which validates
/// the whole configuration once at
/// [`build`](CampaignConfigBuilder::build) time — so a `CampaignConfig`
/// that exists is a `CampaignConfig` that can run. The fields are private
/// on purpose: a public-field-mutation pattern would let callers assemble
/// configurations no validation ever saw (zero feedback rounds, `resume`
/// without a journal).
#[derive(Clone)]
pub struct CampaignConfig {
    // The scenario every strategy is tested in.
    pub(crate) scenario: ScenarioSpec,
    // Basic-attack parameter lists.
    pub(crate) params: GenerationParams,
    // Detection threshold (the paper's 50 %).
    pub(crate) threshold: f64,
    // Executor worker threads (the paper ran five executors).
    pub(crate) parallelism: usize,
    // Optional cap on the number of strategies to test (for quick runs).
    pub(crate) max_strategies: Option<usize>,
    // Feedback rounds of strategy generation: round 0 uses the baseline's
    // observations, later rounds add strategies for states first exposed
    // by attack runs.
    pub(crate) feedback_rounds: usize,
    // Re-test flagged strategies under a different seed (§V-A).
    pub(crate) retest: bool,
    // Streaming JSONL journal path.
    pub(crate) journal: Option<PathBuf>,
    // Reuse journaled outcomes instead of re-running them.
    pub(crate) resume: bool,
    // Progress line to stderr every N completed strategies (0 = off).
    pub(crate) progress_every: usize,
    // Fork baseline snapshots instead of replaying the attack-free prefix.
    pub(crate) snapshot_fork: bool,
    // Cross-strategy memoization (inert elision, class sharing, no-op
    // halt).
    pub(crate) memoize: bool,
    // Test-only fault injection inside the panic isolation boundary.
    pub(crate) fault_hook: Option<FaultHook>,
    // Deterministic chaos injection (panics, stalls, journal faults).
    pub(crate) chaos: Option<ChaosPlan>,
    // Ensemble size: how many seed-jittered no-attack baselines anchor
    // the detection envelope (1 = the legacy single baseline).
    pub(crate) baseline_reps: usize,
    // Per-evaluation wall-clock watchdog deadline (None = no watchdog).
    pub(crate) deadline: Option<Duration>,
    // How many times a stalled evaluation is retried before quarantine.
    pub(crate) stall_retries: usize,
    // Initial backoff between stall retries (doubles each attempt).
    pub(crate) stall_backoff: Duration,
    // Observability sink threaded through the executors and workers.
    pub(crate) observer: Arc<dyn Observer>,
    // Worker processes to shard strategy execution across (0 = in-process).
    pub(crate) shards: usize,
    // Listen address for externally launched shard workers (requires
    // `shards > 0`; workers are not spawned, the controller waits).
    pub(crate) shard_listen: Option<String>,
    // Worker binary override (defaults to the current executable).
    pub(crate) shard_worker_bin: Option<PathBuf>,
    // Read deadline on the shard wire: a worker silent for longer than
    // this (no outcome, no heartbeat) is declared dead — applies to the
    // handshake and to mid-evaluation reads alike.
    pub(crate) shard_timeout: Duration,
    // Interval at which shard workers send keep-alive heartbeats.
    pub(crate) heartbeat: Duration,
    // Explicit acknowledgment required to bind `shard_listen` to a
    // non-loopback address (the wire is digest-checked, not
    // authenticated).
    pub(crate) insecure_bind: bool,
}

/// Fault-injection hook called before each strategy evaluation, inside the
/// panic isolation boundary (see [`CampaignConfigBuilder::fault_hook`]).
pub type FaultHook = Arc<dyn Fn(&Strategy) + Send + Sync>;

/// A deterministic chaos schedule, generalizing the one-off
/// [`FaultHook`]: worker panics, evaluation stalls, and journal write
/// faults are injected by strategy id (and write ordinal), so the same
/// plan perturbs the same runs every time. Like a fault hook, an active
/// *evaluation* fault forces memoization off — an elided strategy would
/// never meet its scheduled fault.
///
/// The `wire_*`, `hang_worker_after` and `kill_controller_at` fields are
/// the distributed-campaign fault lane: they perturb the shard wire (by
/// outcome-frame ordinal, heartbeats excluded so timing noise cannot
/// change which frame is hit), hang a worker mid-campaign, or kill the
/// whole controller process at a chosen admission index. Wire faults
/// require `shards > 0` and leave evaluation untouched, so memoization
/// stays on and recovery must reproduce the unperturbed output exactly.
///
/// Chaos plans exist to prove the campaign runtime survives its
/// environment: panics must isolate, stalls must trip the watchdog,
/// journal faults must be retried, broken wires must re-dispatch, and a
/// killed controller must resume from worker segments — all without
/// changing which strategies get tested or what they produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosPlan {
    /// Panic inside the evaluation of every strategy whose id is a
    /// multiple of this (`None` = no injected panics).
    pub panic_every: Option<u64>,
    /// Stall (sleep) inside the evaluation of every strategy whose id is a
    /// multiple of this.
    pub stall_every: Option<u64>,
    /// How long an injected stall sleeps, in milliseconds.
    pub stall_for_ms: u64,
    /// Fail every Nth journal write with a transient I/O error (the
    /// campaign's single bounded retry must absorb it).
    pub journal_fail_every: Option<u64>,
    /// Drop every Nth outcome frame on the controller's read path. The
    /// shard then answers out of contract and is killed; its range is
    /// re-dispatched.
    pub wire_drop_every: Option<u64>,
    /// Truncate every Nth outcome frame (torn line: checksum missing).
    pub wire_truncate_every: Option<u64>,
    /// Corrupt every Nth outcome frame (payload flipped under an intact
    /// length: checksum mismatch).
    pub wire_corrupt_every: Option<u64>,
    /// Delay every Nth outcome frame by [`wire_delay_ms`](Self::wire_delay_ms)
    /// before delivering it (a slow-but-alive worker; nothing may die).
    pub wire_delay_every: Option<u64>,
    /// How long a delayed frame is held, in milliseconds.
    pub wire_delay_ms: u64,
    /// Make shard 0's initial worker go silent (heartbeats stopped, wire
    /// open, process alive) after sending this many outcomes — the shape
    /// of a livelocked worker; the controller's read deadline must fire.
    pub hang_worker_after: Option<u64>,
    /// Kill the whole controller process (exit code 23) immediately after
    /// admitting and journaling this many outcomes. A subsequent resume
    /// must rebuild the identical result from journal plus segments.
    pub kill_controller_at: Option<u64>,
}

/// An all-`None` plan, the base the presets patch (struct-update syntax
/// keeps each preset to the fields it actually sets).
const NO_CHAOS: ChaosPlan = ChaosPlan {
    panic_every: None,
    stall_every: None,
    stall_for_ms: 0,
    journal_fail_every: None,
    wire_drop_every: None,
    wire_truncate_every: None,
    wire_corrupt_every: None,
    wire_delay_every: None,
    wire_delay_ms: 0,
    hang_worker_after: None,
    kill_controller_at: None,
};

impl ChaosPlan {
    /// Built-in plans for the chaos test matrix.
    pub fn presets() -> &'static [(&'static str, ChaosPlan)] {
        const PRESETS: &[(&str, ChaosPlan)] = &[
            (
                "panics",
                ChaosPlan {
                    panic_every: Some(5),
                    ..NO_CHAOS
                },
            ),
            (
                "stalls",
                ChaosPlan {
                    stall_every: Some(7),
                    stall_for_ms: 400,
                    ..NO_CHAOS
                },
            ),
            (
                "journal",
                ChaosPlan {
                    journal_fail_every: Some(3),
                    ..NO_CHAOS
                },
            ),
            (
                "mayhem",
                ChaosPlan {
                    panic_every: Some(11),
                    stall_every: Some(13),
                    stall_for_ms: 400,
                    journal_fail_every: Some(5),
                    ..NO_CHAOS
                },
            ),
            (
                "wire-drop",
                ChaosPlan {
                    wire_drop_every: Some(4),
                    ..NO_CHAOS
                },
            ),
            (
                "wire-truncate",
                ChaosPlan {
                    wire_truncate_every: Some(5),
                    ..NO_CHAOS
                },
            ),
            (
                "wire-corrupt",
                ChaosPlan {
                    wire_corrupt_every: Some(5),
                    ..NO_CHAOS
                },
            ),
            (
                "wire-delay",
                ChaosPlan {
                    wire_delay_every: Some(3),
                    wire_delay_ms: 50,
                    ..NO_CHAOS
                },
            ),
            (
                "wire-hang",
                ChaosPlan {
                    hang_worker_after: Some(2),
                    ..NO_CHAOS
                },
            ),
            (
                "controller-kill",
                ChaosPlan {
                    kill_controller_at: Some(6),
                    ..NO_CHAOS
                },
            ),
        ];
        PRESETS
    }

    /// Looks up a built-in plan by name.
    pub fn preset(name: &str) -> Option<ChaosPlan> {
        ChaosPlan::presets()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, p)| *p)
    }

    fn hits(every: Option<u64>, id: u64) -> bool {
        every.is_some_and(|n| n > 0 && id.is_multiple_of(n))
    }

    /// Applies the evaluation-side faults for `strategy` (called inside
    /// the panic isolation boundary). Stalls are applied before panics so
    /// a strategy scheduled for both exercises the watchdog first.
    pub fn apply(&self, strategy: &Strategy) {
        if ChaosPlan::hits(self.stall_every, strategy.id) && self.stall_for_ms > 0 {
            std::thread::sleep(Duration::from_millis(self.stall_for_ms));
        }
        if ChaosPlan::hits(self.panic_every, strategy.id) {
            panic!("chaos: injected engine panic (strategy {})", strategy.id);
        }
    }

    /// Whether the `n`th journal write (1-based) is scheduled to fail.
    pub fn fails_journal_write(&self, n: u64) -> bool {
        ChaosPlan::hits(self.journal_fail_every, n)
    }

    /// Whether this plan injects *evaluation-side* faults (panics, stalls,
    /// journal write failures). Only these force memoization off and are
    /// incompatible with shards — they are in-process closures that cannot
    /// cross a process boundary.
    pub fn has_eval_faults(&self) -> bool {
        self.panic_every.is_some()
            || self.stall_every.is_some()
            || self.journal_fail_every.is_some()
    }

    /// Whether this plan injects shard-wire faults (frame drop / truncate
    /// / corrupt / delay, worker hang). These need a wire to act on, so
    /// they require `shards > 0`; the controller kill-switch is not
    /// counted here because it works in-process too.
    pub fn has_wire_faults(&self) -> bool {
        self.wire_drop_every.is_some()
            || self.wire_truncate_every.is_some()
            || self.wire_corrupt_every.is_some()
            || self.wire_delay_every.is_some()
            || self.hang_worker_after.is_some()
    }
}

impl fmt::Debug for CampaignConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignConfig")
            .field("scenario", &self.scenario)
            .field("params", &self.params)
            .field("threshold", &self.threshold)
            .field("parallelism", &self.parallelism)
            .field("max_strategies", &self.max_strategies)
            .field("feedback_rounds", &self.feedback_rounds)
            .field("retest", &self.retest)
            .field("journal", &self.journal)
            .field("resume", &self.resume)
            .field("progress_every", &self.progress_every)
            .field("snapshot_fork", &self.snapshot_fork)
            .field("memoize", &self.memoize)
            .field("fault_hook", &self.fault_hook.as_ref().map(|_| "<hook>"))
            .field("chaos", &self.chaos)
            .field("baseline_reps", &self.baseline_reps)
            .field("deadline", &self.deadline)
            .field("stall_retries", &self.stall_retries)
            .field("shards", &self.shards)
            .field("shard_listen", &self.shard_listen)
            .field("shard_worker_bin", &self.shard_worker_bin)
            .field("shard_timeout", &self.shard_timeout)
            .field("heartbeat", &self.heartbeat)
            .field("insecure_bind", &self.insecure_bind)
            .field("observer_enabled", &self.observer.enabled())
            .finish()
    }
}

impl CampaignConfig {
    /// Starts a builder with defaults mirroring the paper's setup (five
    /// executors, 50 % threshold, repeatability re-testing, two feedback
    /// rounds) and no observer.
    pub fn builder(scenario: ScenarioSpec) -> CampaignConfigBuilder {
        CampaignConfigBuilder {
            scenario,
            params: GenerationParams::default(),
            threshold: DEFAULT_THRESHOLD,
            parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            max_strategies: None,
            feedback_rounds: 2,
            retest: true,
            journal: None,
            resume: false,
            progress_every: 0,
            snapshot_fork: true,
            memoize: true,
            fault_hook: None,
            chaos: None,
            baseline_reps: 1,
            deadline: None,
            stall_retries: 2,
            stall_backoff: Duration::from_millis(50),
            observer: observe::noop(),
            shards: 0,
            shard_listen: None,
            shard_worker_bin: None,
            shard_timeout: None,
            heartbeat: None,
            insecure_bind: false,
        }
    }
}

/// Validating builder for [`CampaignConfig`] — the only way to construct
/// one. Every setter is chainable; [`build`](CampaignConfigBuilder::build)
/// checks the combination and returns
/// [`CampaignError::InvalidConfig`] / [`CampaignError::ResumeWithoutJournal`]
/// instead of letting a nonsensical campaign start.
#[derive(Clone)]
pub struct CampaignConfigBuilder {
    scenario: ScenarioSpec,
    params: GenerationParams,
    threshold: f64,
    parallelism: usize,
    max_strategies: Option<usize>,
    feedback_rounds: usize,
    retest: bool,
    journal: Option<PathBuf>,
    resume: bool,
    progress_every: usize,
    snapshot_fork: bool,
    memoize: bool,
    fault_hook: Option<FaultHook>,
    chaos: Option<ChaosPlan>,
    baseline_reps: usize,
    deadline: Option<Duration>,
    stall_retries: usize,
    stall_backoff: Duration,
    observer: Arc<dyn Observer>,
    shards: usize,
    shard_listen: Option<String>,
    shard_worker_bin: Option<PathBuf>,
    shard_timeout: Option<Duration>,
    heartbeat: Option<Duration>,
    insecure_bind: bool,
}

impl fmt::Debug for CampaignConfigBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignConfigBuilder")
            .field("scenario", &self.scenario)
            .field("threshold", &self.threshold)
            .field("parallelism", &self.parallelism)
            .field("max_strategies", &self.max_strategies)
            .field("feedback_rounds", &self.feedback_rounds)
            .field("retest", &self.retest)
            .field("journal", &self.journal)
            .field("resume", &self.resume)
            .finish_non_exhaustive()
    }
}

impl CampaignConfigBuilder {
    /// Basic-attack parameter lists for the strategy generator.
    pub fn params(mut self, params: GenerationParams) -> Self {
        self.params = params;
        self
    }

    /// Detection threshold as a fraction (the paper's 50 % is `0.5`).
    pub fn threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Executor worker threads.
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers;
        self
    }

    /// Caps the number of strategies tested (quick runs, benchmarks).
    pub fn cap(mut self, max_strategies: usize) -> Self {
        self.max_strategies = Some(max_strategies);
        self
    }

    /// How many feedback rounds of strategy generation to run.
    pub fn feedback_rounds(mut self, rounds: usize) -> Self {
        self.feedback_rounds = rounds;
        self
    }

    /// Re-test flagged strategies under a different seed and keep only
    /// repeatable ones (§V-A).
    pub fn retest(mut self, retest: bool) -> Self {
        self.retest = retest;
        self
    }

    /// Streams every outcome to a JSONL journal at `path` as it completes,
    /// so a killed campaign leaves a usable record behind.
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// Reuses outcomes already recorded in the journal instead of
    /// re-running them. Requires [`journal`](Self::journal).
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Prints a progress line to stderr every `n` completed strategies
    /// (0 disables progress output).
    pub fn progress_every(mut self, n: usize) -> Self {
        self.progress_every = n;
        self
    }

    /// Executes strategies by forking snapshots of the no-attack baseline
    /// instead of replaying the attack-free prefix from scratch (see
    /// [`PlannedExecutor`]). Results are identical either way — the
    /// planner falls back to from-scratch runs whenever fork equivalence
    /// cannot be guaranteed — so this is purely a throughput knob.
    pub fn snapshot_fork(mut self, snapshot_fork: bool) -> Self {
        self.snapshot_fork = snapshot_fork;
        self
    }

    /// Memoizes across strategies: statically provable wire no-ops are
    /// answered with the baseline outcome, trigger-equivalent `OnState`
    /// strategies share one representative run, and the executor halts
    /// runs whose rules are spent without a wire effect.
    /// Every shortcut is conditioned on the snapshot planner's determinism
    /// guard (same philosophy: memoization is disabled whenever identical
    /// replay cannot be guaranteed), so outcomes are bit-identical with
    /// memoization off — this too is purely a throughput knob. Forced off
    /// when a `fault_hook` is installed, because an elided strategy never
    /// reaches the hook.
    pub fn memoize(mut self, memoize: bool) -> Self {
        self.memoize = memoize;
        self
    }

    /// Test-only fault injection: `hook` is called with each strategy
    /// right before its evaluation, inside the panic isolation boundary.
    /// A hook that panics simulates a crashing engine run.
    pub fn fault_hook(mut self, hook: FaultHook) -> Self {
        self.fault_hook = Some(hook);
        self
    }

    /// Installs a deterministic [`ChaosPlan`]: scheduled worker panics,
    /// evaluation stalls, and transient journal write faults. Forces
    /// memoization off, like [`fault_hook`](Self::fault_hook).
    pub fn chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Anchors detection on an ensemble of `reps` seed-jittered no-attack
    /// baselines instead of a single run: verdicts flag only outside the
    /// median/MAD envelope the ensemble spans (see
    /// [`Envelope`](crate::detect::Envelope)), and borderline verdicts are
    /// escalated to a confirmatory re-test. `1` (the default) keeps the
    /// legacy single-baseline comparison bit for bit. Use ≥ 3 whenever
    /// link impairments make runs noisy.
    pub fn baseline_reps(mut self, reps: usize) -> Self {
        self.baseline_reps = reps;
        self
    }

    /// Arms the per-evaluation watchdog: an evaluation that produces no
    /// outcome within `deadline` of wall-clock time is abandoned and
    /// retried (with exponential backoff), and after the retry budget the
    /// strategy is quarantined as [`OutcomeKind::Stalled`] — the campaign
    /// keeps going instead of hanging. The stalled worker thread is
    /// detached, not killed; it can finish late harmlessly because
    /// outcomes are only journaled by the watchdog's caller.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// How many times a stalled evaluation is retried before quarantine
    /// (default 2; 0 quarantines on the first stall).
    pub fn stall_retries(mut self, retries: usize) -> Self {
        self.stall_retries = retries;
        self
    }

    /// Initial wait before a stall retry; doubles on each further retry
    /// (default 50 ms).
    pub fn stall_backoff(mut self, backoff: Duration) -> Self {
        self.stall_backoff = backoff;
        self
    }

    /// Shard strategy execution across `n` worker *processes* (0, the
    /// default, keeps everything in this process). The controller still
    /// owns generation, verdicts, journal and admission order, so results
    /// are bit-identical at any shard count; if every worker dies the
    /// campaign degrades to in-process execution.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Listen on `addr` for externally launched `snake shard-worker
    /// --connect` processes instead of spawning children. Requires
    /// [`shards`](Self::shards) to say how many to wait for.
    pub fn shard_listen(mut self, addr: impl Into<String>) -> Self {
        self.shard_listen = Some(addr.into());
        self
    }

    /// Binary to spawn shard workers from (default: the current
    /// executable). Lets test harnesses point at the real `snake` binary.
    pub fn shard_worker_bin(mut self, path: impl Into<PathBuf>) -> Self {
        self.shard_worker_bin = Some(path.into());
        self
    }

    /// Read deadline on the shard wire (default 10 s): handshake *and*
    /// mid-evaluation silence longer than this declares the worker dead
    /// (hung or partitioned — heartbeats keep a merely slow worker
    /// alive). Requires `shards > 0`; must exceed
    /// [`heartbeat`](Self::heartbeat).
    pub fn shard_timeout(mut self, timeout: Duration) -> Self {
        self.shard_timeout = Some(timeout);
        self
    }

    /// Interval at which shard workers send keep-alive heartbeats
    /// (default 2 s). Requires `shards > 0`; must be shorter than
    /// [`shard_timeout`](Self::shard_timeout).
    pub fn heartbeat(mut self, interval: Duration) -> Self {
        self.heartbeat = Some(interval);
        self
    }

    /// Acknowledges that [`shard_listen`](Self::shard_listen) may bind a
    /// non-loopback address. The handshake is digest-checked (a worker
    /// with a different scenario is refused) but not authenticated, so
    /// exposing the controller beyond the host is an explicit opt-in.
    pub fn insecure_bind(mut self, insecure: bool) -> Self {
        self.insecure_bind = insecure;
        self
    }

    /// Observability sink for the campaign: phase spans, executor and
    /// netsim counters, per-worker histograms. Pass an
    /// [`observe::Recorder`](snake_observe::Recorder) wrapped in an `Arc`
    /// and snapshot it after the run to build a
    /// [`RunManifest`](snake_observe::RunManifest). The default is the
    /// no-op observer, which compiles the instrumentation down to nothing.
    pub fn observer(mut self, observer: Arc<dyn Observer>) -> Self {
        self.observer = observer;
        self
    }

    /// Validates the configuration and produces the [`CampaignConfig`].
    pub fn build(self) -> Result<CampaignConfig, CampaignError> {
        let invalid = |detail: String| Err(CampaignError::InvalidConfig { detail });
        if !self.threshold.is_finite() || self.threshold <= 0.0 {
            return invalid(format!(
                "threshold must be a finite fraction above zero, got {}",
                self.threshold
            ));
        }
        if self.parallelism == 0 {
            return invalid("parallelism must be at least one worker".to_owned());
        }
        if self.feedback_rounds == 0 {
            return invalid(
                "feedback_rounds must be at least one (round 0 is the baseline round)".to_owned(),
            );
        }
        if self.resume && self.journal.is_none() {
            return Err(CampaignError::ResumeWithoutJournal);
        }
        if self.baseline_reps == 0 {
            return invalid("baseline_reps must be at least one".to_owned());
        }
        if self.deadline.is_some_and(|d| d.is_zero()) {
            return invalid("watchdog deadline must be longer than zero".to_owned());
        }
        if self.shards > 0
            && (self.fault_hook.is_some() || self.chaos.is_some_and(|c| c.has_eval_faults()))
        {
            return invalid(
                "shards cannot combine with fault injection: hooks and \
                 evaluation-side chaos are in-process closures that cannot \
                 cross a process boundary (wire chaos is fine)"
                    .to_owned(),
            );
        }
        if self.shards == 0 && self.chaos.is_some_and(|c| c.has_wire_faults()) {
            return invalid(
                "wire chaos faults need a shard wire to act on: set shards > 0".to_owned(),
            );
        }
        if self.shards == 0 && (self.shard_listen.is_some() || self.shard_worker_bin.is_some()) {
            return invalid("shard_listen / shard_worker_bin require shards > 0".to_owned());
        }
        if self.shards == 0 && (self.shard_timeout.is_some() || self.heartbeat.is_some()) {
            return invalid("shard_timeout / heartbeat require shards > 0".to_owned());
        }
        if self.shard_timeout.is_some_and(|t| t.is_zero())
            || self.heartbeat.is_some_and(|t| t.is_zero())
        {
            return invalid("shard_timeout and heartbeat must be longer than zero".to_owned());
        }
        let shard_timeout = self.shard_timeout.unwrap_or(DEFAULT_SHARD_TIMEOUT);
        let heartbeat = self.heartbeat.unwrap_or(DEFAULT_HEARTBEAT);
        if self.shards > 0 && heartbeat >= shard_timeout {
            return invalid(format!(
                "heartbeat ({heartbeat:?}) must be shorter than shard_timeout \
                 ({shard_timeout:?}), or every worker is declared dead between beats"
            ));
        }
        match &self.shard_listen {
            Some(addr) if !listen_is_loopback(addr) && !self.insecure_bind => {
                return invalid(format!(
                    "shard_listen address {addr} is not loopback; binding it \
                     exposes an unauthenticated control wire — pass \
                     insecure_bind (--insecure-bind) to acknowledge"
                ));
            }
            _ => {}
        }
        if self.insecure_bind && self.shard_listen.is_none() {
            return invalid(
                "insecure_bind acknowledges a non-loopback shard_listen; \
                 there is nothing to acknowledge without one"
                    .to_owned(),
            );
        }
        Ok(CampaignConfig {
            scenario: self.scenario,
            params: self.params,
            threshold: self.threshold,
            parallelism: self.parallelism,
            max_strategies: self.max_strategies,
            feedback_rounds: self.feedback_rounds,
            retest: self.retest,
            journal: self.journal,
            resume: self.resume,
            progress_every: self.progress_every,
            snapshot_fork: self.snapshot_fork,
            memoize: self.memoize,
            fault_hook: self.fault_hook,
            chaos: self.chaos,
            baseline_reps: self.baseline_reps,
            deadline: self.deadline,
            stall_retries: self.stall_retries,
            stall_backoff: self.stall_backoff,
            observer: self.observer,
            shards: self.shards,
            shard_listen: self.shard_listen,
            shard_worker_bin: self.shard_worker_bin,
            shard_timeout,
            heartbeat,
            insecure_bind: self.insecure_bind,
        })
    }
}

/// Whether a `shard_listen` address names the loopback interface. An
/// unparseable address is treated as non-loopback: the caller must
/// acknowledge anything we cannot prove local.
fn listen_is_loopback(addr: &str) -> bool {
    match addr.parse::<std::net::SocketAddr>() {
        Ok(sa) => sa.ip().is_loopback(),
        Err(_) => addr
            .rsplit_once(':')
            .is_some_and(|(host, _)| host == "localhost"),
    }
}

/// Why a campaign could not run (as opposed to running and finding
/// nothing).
#[derive(Debug)]
pub enum CampaignError {
    /// The no-attack baseline moved zero bytes on the target connection,
    /// so no throughput comparison can be anchored. The scenario (or the
    /// implementation model) is broken; running strategies against it
    /// would produce garbage verdicts.
    InvalidBaseline {
        /// The implementation whose baseline failed.
        implementation: String,
    },
    /// Reading or writing the journal failed.
    Journal {
        /// The journal path.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// The journal belongs to a different campaign (implementation, seed,
    /// threshold, memoization, impairment or scenario digest differ), so
    /// resuming from it would mix results.
    JournalMismatch {
        /// The journal path.
        path: PathBuf,
        /// What differed.
        detail: String,
    },
    /// `resume` was requested without a journal path to resume from.
    ResumeWithoutJournal,
    /// The builder rejected the configuration (non-finite threshold, zero
    /// workers, zero feedback rounds, …) before anything ran.
    InvalidConfig {
        /// Human-readable description of the rejected combination.
        detail: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::InvalidBaseline { implementation } => write!(
                f,
                "baseline run for {implementation} transferred no data; \
                 the scenario cannot anchor attack detection"
            ),
            CampaignError::Journal { path, source } => {
                write!(f, "journal {}: {source}", path.display())
            }
            CampaignError::JournalMismatch { path, detail } => {
                write!(
                    f,
                    "journal {} is from a different campaign: {detail}",
                    path.display()
                )
            }
            CampaignError::ResumeWithoutJournal => {
                f.write_str("resume requested without a journal path")
            }
            CampaignError::InvalidConfig { detail } => {
                write!(f, "invalid campaign configuration: {detail}")
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Journal { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// How a strategy's evaluation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    /// The run completed normally; the verdict is meaningful.
    Ok,
    /// The engine panicked while evaluating the strategy. The panic was
    /// contained, the metrics are zeroed, and the verdict is empty.
    Errored,
    /// The run hit the scenario's event budget (a livelock guard) and was
    /// cut short; the verdict is empty because partial throughput cannot
    /// be compared against a full-length baseline.
    Truncated,
    /// The evaluation produced no outcome within the watchdog's wall-clock
    /// deadline, was retried up to the retry budget, and was quarantined.
    /// The metrics are zeroed and the verdict is empty; the campaign
    /// continues instead of hanging (see
    /// [`CampaignConfigBuilder::deadline`]).
    Stalled,
}

impl OutcomeKind {
    /// Stable lower-case label, used in the journal and TSV export.
    pub fn label(self) -> &'static str {
        match self {
            OutcomeKind::Ok => "ok",
            OutcomeKind::Errored => "errored",
            OutcomeKind::Truncated => "truncated",
            OutcomeKind::Stalled => "stalled",
        }
    }
}

/// The outcome of testing one strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyOutcome {
    /// The strategy tested.
    pub strategy: Strategy,
    /// Detection verdict against the baseline (empty unless `outcome_kind`
    /// is [`OutcomeKind::Ok`]).
    pub verdict: Verdict,
    /// Raw metrics of the (first) attack run.
    pub metrics: TestMetrics,
    /// Whether the flagged result repeated under a different seed.
    pub repeatable: bool,
    /// Whether the strategy requires an on-path attacker.
    pub on_path: bool,
    /// Whether the inert-volume control run showed the impact comes from
    /// packet volume rather than protocol effect (hitseqwindow false
    /// positives, §VI-A).
    pub false_positive: bool,
    /// Whether the evaluation completed, panicked, or was truncated.
    pub outcome_kind: OutcomeKind,
    /// The panic message, when `outcome_kind` is [`OutcomeKind::Errored`].
    pub error: Option<String>,
    /// How memoization produced (or shortened) this outcome: `"inert"`
    /// (statically provable wire no-op, answered with the baseline),
    /// `"class"` (shared the run of a trigger-equivalent representative),
    /// or `"halt"` (the proxy halted the run once every rule was spent
    /// without a wire effect and substituted the baseline). `None` for
    /// outcomes whose run went the ordinary distance. Recorded in the
    /// journal so `--resume` replays memoized outcomes exactly.
    pub memo: Option<String>,
}

impl StrategyOutcome {
    /// Flagged, repeatable, not on-path, not a false positive — and from a
    /// run that actually completed: a true attack strategy (the paper's
    /// final per-row count).
    pub fn is_true_attack(&self) -> bool {
        self.outcome_kind == OutcomeKind::Ok
            && self.verdict.flagged()
            && self.repeatable
            && !self.on_path
            && !self.false_positive
    }
}

/// The paper's *controller*: generates strategies, dispatches them to
/// executors, and judges the outcomes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Controller;

/// A full campaign against one implementation — one row of Table I.
#[derive(Debug, Clone, Copy, Default)]
pub struct Campaign;

/// Aggregated results of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Protocol name ("TCP" / "DCCP").
    pub protocol: String,
    /// Implementation name.
    pub implementation: String,
    /// The baseline (no-attack) metrics.
    pub baseline: TestMetrics,
    /// Every strategy outcome.
    pub outcomes: Vec<StrategyOutcome>,
    /// Unique attacks found (clusters of true attack strategies).
    pub findings: Vec<AttackFinding>,
    /// Outcomes reused from a resumed journal instead of re-run.
    pub resumed: usize,
    /// Journal lines that could not be parsed on resume (a killed writer
    /// can leave a partial final line; it is skipped, not fatal).
    pub journal_lines_skipped: usize,
    /// Runs avoided by memoization: outcomes produced without a
    /// simulation of their own — statically provable wire no-ops answered
    /// with the baseline (`memo == "inert"`) plus outcomes that shared a
    /// trigger-equivalent representative's run (`memo == "class"`).
    /// Derived by counting the outcome markers, so the run manifest's
    /// memo breakdown always sums back to this field. Halted runs
    /// (`"halt"`) are shortened, not avoided, and are not counted. Zero
    /// when memoization is off.
    pub runs_avoided: usize,
    /// How many seed-jittered baselines anchor the detection envelope
    /// (1 = the legacy single baseline).
    pub baseline_reps: usize,
    /// The detection envelope every verdict was judged against.
    pub envelope: Envelope,
    /// Borderline verdicts escalated to a confirmatory re-test (only
    /// tallied when `baseline_reps > 1`).
    pub escalated: usize,
    /// Watchdog deadline expiries, counting every attempt (one strategy
    /// retried twice contributes three).
    pub stalls: usize,
    /// Strategies quarantined as [`OutcomeKind::Stalled`] after the
    /// watchdog's retry budget ran out.
    pub quarantined: usize,
}

impl CampaignResult {
    /// Table I: strategies tried.
    pub fn strategies_tried(&self) -> usize {
        self.outcomes.len()
    }

    /// Table I: attack strategies found (flagged and repeatable, from
    /// completed runs).
    pub fn attack_strategies_found(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.outcome_kind == OutcomeKind::Ok && o.verdict.flagged() && o.repeatable)
            .count()
    }

    /// Table I: of the found strategies, those requiring an on-path
    /// attacker.
    pub fn on_path_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| {
                o.outcome_kind == OutcomeKind::Ok
                    && o.verdict.flagged()
                    && o.repeatable
                    && o.on_path
            })
            .count()
    }

    /// Table I: of the found strategies, hitseqwindow volume artefacts.
    pub fn false_positive_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| {
                o.outcome_kind == OutcomeKind::Ok
                    && o.verdict.flagged()
                    && o.repeatable
                    && !o.on_path
                    && o.false_positive
            })
            .count()
    }

    /// Table I: true attack strategies.
    pub fn true_attack_strategies(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_true_attack()).count()
    }

    /// Table I: unique true attacks after clustering.
    pub fn true_attacks(&self) -> usize {
        self.findings.len()
    }

    /// Strategies whose evaluation panicked (contained, not fatal).
    pub fn errored(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.outcome_kind == OutcomeKind::Errored)
            .count()
    }

    /// Strategies whose run hit the event budget and was cut short.
    pub fn truncated(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.outcome_kind == OutcomeKind::Truncated)
            .count()
    }

    /// Strategies quarantined by the watchdog as stalled.
    pub fn stalled(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.outcome_kind == OutcomeKind::Stalled)
            .count()
    }

    /// Exports every strategy outcome as tab-separated values (one row per
    /// strategy) for offline analysis — the controller-side log the
    /// paper's authors worked from when separating on-path strategies and
    /// false positives by hand. Free-text fields (the strategy description
    /// and panic messages) are escaped so each outcome stays exactly one
    /// row with a fixed column count.
    pub fn export_outcomes_tsv(&self) -> String {
        let mut out = String::from(
            "id\tstrategy\toutcome\tflagged\trepeatable\ton_path\tfalse_positive\ttrue_attack\teffects\ttarget_bytes\tcompeting_bytes\tleaked_sockets\terror\n",
        );
        for o in &self.outcomes {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                o.strategy.id,
                tsv_escape(&o.strategy.describe()),
                o.outcome_kind.label(),
                o.verdict.flagged(),
                o.repeatable,
                o.on_path,
                o.false_positive,
                o.is_true_attack(),
                o.verdict.labels().join(","),
                o.metrics.target_bytes,
                o.metrics.competing_bytes,
                o.metrics.leaked_sockets,
                tsv_escape(o.error.as_deref().unwrap_or("")),
            ));
        }
        out
    }

    /// Renders this campaign as one Table I row.
    pub fn table_row(&self) -> String {
        format!(
            "| {:<5} | {:<13} | {:>16} | {:>23} | {:>15} | {:>15} | {:>22} | {:>12} | {:>7} | {:>9} |",
            self.protocol,
            self.implementation,
            self.strategies_tried(),
            self.attack_strategies_found(),
            self.on_path_count(),
            self.false_positive_count(),
            self.true_attack_strategies(),
            self.true_attacks(),
            self.errored(),
            self.truncated()
        )
    }
}

/// Escapes a free-text value for one TSV cell: backslash, tab, newline and
/// carriage return become two-character escapes, so the row and column
/// structure of the export survives any `Strategy::describe()` output.
fn tsv_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

#[derive(Default)]
struct Progress {
    done: usize,
    errored: usize,
    truncated: usize,
    stalled: usize,
}

impl Campaign {
    /// Runs a full campaign: baseline, iterative strategy generation,
    /// parallel execution, verdicts, re-tests, false-positive controls,
    /// classification, clustering.
    ///
    /// A panicking engine run or a budget-truncated run does not abort the
    /// campaign: the affected strategy is reported as
    /// [`OutcomeKind::Errored`] / [`OutcomeKind::Truncated`] and the batch
    /// continues. Errors are reserved for broken preconditions (invalid
    /// baseline) and journal I/O.
    pub fn run(config: CampaignConfig) -> Result<CampaignResult, CampaignError> {
        let shared = Arc::new(SharedCtx::new(config)?);
        let config = &shared.config;
        let spec = &config.scenario;
        let memoize = shared.memoize;
        let baseline = shared.exec.baseline().clone();

        // Journal setup: reuse what the journal holds when resuming — with
        // the outcomes a crashed sharded run's workers left in their
        // segments folded into it first — then keep the journal open for
        // streaming appends. The header pins the campaign identity, the
        // memoization and impairment settings and the scenario digest, so
        // a resume under any other setting is refused instead of silently
        // mixing outcomes from two different worlds.
        let journal::OpenedJournal {
            journal,
            mut reusable,
            lines_skipped: journal_lines_skipped,
            segments,
        } = journal::open_campaign(config, &shared.journal_header())?;

        // Controller kill-switch: exit the whole process (code 23) right
        // after the Nth admission reaches the journal — the fault the
        // segment layer exists to survive. Driven by the chaos plan or,
        // for out-of-process harnesses (CI), an environment variable.
        let kill_at: Option<u64> = config.chaos.and_then(|c| c.kill_controller_at).or_else(|| {
            std::env::var("SNAKE_CONTROLLER_EXIT_AT")
                .ok()
                .and_then(|v| v.parse().ok())
        });
        let admissions = AtomicU64::new(0);

        let journal_cell = journal.map(Mutex::new);
        let journal_error: Mutex<Option<io::Error>> = Mutex::new(None);
        let progress = Mutex::new(Progress::default());
        let progress_every = config.progress_every;
        let on_outcome = |outcome: &StrategyOutcome, counters: Option<&[(String, u64)]>| {
            if let Some(cell) = &journal_cell {
                let mut journal = cell.lock().unwrap_or_else(|e| e.into_inner());
                if let Err(e) = journal.append(outcome, counters.unwrap_or(&[])) {
                    let mut slot = journal_error.lock().unwrap_or_else(|e| e.into_inner());
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                }
            }
            if let Some(n) = kill_at {
                // The admission is journaled; die exactly here, before any
                // later-index outcome can be admitted.
                if admissions.fetch_add(1, Ordering::Relaxed) + 1 == n {
                    std::process::exit(23);
                }
            }
            if progress_every > 0 {
                let mut p = progress.lock().unwrap_or_else(|e| e.into_inner());
                p.done += 1;
                match outcome.outcome_kind {
                    OutcomeKind::Ok => {}
                    OutcomeKind::Errored => p.errored += 1,
                    OutcomeKind::Truncated => p.truncated += 1,
                    OutcomeKind::Stalled => p.stalled += 1,
                }
                if p.done % progress_every == 0 {
                    eprintln!(
                        "campaign: {} strategies tested ({} errored, {} truncated, {} stalled)",
                        p.done, p.errored, p.truncated, p.stalled
                    );
                }
            }
        };

        let mut next_id = 0u64;
        let mut seen = BTreeSet::new();
        let mut outcomes: Vec<StrategyOutcome> = Vec::new();
        let mut resumed = 0usize;
        let mut reports = vec![baseline.proxy.clone()];

        // The controller/executor split (paper §V): shard strategy
        // execution across worker processes. The pool is best-effort by
        // construction — a launch failure, a lost handshake or a mid-run
        // crash only shrinks it, and a pool with no live shards degrades
        // to the in-process thread pool. Determinism is unaffected either
        // way: generation, admission and journal never leave this process.
        let mut pool = if config.shards > 0 {
            let _span = observe::span(config.observer.as_ref(), "phase.shard_launch", 0);
            match ShardPool::launch(config, memoize, segments) {
                Ok(pool) => {
                    if pool.live() == 0 {
                        eprintln!(
                            "snake: no shard worker survived the handshake; \
                             falling back to in-process execution"
                        );
                    }
                    Some(pool)
                }
                Err(err) => {
                    eprintln!(
                        "snake: shard pool launch failed ({err}); falling \
                         back to in-process execution"
                    );
                    None
                }
            }
        } else {
            None
        };

        for _round in 0..config.feedback_rounds {
            // The cap is re-checked at the top of every round: feedback
            // rounds keep generating strategies, so a cap satisfied in
            // round 0 must still stop rounds 1..n.
            if config
                .max_strategies
                .is_some_and(|cap| outcomes.len() >= cap)
            {
                break;
            }
            let refs: Vec<&snake_proxy::ProxyReport> = reports.iter().map(|r| r.as_ref()).collect();
            let mut fresh = generate_strategies(
                &spec.protocol,
                &refs,
                &config.params,
                &mut next_id,
                &mut seen,
            );
            if let Some(cap) = config.max_strategies {
                let room = cap.saturating_sub(outcomes.len());
                fresh.truncate(room);
            }
            if fresh.is_empty() {
                break;
            }

            // Split the round into journaled outcomes we can reuse and
            // strategies that still need a run. Identity is checked on the
            // full strategy, not just the id, so a stale journal entry is
            // re-run rather than trusted. Non-inert reused strategies
            // re-register as class representatives, so a resumed campaign
            // reaches the same memo decisions (and markers) as an
            // uninterrupted one.
            let mut round: Vec<Option<StrategyOutcome>> = fresh.iter().map(|_| None).collect();
            let mut pending: Vec<(usize, Strategy)> = Vec::new();
            let mut class_reps: BTreeMap<String, usize> = BTreeMap::new();
            for (i, s) in fresh.into_iter().enumerate() {
                match reusable.remove(&s.id) {
                    Some(prev) if prev.outcome.strategy == s => {
                        resumed += 1;
                        // Worker counter deltas journaled with the outcome
                        // are folded again, so a resumed sharded campaign
                        // reports the same evaluation tallies as the
                        // uninterrupted run it is reconstructing.
                        fold_worker_counters(&shared, &prev.counters);
                        // An inert-marked outcome never reached the class
                        // grouping in the original run, so it must not
                        // become a representative now.
                        if prev.outcome.memo.as_deref() != Some("inert") {
                            if let Some(key) = class_key(&shared, &s) {
                                class_reps.entry(key).or_insert(i);
                            }
                        }
                        round[i] = Some(prev.outcome);
                    }
                    _ => pending.push((i, s)),
                }
            }
            // Memoization pass over the strategies that still need a run:
            // statically provable wire no-ops are answered with the
            // baseline outcome on the spot, and trigger-equivalent
            // `OnState` strategies are grouped so only one representative
            // per class runs — the rest copy its result afterwards.
            let mut to_run: Vec<(usize, Strategy)> = Vec::new();
            let mut followers: Vec<(usize, Strategy, usize)> = Vec::new();
            for (i, s) in pending {
                if let Some(outcome) = inert_outcome(&shared, &s) {
                    on_outcome(&outcome, None);
                    round[i] = Some(outcome);
                    continue;
                }
                match class_key(&shared, &s) {
                    Some(key) => match class_reps.get(&key) {
                        Some(&rep) => followers.push((i, s, rep)),
                        None => {
                            class_reps.insert(key, i);
                            to_run.push((i, s));
                        }
                    },
                    None => to_run.push((i, s)),
                }
            }
            let batch_span = observe::span(config.observer.as_ref(), "phase.batch", 0);
            let (indices, batch): (Vec<usize>, Vec<Strategy>) = to_run.into_iter().unzip();
            let ran = run_batch(&shared, batch, pool.as_mut(), &on_outcome);
            for (i, outcome) in indices.into_iter().zip(ran) {
                round[i] = Some(outcome);
            }
            for (i, s, rep) in followers {
                let rep_outcome = round[rep]
                    .as_ref()
                    .expect("class representatives are reused or ran in this batch");
                let outcome = if rep_outcome.outcome_kind == OutcomeKind::Errored {
                    // A panicking representative proves nothing about its
                    // class; run the member itself.
                    evaluate_watched(&shared, s)
                } else {
                    materialize_class_member(rep_outcome, s)
                };
                on_outcome(&outcome, None);
                round[i] = Some(outcome);
            }
            drop(batch_span);

            for o in round.into_iter().flatten() {
                // Feedback: states/types newly exposed under attack seed
                // the next round. Only well-behaved runs contribute —
                // zeroed metrics from a panic or a half-finished truncated
                // run would poison the generator's view of the state space.
                if o.outcome_kind == OutcomeKind::Ok {
                    reports.push(o.metrics.proxy.clone());
                }
                outcomes.push(o);
            }
        }

        if let Some(mut pool) = pool.take() {
            pool.finish(config.observer.as_ref());
        }

        if let Some(source) = journal_error
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
        {
            return Err(CampaignError::Journal {
                path: config
                    .journal
                    .clone()
                    .expect("journal errors require a journal"),
                source,
            });
        }

        // A completed campaign owes nothing to its segments: every
        // outcome (folded-in ones included) is in the journal now.
        if let Some(path) = &config.journal {
            journal::clear_dir(&journal::segment_dir(path));
        }

        // Classify and cluster the true attack strategies.
        let classified: Vec<_> = outcomes
            .iter()
            .filter(|o| o.is_true_attack())
            .map(|o| {
                let attack = classify(&spec.protocol, &o.strategy, &o.verdict, &o.metrics);
                (o.strategy.clone(), o.verdict, attack)
            })
            .collect();
        let findings = cluster_attacks(&classified);

        // Runs avoided are derived from the provenance markers the
        // outcomes actually carry, so the campaign counters, the journal
        // and the run manifest can never disagree.
        let runs_avoided = outcomes
            .iter()
            .filter(|o| matches!(o.memo.as_deref(), Some("inert") | Some("class")))
            .count();

        Ok(CampaignResult {
            protocol: spec.protocol.protocol_name().to_owned(),
            implementation: spec.protocol.implementation_name().to_owned(),
            baseline,
            outcomes,
            findings,
            resumed,
            journal_lines_skipped,
            runs_avoided,
            baseline_reps: config.baseline_reps,
            envelope: shared.envelope,
            escalated: shared.escalated.load(Ordering::Relaxed),
            stalls: shared.stalls.load(Ordering::Relaxed),
            quarantined: shared.quarantined.load(Ordering::Relaxed),
        })
    }
}

/// Deterministic seed for ensemble member `k` (member 0 is the scenario
/// seed itself). The golden-ratio multiply diffuses `k` across the word so
/// member seeds never collide with each other or with the re-test seed.
fn ensemble_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Builds the detection envelope: the campaign's own baseline plus
/// `reps − 1` plain from-scratch no-attack runs at jittered seeds.
fn build_envelope(
    spec: &ScenarioSpec,
    baseline: &TestMetrics,
    reps: usize,
    threshold: f64,
) -> Envelope {
    if reps <= 1 {
        return Envelope::from_baseline(baseline, threshold);
    }
    let mut members = Vec::with_capacity(reps);
    members.push(baseline.clone());
    for k in 1..reps {
        let member_spec = ScenarioSpec {
            seed: ensemble_seed(spec.seed, k),
            ..spec.clone()
        };
        members.push(Executor::run(&member_spec, None));
    }
    Envelope::from_members(&members, threshold)
}

/// Everything the executor workers share read-only: the planned (snapshot
/// holding) executors for the main and re-test seeds, plus the config.
pub(crate) struct SharedCtx {
    pub(crate) exec: PlannedExecutor,
    pub(crate) retest_exec: Option<PlannedExecutor>,
    pub(crate) config: CampaignConfig,
    /// Whether campaign-level memoization is live (config switch and no
    /// fault hook or chaos plan; each executor additionally requires its
    /// determinism guard to have passed).
    pub(crate) memoize: bool,
    /// Detection envelope for the main seed (single-baseline degenerate
    /// when `baseline_reps == 1`).
    pub(crate) envelope: Envelope,
    /// Envelope for the re-test seed, when re-testing is on.
    pub(crate) retest_envelope: Option<Envelope>,
    /// Borderline verdicts escalated to a confirmatory re-test.
    pub(crate) escalated: AtomicUsize,
    /// Watchdog deadline expiries (every attempt counts).
    pub(crate) stalls: AtomicUsize,
    /// Strategies quarantined after the stall retry budget.
    pub(crate) quarantined: AtomicUsize,
}

impl SharedCtx {
    /// Stands up everything evaluation needs: the planned executors for
    /// the main and re-test seeds, the baseline validity check, and both
    /// detection envelopes. The controller and every shard worker build
    /// their context here, so both evaluate against the same set-up.
    pub(crate) fn new(config: CampaignConfig) -> Result<SharedCtx, CampaignError> {
        let spec = &config.scenario;
        // A fault hook (or evaluation-side chaos) must see every strategy,
        // so memoization (which answers some strategies without ever
        // evaluating them) is forced off under fault injection. Wire-side
        // chaos never touches evaluation, so it leaves memoization alone —
        // that is exactly what lets the wire-chaos tests demand output
        // identical to an unperturbed run.
        let memoize = config.memoize
            && config.fault_hook.is_none()
            && !config.chaos.is_some_and(|c| c.has_eval_faults());
        let exec_options = ExecutorOptions {
            snapshot_fork: config.snapshot_fork,
            memoize,
            halt_arming: true,
            observer: config.observer.clone(),
        };
        let exec = PlannedExecutor::new(spec, exec_options.clone());
        if !baseline_valid(exec.baseline()) {
            return Err(CampaignError::InvalidBaseline {
                implementation: spec.protocol.implementation_name().to_owned(),
            });
        }
        // The repeatability re-test compares a different-seed attack run
        // against the matching different-seed baseline.
        let retest_spec = ScenarioSpec {
            seed: spec.seed.wrapping_add(1),
            ..spec.clone()
        };
        let retest_exec = config
            .retest
            .then(|| PlannedExecutor::new(&retest_spec, exec_options));

        // Detection envelopes. With `baseline_reps == 1` the envelope is
        // the single baseline and `detect_enveloped` degenerates to the
        // legacy `detect` — bit-identical verdicts. With reps ≥ 2, K−1
        // extra seed-jittered no-attack runs widen the band by the noise
        // the scenario (impairments included) actually exhibits.
        let observer = config.observer.as_ref();
        let envelope = {
            let _span = observe::span(observer, "phase.ensemble", 0);
            build_envelope(
                spec,
                exec.baseline(),
                config.baseline_reps,
                config.threshold,
            )
        };
        let retest_envelope = retest_exec.as_ref().map(|retest| {
            let _span = observe::span(observer, "phase.ensemble", 0);
            build_envelope(
                &retest_spec,
                retest.baseline(),
                config.baseline_reps,
                config.threshold,
            )
        });
        if observer.enabled() {
            observer.counter_add("detect.envelope.members", envelope.members as u64);
            observer.counter_add(
                "detect.envelope.target_lo",
                envelope.target_lo.max(0.0) as u64,
            );
            observer.counter_add(
                "detect.envelope.target_hi",
                envelope.target_hi.max(0.0) as u64,
            );
            observer.counter_add(
                "detect.envelope.width_permille",
                (envelope.target_width_fraction() * 1000.0) as u64,
            );
        }
        Ok(SharedCtx {
            exec,
            retest_exec,
            config,
            memoize,
            envelope,
            retest_envelope,
            escalated: AtomicUsize::new(0),
            stalls: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
        })
    }

    /// The header line of this campaign's journal and of every worker
    /// segment: the campaign identity, the effective memoize flag, the
    /// impairment and the scenario digest. The controller and each shard
    /// worker build it here, so a segment header equals the journal's
    /// exactly when both evaluate the same campaign.
    pub(crate) fn journal_header(&self) -> CampaignHeader {
        let config = &self.config;
        let spec = &config.scenario;
        CampaignHeader {
            fields: JournalHeader {
                implementation: spec.protocol.implementation_name().to_owned(),
                seed: spec.seed,
                threshold: config.threshold,
                memoize: Some(self.memoize),
                impairment: Some(spec.bottleneck().impair.to_string()),
            },
            digest: Some(scenario_digest(
                spec,
                config.threshold,
                config.baseline_reps,
            )),
        }
    }
}

pub(crate) type Shared = Arc<SharedCtx>;

/// Answers a statically provable wire no-op with the baseline outcome —
/// exactly what [`evaluate`] would produce, without running anything.
/// Returns `None` when the strategy is not provably inert, or when the
/// baseline compared against itself would flag (a degenerate scenario; the
/// ordinary path then runs the strategy for real, keeping memoized and
/// unmemoized campaigns bit-identical).
fn inert_outcome(shared: &Shared, strategy: &Strategy) -> Option<StrategyOutcome> {
    if !shared.memoize || !shared.exec.provably_inert(strategy) {
        return None;
    }
    let baseline = shared.exec.baseline();
    if baseline.truncated {
        return Some(StrategyOutcome {
            on_path: is_on_path(strategy),
            strategy: strategy.clone(),
            verdict: Verdict::default(),
            metrics: baseline.clone(),
            repeatable: false,
            false_positive: false,
            outcome_kind: OutcomeKind::Truncated,
            error: None,
            memo: Some("inert".to_owned()),
        });
    }
    let verdict = detect_enveloped(&shared.envelope, baseline);
    if verdict.flagged() {
        return None;
    }
    Some(StrategyOutcome {
        on_path: is_on_path(strategy) || is_self_denial(strategy, &verdict),
        strategy: strategy.clone(),
        verdict,
        metrics: baseline.clone(),
        repeatable: true,
        false_positive: false,
        outcome_kind: OutcomeKind::Ok,
        error: None,
        memo: Some("inert".to_owned()),
    })
}

/// Memo-class key covering every run [`evaluate`] might make for a
/// strategy: the main-seed class key joined with the re-test seed's when
/// re-testing is on. Strategies sharing the composite key are
/// trigger-equivalent under every executor involved, so their evaluations
/// are identical end to end — including the inert-volume control run,
/// whose trigger has the same first-visibility instant as the member's.
fn class_key(shared: &Shared, strategy: &Strategy) -> Option<String> {
    if !shared.memoize {
        return None;
    }
    let main = shared.exec.class_key(strategy)?;
    match &shared.retest_exec {
        None => Some(main),
        Some(retest) => {
            let rk = retest.class_key(strategy)?;
            Some(format!("{main}|{rk}"))
        }
    }
}

/// Copies a class representative's outcome onto a trigger-equivalent
/// member. The run results are identical by construction; only the
/// strategy identity and the strategy-derived on-path classification are
/// recomputed (class members can sit on different endpoint/state pairs).
fn materialize_class_member(rep: &StrategyOutcome, strategy: Strategy) -> StrategyOutcome {
    let on_path = match rep.outcome_kind {
        OutcomeKind::Ok => is_on_path(&strategy) || is_self_denial(&strategy, &rep.verdict),
        _ => is_on_path(&strategy),
    };
    StrategyOutcome {
        on_path,
        strategy,
        verdict: rep.verdict,
        metrics: rep.metrics.clone(),
        repeatable: rep.repeatable,
        false_positive: rep.false_positive,
        outcome_kind: rep.outcome_kind,
        error: None,
        memo: Some("class".to_owned()),
    }
}

/// Executes one strategy end to end: attack run, verdict, repeatability
/// re-test, and (for flagged hitseqwindow strategies) the inert-volume
/// false-positive control.
fn evaluate(shared: &Shared, strategy: Strategy) -> StrategyOutcome {
    let SharedCtx {
        exec,
        retest_exec,
        config,
        ..
    } = &**shared;
    let (metrics, info) = exec.run_with_info(Some(strategy.clone()));
    // A halted run (every rule spent with zero wire effect) substituted
    // the baseline outcome; the marker records that this outcome was
    // short-circuited.
    let memo: Option<String> = info.halted.then(|| "halt".to_owned());
    if metrics.truncated {
        // A budget-truncated run transferred less data because it ran for
        // less virtual time; comparing it against a full-length baseline
        // would manufacture degradation verdicts. Report it as truncated
        // and skip the re-test and control runs.
        return StrategyOutcome {
            on_path: is_on_path(&strategy),
            strategy,
            verdict: Verdict::default(),
            metrics,
            repeatable: false,
            false_positive: false,
            outcome_kind: OutcomeKind::Truncated,
            error: None,
            memo,
        };
    }
    let verdict = detect_enveloped(&shared.envelope, &metrics);

    // Flagged verdicts re-test as always; with an ensemble (reps > 1),
    // *borderline* results — within BORDERLINE_MARGIN of an envelope edge,
    // on either side — are escalated to the same different-seed re-test
    // instead of trusting a single draw of the noise. A borderline flag
    // must repeat to survive; a borderline near-miss gets a confirmatory
    // run (counted, never promoted to a flag, so the ensemble's zero-FP
    // guarantee is preserved).
    let mut repeatable = true;
    let borderline = shared.config.baseline_reps > 1 && shared.envelope.is_borderline(&metrics);
    if verdict.flagged() || borderline {
        if let Some(retest) = retest_exec {
            if borderline {
                shared.escalated.fetch_add(1, Ordering::Relaxed);
                config.observer.counter_add("campaign.escalated", 1);
            }
            let _span = observe::span(config.observer.as_ref(), "phase.retests", 0);
            let again = retest.run(Some(strategy.clone()));
            let retest_env = shared
                .retest_envelope
                .as_ref()
                .expect("a re-test executor always has a re-test envelope");
            let again_flagged = !again.truncated && detect_enveloped(retest_env, &again).flagged();
            if verdict.flagged() {
                repeatable = again_flagged;
            }
        }
    }

    let mut false_positive = false;
    if verdict.flagged() && repeatable {
        if let StrategyKind::OnState {
            endpoint,
            state,
            attack:
                InjectionAttack::HitSeqWindow {
                    packet_type,
                    direction,
                    stride,
                    count,
                    rate_pps,
                    inert: false,
                },
        } = &strategy.kind
        {
            // Control run: identical volume aimed at a dead port. If the
            // impact persists, it came from the packet volume, not from
            // hitting the sequence window.
            let control = Strategy {
                id: strategy.id,
                kind: StrategyKind::OnState {
                    endpoint: *endpoint,
                    state: state.clone(),
                    attack: InjectionAttack::HitSeqWindow {
                        packet_type: packet_type.clone(),
                        direction: *direction,
                        stride: *stride,
                        count: *count,
                        rate_pps: *rate_pps,
                        inert: true,
                    },
                },
            };
            let control_metrics = exec.run(Some(control));
            let control_verdict = detect_enveloped(&shared.envelope, &control_metrics);
            false_positive = !control_metrics.truncated && control_verdict.flagged();
        }
    }

    StrategyOutcome {
        on_path: is_on_path(&strategy) || is_self_denial(&strategy, &verdict),
        strategy,
        verdict,
        metrics,
        repeatable,
        false_positive,
        outcome_kind: OutcomeKind::Ok,
        error: None,
        memo,
    }
}

/// Wraps [`evaluate`] in a panic boundary: a crashing engine run becomes an
/// [`OutcomeKind::Errored`] outcome carrying the panic message, instead of
/// unwinding through the batch and losing every other result.
fn evaluate_guarded(shared: &Shared, strategy: Strategy) -> StrategyOutcome {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(hook) = &shared.config.fault_hook {
            hook(&strategy);
        }
        if let Some(chaos) = &shared.config.chaos {
            chaos.apply(&strategy);
        }
        evaluate(shared, strategy.clone())
    }));
    match result {
        Ok(outcome) => outcome,
        Err(payload) => StrategyOutcome {
            on_path: is_on_path(&strategy),
            strategy,
            verdict: Verdict::default(),
            metrics: TestMetrics::empty(),
            repeatable: false,
            false_positive: false,
            outcome_kind: OutcomeKind::Errored,
            error: Some(panic_message(payload.as_ref())),
            memo: None,
        },
    }
}

/// Wraps [`evaluate_guarded`] in the per-run watchdog when a deadline is
/// configured: the evaluation runs on its own thread, and if no outcome
/// arrives within the wall-clock deadline the attempt is abandoned and
/// retried with doubling backoff. Once the retry budget is spent the
/// strategy is quarantined as [`OutcomeKind::Stalled`] — the campaign
/// moves on instead of hanging on one livelocked engine.
///
/// Abandoned threads are detached, never killed: they hold only `Arc`
/// clones, their late results are dropped on a closed channel, and the
/// journal append happens in the watchdog's caller, so a straggler can
/// never write anything.
pub(crate) fn evaluate_watched(shared: &Shared, strategy: Strategy) -> StrategyOutcome {
    let Some(deadline) = shared.config.deadline else {
        return evaluate_guarded(shared, strategy);
    };
    let observer = shared.config.observer.clone();
    let retries = shared.config.stall_retries;
    let mut backoff = shared.config.stall_backoff;
    for attempt in 0..=retries {
        let (tx, rx) = mpsc::channel();
        let worker_shared = Arc::clone(shared);
        let worker_strategy = strategy.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("snake-eval-{}", strategy.id))
            .spawn(move || {
                let _ = tx.send(evaluate_guarded(&worker_shared, worker_strategy));
            });
        if spawned.is_err() {
            // Thread exhaustion: fall back to an unwatched inline run
            // rather than failing the strategy for a host-side problem.
            return evaluate_guarded(shared, strategy);
        }
        match rx.recv_timeout(deadline) {
            Ok(outcome) => return outcome,
            Err(_) => {
                shared.stalls.fetch_add(1, Ordering::Relaxed);
                observer.counter_add("campaign.stalls", 1);
                if attempt < retries {
                    observer.counter_add("campaign.stall_retries", 1);
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
            }
        }
    }
    shared.quarantined.fetch_add(1, Ordering::Relaxed);
    observer.counter_add("campaign.quarantined", 1);
    StrategyOutcome {
        on_path: is_on_path(&strategy),
        error: Some(format!(
            "stalled: no outcome within {deadline:?} in any of {} attempts; quarantined",
            retries + 1
        )),
        strategy,
        verdict: Verdict::default(),
        metrics: TestMetrics::empty(),
        repeatable: false,
        false_positive: false,
        outcome_kind: OutcomeKind::Stalled,
        memo: None,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

/// Per-worker activity tally, folded into the observer's histograms when
/// observation is enabled. The `Instant` reads are gated on
/// [`Observer::enabled`], so the default no-op observer costs the workers
/// nothing but a branch per claim.
struct WorkerClock {
    started: Option<Instant>,
    busy_nanos: u64,
    claimed: u64,
}

impl WorkerClock {
    fn start(enabled: bool) -> WorkerClock {
        WorkerClock {
            started: enabled.then(Instant::now),
            busy_nanos: 0,
            claimed: 0,
        }
    }

    /// Runs `work`, attributing its wall time to this worker's busy tally.
    fn time<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let t0 = self.started.map(|_| Instant::now());
        let out = work();
        if let Some(t0) = t0 {
            self.busy_nanos += t0.elapsed().as_nanos() as u64;
        }
        self.claimed += 1;
        out
    }

    /// Emits the per-worker histogram samples: busy wall time, idle wall
    /// time (lifetime minus busy — claim overhead, journal contention,
    /// end-of-batch drain), and strategies claimed.
    fn finish(self, observer: &dyn Observer) {
        let Some(started) = self.started else { return };
        let lifetime = started.elapsed().as_nanos() as u64;
        observer.record("worker.busy_nanos", self.busy_nanos);
        observer.record(
            "worker.idle_nanos",
            lifetime.saturating_sub(self.busy_nanos),
        );
        observer.record("worker.claimed", self.claimed);
    }
}

/// Holds outcomes finished out of order until every lower-index outcome
/// has been admitted, so admission and journaling happen strictly in
/// strategy-index order at any worker or shard count — exactly the
/// sequence a single worker would produce.
struct ReleaseState {
    /// The next strategy index to admit.
    next: usize,
    /// Outcomes evaluated ahead of `next`, keyed by index.
    pending: BTreeMap<usize, PendingOutcome>,
    /// Admitted outcomes, in index order.
    done: Vec<StrategyOutcome>,
}

/// An outcome paired with the worker counter deltas it arrived with
/// (`None` for outcomes evaluated in this process, whose counters reached
/// the observer directly).
type PendingOutcome = (StrategyOutcome, Option<Vec<(String, u64)>>);

/// Admission callback threaded through the batch runtime: the admitted
/// outcome plus its worker counter deltas, if any.
type OnOutcome<'a> = &'a (dyn Fn(&StrategyOutcome, Option<&[(String, u64)]>) + Sync);

/// Hands one evaluated index to the release buffer, from any executor:
/// a local thread or a shard link.
pub(crate) type Admit<'a> = &'a (dyn Fn(usize, StrategyOutcome, Option<Vec<(String, u64)>>) + Sync);

/// The batch's dispatch queue: contiguous `(start, len)` index ranges
/// still to evaluate, plus how many indices shard links hold in flight.
/// A dead link's unfinished indices come back to the front, so an idle
/// link waits on the condvar while another link still holds work.
pub(crate) struct WorkQueue {
    state: Mutex<QueueState>,
    wake: Condvar,
}

struct QueueState {
    ranges: VecDeque<(usize, usize)>,
    in_flight: usize,
}

impl WorkQueue {
    /// Queues indices `0..len` as contiguous ranges of at most `chunk`
    /// (at least one) indices.
    fn new(len: usize, chunk: usize) -> WorkQueue {
        let ranges = (0..len)
            .step_by(chunk)
            .map(|start| (start, chunk.min(len - start)))
            .collect();
        WorkQueue {
            state: Mutex::new(QueueState {
                ranges,
                in_flight: 0,
            }),
            wake: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Claims the lowest queued index (local executor threads; never
    /// waits).
    fn take_index(&self) -> Option<usize> {
        let mut state = self.lock();
        let (start, len) = state.ranges.pop_front()?;
        if len > 1 {
            state.ranges.push_front((start + 1, len - 1));
        }
        Some(start)
    }

    /// Claims the next range for a shard link. With `wait`, blocks while
    /// the queue is empty but some link still holds work that a death
    /// could requeue; `None` then means every index was delivered.
    pub(crate) fn take_range(&self, wait: bool) -> Option<(usize, usize)> {
        let mut state = self.lock();
        loop {
            if let Some((start, len)) = state.ranges.pop_front() {
                state.in_flight += len;
                return Some((start, len));
            }
            if !wait || state.in_flight == 0 {
                return None;
            }
            state = self.wake.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Marks one in-flight index delivered.
    pub(crate) fn settle(&self) {
        let mut state = self.lock();
        state.in_flight -= 1;
        if state.in_flight == 0 {
            self.wake.notify_all();
        }
    }

    /// Returns a dead link's unfinished indices to the front of the queue
    /// as contiguous ranges, lowest index first: those are the ones
    /// holding back admission. Returns how many ranges were re-created,
    /// for the re-dispatch tally.
    pub(crate) fn requeue(&self, outstanding: &mut VecDeque<usize>) -> u64 {
        let mut indices: Vec<usize> = outstanding.drain(..).collect();
        indices.sort_unstable();
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        for index in indices.iter().copied() {
            match ranges.last_mut() {
                Some((start, len)) if *start + *len == index => *len += 1,
                _ => ranges.push((index, 1)),
            }
        }
        let mut state = self.lock();
        state.in_flight -= indices.len();
        for range in ranges.iter().rev() {
            state.ranges.push_front(*range);
        }
        self.wake.notify_all();
        ranges.len() as u64
    }

    /// Indices still queued.
    fn remaining(&self) -> usize {
        self.lock().ranges.iter().map(|&(_, len)| len).sum()
    }
}

/// Runs a batch of strategies — the paper's controller handing strategies
/// to a pool of executors (§V). Each outcome is handed to `on_outcome`
/// (journal append, progress) as soon as every earlier-index outcome has
/// been, so a killed process loses at most the runs that were still in
/// flight or held back by one — and the journal is always an index-order
/// prefix of the batch. TSV, journal and memo markers are therefore
/// bit-identical whoever evaluated what.
///
/// Two kinds of executor drain one [`WorkQueue`] into one release buffer.
/// With a live shard pool, each link gets a controller thread that
/// dispatches ranges to its worker process and re-queues them if the
/// worker dies ([`ShardPool::drive`]). Without one — or for whatever a
/// pool that died entirely left behind — `parallelism` local threads
/// claim one index at a time and evaluate it in this process.
fn run_batch(
    shared: &Shared,
    strategies: Vec<Strategy>,
    pool: Option<&mut ShardPool>,
    on_outcome: OnOutcome<'_>,
) -> Vec<StrategyOutcome> {
    let n = strategies.len();
    if n == 0 {
        return Vec::new();
    }
    let pool = pool.filter(|pool| pool.live() > 0);
    // Ranges of about a quarter of a link's fair share: a slow or dying
    // shard strands little.
    let chunk = n.div_ceil(pool.as_ref().map_or(1, |pool| pool.live()) * 4);
    let queue = WorkQueue::new(n, chunk);
    let release = Mutex::new(ReleaseState {
        next: 0,
        pending: BTreeMap::new(),
        done: Vec::with_capacity(n),
    });
    // Admits the contiguous ready prefix: fold the entry's counter deltas
    // (shard outcomes carry their worker's tallies), then journal. Lock
    // order is always release → journal.
    let admit = |index: usize, outcome: StrategyOutcome, counters| {
        let mut guard = release.lock().unwrap_or_else(|e| e.into_inner());
        let state = &mut *guard;
        state.pending.insert(index, (outcome, counters));
        while let Some((outcome, counters)) = state.pending.remove(&state.next) {
            if let Some(counters) = &counters {
                fold_worker_counters(shared, counters);
            }
            on_outcome(&outcome, counters.as_deref());
            state.done.push(outcome);
            state.next += 1;
        }
    };
    if let Some(pool) = pool {
        pool.drive(&shared.config, &queue, &strategies, chunk, &admit);
    }
    let left = queue.remaining();
    if left > 0 {
        let observer = shared.config.observer.as_ref();
        let enabled = observer.enabled();
        std::thread::scope(|scope| {
            for _ in 0..shared.config.parallelism.clamp(1, left) {
                scope.spawn(|| {
                    let mut clock = WorkerClock::start(enabled);
                    while let Some(i) = queue.take_index() {
                        let outcome =
                            clock.time(|| evaluate_watched(shared, strategies[i].clone()));
                        admit(i, outcome, None);
                    }
                    clock.finish(observer);
                });
            }
        });
    }
    release.into_inner().unwrap_or_else(|e| e.into_inner()).done
}

/// Replays the counter deltas a shard worker reported for one outcome
/// into the controller's observer, so manifest tallies match a
/// single-process run. The `campaign.*` watchdog/escalation counters also
/// feed the shared atomics [`CampaignResult`] reports from — in-process
/// those are bumped inside `evaluate`, which sharded execution never
/// calls on the controller. Names outside the intern table are dropped.
fn fold_worker_counters(shared: &Shared, counters: &[(String, u64)]) {
    let observer = shared.config.observer.as_ref();
    for (name, delta) in counters {
        let Some(interned) = intern_counter(name) else {
            continue;
        };
        match interned {
            "campaign.escalated" => {
                shared
                    .escalated
                    .fetch_add(*delta as usize, Ordering::Relaxed);
            }
            "campaign.stalls" => {
                shared.stalls.fetch_add(*delta as usize, Ordering::Relaxed);
            }
            "campaign.quarantined" => {
                shared
                    .quarantined
                    .fetch_add(*delta as usize, Ordering::Relaxed);
            }
            _ => {}
        }
        observer.counter_add(interned, *delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ProtocolKind;
    use snake_proxy::{BasicAttack, Endpoint};
    use snake_tcp::Profile;

    #[test]
    fn tiny_campaign_runs_end_to_end() {
        let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
        let config = CampaignConfig::builder(spec)
            .cap(12)
            .parallelism(4)
            .feedback_rounds(1)
            .retest(false)
            .build()
            .expect("valid config");
        let result = Campaign::run(config).expect("valid baseline");
        assert_eq!(result.strategies_tried(), 12);
        assert_eq!(result.protocol, "TCP");
        assert!(result.baseline.target_bytes > 0);
        assert_eq!(result.errored(), 0);
        assert_eq!(result.truncated(), 0);
        // Bookkeeping invariants.
        assert!(result.attack_strategies_found() >= result.true_attack_strategies());
        let row = result.table_row();
        assert!(row.contains("Linux 3.13"));
    }

    #[test]
    fn tsv_export_has_one_row_per_outcome() {
        let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
        let config = CampaignConfig::builder(spec)
            .cap(6)
            .parallelism(2)
            .feedback_rounds(1)
            .retest(false)
            .build()
            .expect("valid config");
        let result = Campaign::run(config).expect("valid baseline");
        let tsv = result.export_outcomes_tsv();
        assert_eq!(tsv.lines().count(), 1 + 6, "header + one row per strategy");
        assert!(tsv.starts_with("id\tstrategy"));
        assert!(tsv.contains("drop=100%"));
    }

    #[test]
    fn tsv_export_escapes_free_text_fields() {
        let hostile = Strategy {
            id: 1,
            kind: StrategyKind::OnPacket {
                endpoint: Endpoint::Client,
                state: "EST\tABL\nISHED".into(),
                packet_type: "ACK\r".into(),
                attack: BasicAttack::Drop { percent: 100 },
            },
        };
        let outcome = StrategyOutcome {
            strategy: hostile,
            verdict: Verdict::default(),
            metrics: TestMetrics::empty(),
            repeatable: false,
            on_path: false,
            false_positive: false,
            outcome_kind: OutcomeKind::Errored,
            error: Some("boom\tat line\n3".into()),
            memo: None,
        };
        let result = CampaignResult {
            protocol: "TCP".into(),
            implementation: "test".into(),
            baseline: TestMetrics::empty(),
            outcomes: vec![outcome],
            findings: Vec::new(),
            resumed: 0,
            journal_lines_skipped: 0,
            runs_avoided: 0,
            baseline_reps: 1,
            envelope: Envelope::from_baseline(&TestMetrics::empty(), DEFAULT_THRESHOLD),
            escalated: 0,
            stalls: 0,
            quarantined: 0,
        };
        let tsv = result.export_outcomes_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines.len(), 2, "hostile describe() must not add rows");
        let columns = lines[1].split('\t').count();
        assert_eq!(
            columns,
            lines[0].split('\t').count(),
            "column structure survives"
        );
        assert!(tsv.contains("EST\\tABL\\nISHED"));
        assert!(tsv.contains("boom\\tat line\\n3"));
    }

    #[test]
    fn parallel_and_serial_agree() {
        let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
        let config = |workers| {
            CampaignConfig::builder(spec.clone())
                .cap(8)
                .feedback_rounds(1)
                .retest(false)
                .parallelism(workers)
                .build()
                .expect("valid config")
        };
        let serial = Campaign::run(config(1)).expect("valid baseline");
        let parallel = Campaign::run(config(4)).expect("valid baseline");
        let v1: Vec<_> = serial
            .outcomes
            .iter()
            .map(|o| (o.strategy.id, o.verdict))
            .collect();
        let v2: Vec<_> = parallel
            .outcomes
            .iter()
            .map(|o| (o.strategy.id, o.verdict))
            .collect();
        assert_eq!(v1, v2, "parallelism must not change results");
    }

    #[test]
    fn invalid_baseline_is_an_error_not_a_table() {
        // A scenario with no data phase moves no bytes, so the baseline
        // cannot anchor throughput comparisons.
        let mut spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
        spec.data_secs = 0;
        spec.grace_secs = 0;
        let config = CampaignConfig::builder(spec)
            .cap(2)
            .feedback_rounds(1)
            .retest(false)
            .build()
            .expect("valid config");
        match Campaign::run(config) {
            Err(CampaignError::InvalidBaseline { implementation }) => {
                assert!(implementation.contains("3.13"), "{implementation}");
            }
            other => panic!("expected InvalidBaseline, got {other:?}"),
        }
    }

    #[test]
    fn resume_without_journal_is_rejected() {
        // The builder catches the combination before anything runs.
        let spec = ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
        assert!(matches!(
            CampaignConfig::builder(spec).resume(true).build(),
            Err(CampaignError::ResumeWithoutJournal)
        ));
    }

    #[test]
    fn builder_rejects_degenerate_settings() {
        let spec = || ScenarioSpec::quick(ProtocolKind::Tcp(Profile::linux_3_13()));
        for broken in [
            CampaignConfig::builder(spec()).threshold(f64::NAN),
            CampaignConfig::builder(spec()).threshold(0.0),
            CampaignConfig::builder(spec()).parallelism(0),
            CampaignConfig::builder(spec()).feedback_rounds(0),
            CampaignConfig::builder(spec()).baseline_reps(0),
            CampaignConfig::builder(spec()).deadline(Duration::ZERO),
        ] {
            match broken.build() {
                Err(CampaignError::InvalidConfig { detail }) => {
                    assert!(!detail.is_empty());
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn chaos_presets_resolve_by_name_and_schedule_deterministically() {
        for (name, plan) in ChaosPlan::presets() {
            assert_eq!(ChaosPlan::preset(name), Some(*plan));
        }
        assert_eq!(ChaosPlan::preset("nope"), None);
        let plan = ChaosPlan::preset("journal").unwrap();
        assert!(plan.fails_journal_write(3));
        assert!(plan.fails_journal_write(6));
        assert!(!plan.fails_journal_write(4));
        // A default (empty) plan injects nothing anywhere.
        let noop = ChaosPlan::default();
        assert!(!noop.fails_journal_write(1));
        noop.apply(&Strategy {
            id: 0,
            kind: StrategyKind::OnPacket {
                endpoint: Endpoint::Client,
                state: "ESTABLISHED".into(),
                packet_type: "ACK".into(),
                attack: BasicAttack::Drop { percent: 100 },
            },
        });
    }

    #[test]
    fn work_queue_covers_every_index_in_chunk_ranges() {
        let queue = WorkQueue::new(7, 3);
        let ranges: Vec<_> = queue.lock().ranges.iter().copied().collect();
        assert_eq!(ranges, [(0, 3), (3, 3), (6, 1)]);
        assert_eq!(queue.remaining(), 7);
        let claimed: Vec<usize> = std::iter::from_fn(|| queue.take_index()).collect();
        assert_eq!(claimed, [0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(WorkQueue::new(0, 4).remaining(), 0);
    }

    #[test]
    fn a_requeue_puts_the_lowest_unfinished_index_first() {
        let queue = WorkQueue::new(10, 3);
        // A link claims its first range, then a requeued-looking later
        // one, delivers index 0 and dies holding the rest.
        let mut outstanding = VecDeque::new();
        for _ in 0..2 {
            let (start, len) = queue.take_range(false).expect("queued work");
            outstanding.extend(start..start + len);
        }
        assert_eq!(outstanding.pop_front(), Some(0));
        queue.settle();
        outstanding.rotate_left(2); // FIFO order need not be index order
        assert_eq!(queue.requeue(&mut outstanding), 1, "1..6 is one range");
        assert!(outstanding.is_empty());
        let ranges: Vec<_> = queue.lock().ranges.iter().copied().collect();
        assert_eq!(ranges, [(1, 5), (6, 3), (9, 1)]);
        assert_eq!(queue.lock().in_flight, 0);
        // Split ranges stay contiguous and in index order.
        let (start, len) = queue.take_range(false).unwrap();
        let mut held: VecDeque<usize> = (start..start + len).collect();
        held.retain(|&i| i != 3);
        queue.settle();
        assert_eq!(queue.requeue(&mut held), 2);
        let ranges: Vec<_> = queue.lock().ranges.iter().copied().collect();
        assert_eq!(ranges, [(1, 2), (4, 2), (6, 3), (9, 1)]);
        // Nothing in flight: a waiting link sees the drained queue.
        while queue.take_index().is_some() {}
        assert_eq!(queue.take_range(true), None);
    }

    #[test]
    fn ensemble_seeds_are_distinct_and_avoid_the_retest_seed() {
        let seed = 7u64;
        let mut seen = std::collections::BTreeSet::new();
        seen.insert(seed);
        seen.insert(seed.wrapping_add(1)); // the re-test seed
        for k in 1..16 {
            assert!(seen.insert(ensemble_seed(seed, k)), "collision at k={k}");
        }
    }
}
