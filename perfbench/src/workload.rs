//! The three benchmark workloads, built only through the public
//! `snake_core` API so the benchmark measures what a researcher runs.

use std::path::Path;
use std::sync::Arc;

use snake_core::{
    CampaignConfig, ExecutorOptions, FlowGroup, FlowRole, Observer, ProtocolKind, ScenarioSpec,
    TopologyKind,
};
use snake_dccp::DccpProfile;
use snake_netsim::Impairment;
use snake_tcp::Profile;

/// Executor threads per campaign, pinned so the figures do not follow
/// `available_parallelism`.
pub const PARALLELISM: usize = 2;
/// Worker processes of the sharded workload.
pub const SHARDS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Linux 3.13 TCP at paper length under the builder defaults.
    TcpTable1,
    /// DCCP at paper length, dispatched to two shard-worker processes with
    /// a journal, so worker segments are written.
    DccpSharded,
    /// Linux 3.13 on a 256-host tree with 161 flows under the `chaos`
    /// impairment preset and a three-member detection envelope.
    Tree256Chaos,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TcpTable1,
        Workload::DccpSharded,
        Workload::Tree256Chaos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TcpTable1 => "tcp-table1",
            Workload::DccpSharded => "dccp-sharded",
            Workload::Tree256Chaos => "tree256-chaos",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_sharded(self) -> bool {
        self == Workload::DccpSharded
    }

    /// The scenario every strategy of the workload is tested in.
    pub fn spec(self, seed: u64) -> ScenarioSpec {
        match self {
            Workload::TcpTable1 => {
                ScenarioSpec::evaluation(ProtocolKind::Tcp(Profile::linux_3_13())).with_seed(seed)
            }
            Workload::DccpSharded => {
                ScenarioSpec::evaluation(ProtocolKind::Dccp(DccpProfile::linux_3_13()))
                    .with_seed(seed)
            }
            Workload::Tree256Chaos => {
                let flows = [
                    (FlowRole::Attacked, 1),
                    (FlowRole::Bulk, 64),
                    (FlowRole::RequestResponse, 64),
                    (FlowRole::SynPressure, 32),
                ]
                .into_iter()
                .map(|(role, count)| FlowGroup { role, count })
                .collect();
                ScenarioSpec::builder(ProtocolKind::Tcp(Profile::linux_3_13()))
                    .topology(TopologyKind::Tree, 256)
                    .flows(flows)
                    .impairment(Impairment::preset("chaos").expect("chaos preset exists"))
                    .seed(seed)
                    .build()
                    .expect("tree256-chaos scenario is valid")
            }
        }
    }

    /// Ensemble size of the detection envelope.
    pub fn baseline_reps(self) -> usize {
        match self {
            Workload::Tree256Chaos => 3,
            _ => 1,
        }
    }

    /// The campaign configuration. `scratch` holds the sharded workload's
    /// journal (and with it the worker segment directory).
    pub fn config(
        self,
        seed: u64,
        scratch: &Path,
        observer: Arc<dyn Observer>,
    ) -> Result<CampaignConfig, String> {
        let mut builder = CampaignConfig::builder(self.spec(seed))
            .parallelism(PARALLELISM)
            .baseline_reps(self.baseline_reps())
            .observer(observer);
        match self {
            Workload::TcpTable1 => {}
            Workload::DccpSharded => {
                // The worker binary is named explicitly: the benchmark
                // binary itself answers `shard-worker`.
                let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
                builder = builder
                    .shards(SHARDS)
                    .shard_worker_bin(exe)
                    .journal(scratch.join("campaign.jsonl"));
            }
            Workload::Tree256Chaos => builder = builder.cap(400),
        }
        builder.build().map_err(|e| e.to_string())
    }
}

/// The executor options `Campaign::run` uses under the builder defaults:
/// forking and memoization on, no observer.
pub fn executor_options() -> ExecutorOptions {
    ExecutorOptions {
        snapshot_fork: true,
        memoize: true,
        halt_arming: true,
        ..ExecutorOptions::default()
    }
}

/// Seed of ensemble member `k` — the campaign's own derivation, so the
/// set-up probe runs exactly the envelope members `Campaign::run` runs.
pub fn ensemble_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}
