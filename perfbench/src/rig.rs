//! The simulation rig: the executor's no-attack run rebuilt on the public
//! `snake_netsim` API, with every protocol host wrapped in a timing
//! [`Agent`] and the attack proxy wrapped in a timing [`Tap`], so the
//! engines' and the proxy's self time can be split from the simulator's.
//!
//! A clock-read pair costs about half as much as a simulated event,
//! so the wrappers time one callback in [`SAMPLE_EVERY`], subtract the
//! calibrated cost of the clock reads, and scale the sample up by the
//! call count. The rig is only trusted after its run reproduces
//! `Executor::run(spec, None)` exactly (see [`Rig::matches`]).

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use snake_core::{ProtocolKind, ScenarioSpec, TestMetrics, TopologySpec};
use snake_dccp::{DccpHost, DccpServerApp};
use snake_netsim::{
    Addr, Agent, Ctx, Dumbbell, LinkId, NodeId, Packet, SimTime, Simulator, Tap, TapCtx,
    TopologyGen,
};
use snake_proxy::{AttackProxy, DccpAdapter, ProxyConfig, StateTimeline, TcpAdapter};
use snake_tcp::{ServerApp, TcpHost};

/// Callbacks timed per callbacks made, per layer.
const SAMPLE_EVERY: u64 = 8;

/// The layers the wrappers time.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    Tcp = 0,
    Dccp = 1,
    Proxy = 2,
}

/// Call and sample tallies of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerClock {
    pub calls: u64,
    pub sampled: u64,
    pub sampled_nanos: u64,
}

impl LayerClock {
    /// Estimated self time of every call, with `clock_ns` (the cost of
    /// one clock-read pair) taken off each sample.
    pub fn estimated_nanos(&self, clock_ns: f64) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        let per_sample = (self.sampled_nanos as f64 / self.sampled as f64 - clock_ns).max(0.0);
        per_sample * self.calls as f64
    }
}

thread_local! {
    static CLOCKS: RefCell<[LayerClock; 3]> = RefCell::new([LayerClock::default(); 3]);
}

fn timed<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let sample = CLOCKS.with(|c| {
        let clock = &mut c.borrow_mut()[layer as usize];
        clock.calls += 1;
        clock.calls % SAMPLE_EVERY == 0
    });
    if !sample {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let dt = t0.elapsed().as_nanos() as u64;
    CLOCKS.with(|c| {
        let clock = &mut c.borrow_mut()[layer as usize];
        clock.sampled += 1;
        clock.sampled_nanos += dt;
    });
    out
}

/// Mean cost of the clock reads [`timed`] wraps around an empty callback.
pub fn calibrate_clock_ns() -> f64 {
    const N: u32 = 200_000;
    let mut best = f64::MAX;
    for _ in 0..5 {
        let mut total = 0u64;
        for _ in 0..N {
            let t0 = Instant::now();
            black_box(());
            total += t0.elapsed().as_nanos() as u64;
        }
        best = best.min(total as f64 / N as f64);
    }
    best
}

/// A host or proxy with its callbacks timed under `layer`.
struct Timed<T> {
    inner: T,
    layer: Layer,
}

impl<A: Agent> Agent for Timed<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        timed(self.layer, || self.inner.on_start(ctx))
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        timed(self.layer, || self.inner.on_packet(ctx, packet))
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        timed(self.layer, || self.inner.on_timer(ctx, tag))
    }
}

impl<T: Tap> Tap for Timed<T> {
    fn on_start(&mut self, ctx: &mut TapCtx<'_>) {
        timed(self.layer, || self.inner.on_start(ctx))
    }

    fn on_packet(&mut self, ctx: &mut TapCtx<'_>, packet: Packet, toward_b: bool) {
        timed(self.layer, || self.inner.on_packet(ctx, packet, toward_b))
    }

    fn on_timer(&mut self, ctx: &mut TapCtx<'_>, tag: u64) {
        timed(self.layer, || self.inner.on_timer(ctx, tag))
    }

    fn on_finish(&mut self, now: SimTime) {
        timed(self.layer, || self.inner.on_finish(now))
    }
}

// The executor's workload constants for generated topologies.
const RR_PORT: u16 = 8_080;
const RR_BYTES: u64 = 64 * 1024;
const SYN_PORT: u16 = 9_090;
const SYN_BYTES: u64 = 1;

/// One built rig: the simulator plus the handles the measurement needs.
pub struct Rig {
    sim: Simulator,
    proxy_link: LinkId,
    clients: Vec<NodeId>,
    servers: Vec<NodeId>,
    tcp: bool,
    data_end: SimTime,
    end: SimTime,
}

/// What one rig run measured.
#[derive(Debug, Clone)]
pub struct RigRun {
    pub events: u64,
    pub target_bytes: u64,
    pub competing_bytes: u64,
    pub packets_seen: u64,
    pub clocks: [LayerClock; 3],
}

impl RigRun {
    /// Whether the rig reproduced the executor's no-attack run.
    pub fn matches(&self, reference: &TestMetrics) -> bool {
        self.target_bytes == reference.target_bytes
            && self.competing_bytes == reference.competing_bytes
            && self.events == reference.sim_events
    }
}

impl Rig {
    /// Builds the no-attack scenario exactly as the executor does.
    pub fn build(spec: &ScenarioSpec, record_timeline: bool) -> Rig {
        let mut sim = Simulator::new(spec.seed());
        if let Some(budget) = spec.event_budget() {
            sim.set_event_budget(budget);
        }
        let (proxy_link, client_is_a, clients, servers) = match spec.topology() {
            TopologySpec::Dumbbell(d) => {
                let d = Dumbbell::build(&mut sim, *d);
                (
                    d.proxy_link,
                    true,
                    vec![d.client1, d.client2],
                    vec![d.server1, d.server2],
                )
            }
            TopologySpec::Generated(g) => {
                let built = TopologyGen::generate(g)
                    .expect("generated topology is valid")
                    .build(&mut sim);
                (
                    built.proxy_link,
                    built.proxy_client_is_a,
                    built.clients,
                    built.servers,
                )
            }
        };
        let (listens, connects) = flow_plan(spec, clients.len(), servers.len());
        let proxy_config = ProxyConfig {
            client_node: clients[0],
            client_is_a,
            server: Addr::new(servers[0], spec.protocol().service_port()),
            client_port_guess: 40_000,
            seed: spec.seed() ^ 0x5A5A,
        };
        let tcp = match spec.protocol() {
            ProtocolKind::Tcp(profile) => {
                for &server in &servers {
                    let mut host = TcpHost::new(profile.clone());
                    for &(port, bytes) in &listens {
                        host.listen(port, ServerApp::bulk_sender(bytes));
                    }
                    sim.set_agent(
                        server,
                        Timed {
                            inner: host,
                            layer: Layer::Tcp,
                        },
                    );
                }
                for (ci, &client) in clients.iter().enumerate() {
                    let mut host = TcpHost::new(profile.clone());
                    for &(at, si, port) in &connects[ci] {
                        host.connect_at(at, Addr::new(servers[si], port));
                    }
                    sim.set_agent(
                        client,
                        Timed {
                            inner: host,
                            layer: Layer::Tcp,
                        },
                    );
                }
                let mut proxy = AttackProxy::with_rules(TcpAdapter, proxy_config, Vec::new());
                if record_timeline {
                    proxy.record_timeline();
                }
                sim.attach_tap(
                    proxy_link,
                    Timed {
                        inner: proxy,
                        layer: Layer::Proxy,
                    },
                );
                true
            }
            ProtocolKind::Dccp(profile) => {
                for &server in &servers {
                    let mut host = DccpHost::new(profile.clone());
                    for &(port, bytes) in &listens {
                        host.listen(port, DccpServerApp::bulk_sender(bytes));
                    }
                    sim.set_agent(
                        server,
                        Timed {
                            inner: host,
                            layer: Layer::Dccp,
                        },
                    );
                }
                for (ci, &client) in clients.iter().enumerate() {
                    let mut host = DccpHost::new(profile.clone());
                    for &(at, si, port) in &connects[ci] {
                        host.connect_at(at, Addr::new(servers[si], port));
                    }
                    sim.set_agent(
                        client,
                        Timed {
                            inner: host,
                            layer: Layer::Dccp,
                        },
                    );
                }
                let mut proxy = AttackProxy::with_rules(DccpAdapter, proxy_config, Vec::new());
                if record_timeline {
                    proxy.record_timeline();
                }
                sim.attach_tap(
                    proxy_link,
                    Timed {
                        inner: proxy,
                        layer: Layer::Proxy,
                    },
                );
                false
            }
        };
        Rig {
            sim,
            proxy_link,
            clients,
            servers,
            tcp,
            data_end: SimTime::from_secs(spec.data_secs()),
            end: SimTime::from_secs(spec.data_secs() + spec.grace_secs()),
        }
    }

    /// Runs the whole scenario: data phase, measurement, the end-of-test
    /// control actions, grace period.
    pub fn run(mut self) -> (RigRun, Option<StateTimeline>) {
        CLOCKS.with(|c| *c.borrow_mut() = [LayerClock::default(); 3]);
        self.sim.run_until(self.data_end);
        let flow_bytes: Vec<u64> = self
            .clients
            .iter()
            .map(|&c| {
                if self.tcp {
                    self.host::<TcpHost>(c).total_delivered()
                } else {
                    self.host::<DccpHost>(c).total_goodput()
                }
            })
            .collect();
        self.schedule_finish();
        self.sim.run_until(self.end);
        let proxy = &self
            .sim
            .tap::<Timed<AttackProxy>>(self.proxy_link)
            .expect("proxy tap")
            .inner;
        let run = RigRun {
            events: self.sim.events_processed(),
            target_bytes: flow_bytes[0],
            competing_bytes: flow_bytes[1..].iter().sum(),
            packets_seen: proxy.report().packets_seen,
            clocks: CLOCKS.with(|c| *c.borrow()),
        };
        (run, proxy.timeline().cloned())
    }

    /// Events the no-attack run has processed at each of `times`
    /// (ascending, all before the data phase ends or after the finish
    /// actions are scheduled, as the snapshot planner pauses).
    pub fn events_at(mut self, times: &[SimTime]) -> Vec<u64> {
        let mut finished = false;
        times
            .iter()
            .map(|&t| {
                if !finished && t >= self.data_end {
                    self.sim.run_until(self.data_end);
                    self.schedule_finish();
                    finished = true;
                }
                self.sim.run_until(t);
                self.sim.events_processed()
            })
            .collect()
    }

    fn host<A: Agent>(&self, node: NodeId) -> &A {
        &self.sim.agent::<Timed<A>>(node).expect("timed host").inner
    }

    /// TCP clients are killed mid-download; DCCP server applications close.
    fn schedule_finish(&mut self) {
        let at = self.data_end;
        if self.tcp {
            for &client in &self.clients {
                self.sim.schedule_control(at, client, |agent, ctx| {
                    let any: &mut dyn std::any::Any = agent;
                    let host = any.downcast_mut::<Timed<TcpHost>>().expect("tcp host");
                    timed(Layer::Tcp, || host.inner.abort_all(ctx));
                });
            }
        } else {
            for &server in &self.servers {
                self.sim.schedule_control(at, server, |agent, ctx| {
                    let any: &mut dyn std::any::Any = agent;
                    let host = any.downcast_mut::<Timed<DccpHost>>().expect("dccp host");
                    timed(Layer::Dccp, || host.inner.close_all(ctx));
                });
            }
        }
    }
}

/// Listening ports (with the bytes each serves) and every client's
/// `(start, server index, port)` connections, as the executor plans them.
#[allow(clippy::type_complexity)]
fn flow_plan(
    spec: &ScenarioSpec,
    n_clients: usize,
    n_servers: usize,
) -> (Vec<(u16, u64)>, Vec<Vec<(SimTime, usize, u16)>>) {
    use snake_core::FlowRole;
    let port = spec.protocol().service_port();
    let mut connects = vec![Vec::new(); n_clients];
    let Some(groups) = spec.flows() else {
        for i in 0..spec.target_connections().max(1) {
            connects[0].push((SimTime::from_millis(100 * i as u64), 0, port));
        }
        if n_clients > 1 {
            connects[1].push((SimTime::ZERO, 1 % n_servers, port));
        }
        return (vec![(port, u64::MAX)], connects);
    };
    let mut background = 0usize;
    let mut per_role = [0u64; 3];
    for group in groups {
        for _ in 0..group.count {
            let (role, stride_ms, to_port) = match group.role {
                FlowRole::Attacked => {
                    let i = connects[0].len() as u64;
                    connects[0].push((SimTime::from_millis(100 * i), 0, port));
                    continue;
                }
                FlowRole::Bulk => (0, 10, port),
                FlowRole::RequestResponse => (1, 50, RR_PORT),
                FlowRole::SynPressure => (2, 5, SYN_PORT),
            };
            let at = SimTime::from_millis(stride_ms * per_role[role]);
            per_role[role] += 1;
            connects[1 + background % (n_clients - 1)].push((at, background % n_servers, to_port));
            background += 1;
        }
    }
    (
        vec![(port, u64::MAX), (RR_PORT, RR_BYTES), (SYN_PORT, SYN_BYTES)],
        connects,
    )
}
