//! The five workloads: set-up, timed phase, correctness checks.
//!
//! This module (and the `run` bin over it) may name only the HTTP wire,
//! `service::start`, `Compiler::{new, compile, compile_graph}`,
//! `sim::{unfused_time, execute_graph_with, execute_fused_with,
//! interpret_graph, seeded_graph_inputs}`, `codec::{encode_chain,
//! encode_record, decode_record, decode_machine}` and the `workloads`
//! tables. Every other layer function lives in the `trace` bin, so a
//! later change that renames a layer's internals can break the traced
//! run but never the end-to-end one.

use crate::gen::{self, Body, ChainRequest};
use crate::host;
use crate::json::{self, Json};
use crate::pace::{PacedSample, Pacer};
use crate::wire::{request_bytes, Conn};
use flashfuser::core::codec::{decode_record, encode_record, PlanRecord};
use flashfuser::core::MachineDescriptor;
use flashfuser::graph::op::NodeId;
use flashfuser::graph::{ChainSpec, OpGraph, OpKind};
use flashfuser::serve::{ServeOptions, Server};
use flashfuser::sim::{
    execute_fused_with, execute_graph_with, interpret_graph, seeded_graph_inputs, unfused_time,
    ExecSegment, TrafficCounters,
};
use flashfuser::tensor::rng::{derive_seed, SplitMix64};
use flashfuser::tensor::{Matrix, NumericConfig};
use flashfuser::workloads::{find_model, large_model_zoo, model_zoo};
use flashfuser::{
    service, Compiled, CompiledSegment, Compiler, GraphPlan, DEFAULT_TOLERANCE, UNFUSED_EFFICIENCY,
};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Length of one round of a serve workload. The timed phase is cut into
/// many short rounds and each metric reports its best round: on a
/// shared host the wake-up path these workloads live on slows down for
/// seconds at a time, and only the quiet rounds measure the program.
pub const SERVE_ROUND: Duration = Duration::from_millis(1000);

/// `serve_mixed` sends one novel chain per period.
pub const MISS_PERIOD: Duration = Duration::from_millis(100);

/// Hidden size the zoo models are scaled to for numeric execution, and
/// the tokens per layer.
pub const ZOO_HIDDEN: usize = 512;
pub const ZOO_TOKENS: usize = 128;

/// One timed operation: which request kind, how long.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub kind: u16,
    pub us: f64,
}

/// The samples of one round with the wall and CPU time they took.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Correctness accounting: every operation and every check attempted,
/// and how many of them failed or gave a wrong answer.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Checks {
    /// Counts one attempt; `what` describes it when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(what);
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Modeled quality of the plans a workload compiled, served or ran.
#[derive(Debug, Clone, Default)]
pub struct PlanQuality {
    /// Unfused ÷ fused modeled seconds, one per plan.
    pub speedups: Vec<f64>,
    /// Fused ÷ unfused global bytes, one per plan.
    pub bytes_ratios: Vec<f64>,
}

impl PlanQuality {
    fn push_chain(
        &mut self,
        chain: &ChainSpec,
        machine: &MachineDescriptor,
        seconds: f64,
        bytes: u64,
    ) {
        let unfused = unfused_time(chain, machine, UNFUSED_EFFICIENCY);
        self.speedups.push(unfused.seconds / seconds);
        self.bytes_ratios
            .push(bytes as f64 / chain.unfused_global_bytes() as f64);
    }

    fn push_graph(&mut self, plan: &GraphPlan) {
        let unfused_bytes: u64 = plan
            .segments
            .iter()
            .map(|s| match s {
                CompiledSegment::Fused(f) => f.chain.unfused_global_bytes(),
                CompiledSegment::Unfused(u) => u.bytes,
            })
            .sum();
        self.speedups.push(plan.speedup());
        self.bytes_ratios
            .push(plan.global_bytes as f64 / unfused_bytes as f64);
    }
}

/// What the driver needs from a workload.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// The tail percentile `op_tail_us` reports (see
    /// [`crate::stats::tail_quantile`]).
    const TAIL_Q: f64;

    /// Everything a user pays before the first warm request.
    fn set_up(seed: u64) -> Self;
    /// Labels of the request kinds, indexed by [`Sample::kind`].
    fn kinds(&self) -> Vec<String>;
    /// The uncached requests seen so far, by kind.
    fn cold(&self) -> &[Sample];
    /// The timed phase.
    fn measure(&mut self, seconds: f64, checks: &mut Checks) -> Vec<Round>;
    /// Checks after the clock stops, and the quality of the plans.
    fn verify(&mut self, checks: &mut Checks) -> PlanQuality;
    /// Extra numbers for the human-readable report.
    fn notes(&self) -> Vec<(String, f64)> {
        Vec::new()
    }
    fn tear_down(self) {}
}

/// `max|got − want| / max(1, max|want|)`: the same normwise error the
/// repository's own validator gates on.
pub fn normwise_err(got: &Matrix, want: &Matrix) -> f32 {
    if got.shape() != want.shape() {
        return f32::INFINITY;
    }
    let scale = want.as_slice().iter().fold(1.0f32, |s, &x| s.max(x.abs()));
    got.as_slice()
        .iter()
        .zip(want.as_slice())
        .map(|(x, y)| {
            if x.is_finite() {
                (x - y).abs()
            } else {
                f32::INFINITY
            }
        })
        .fold(0.0, f32::max)
        / scale
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1e3
}

// ---------------------------------------------------------------------
// cold_chain
// ---------------------------------------------------------------------

/// Library caller, nothing cached: a fresh `Compiler` per request.
pub struct ColdChain {
    pub requests: Vec<ChainRequest>,
    /// What each request compiled to on the warm-up pass; every later
    /// pass must reproduce it.
    pub first: Vec<Compiled>,
    /// Distinct `feasible_candidates` values seen per request (the one
    /// field that is thread-dependent today, so it is recorded, not
    /// compared).
    pub feasible: Vec<BTreeSet<u64>>,
    seed: u64,
    cold: Vec<Sample>,
}

/// One cold compile as a library user issues it.
pub fn cold_compile(request: &ChainRequest) -> Compiled {
    Compiler::new(request.machine.clone())
        .compile(&request.chain)
        .unwrap_or_else(|e| panic!("{}: {e}", request.label))
}

/// Everything of a compile result that must repeat exactly.
fn same_plan(a: &Compiled, b: &Compiled) -> bool {
    a.plan == b.plan
        && a.measured_seconds.to_bits() == b.measured_seconds.to_bits()
        && a.global_bytes == b.global_bytes
}

impl Workload for ColdChain {
    const NAME: &'static str = "cold_chain";
    // With 16 equally frequent kinds p95 lies inside the slowest kind's
    // own distribution; p90 would sit on the border between two kinds
    // and flip between them from run to run.
    const TAIL_Q: f64 = 0.95;

    fn set_up(seed: u64) -> Self {
        let requests = gen::cold_requests();
        // One discarded pass: page in the code, size the allocator.
        let first: Vec<Compiled> = requests.iter().map(cold_compile).collect();
        let feasible = first
            .iter()
            .map(|c| BTreeSet::from([c.feasible_candidates]))
            .collect();
        ColdChain {
            requests,
            first,
            feasible,
            seed,
            cold: Vec::new(),
        }
    }

    fn kinds(&self) -> Vec<String> {
        self.requests.iter().map(|r| r.label.clone()).collect()
    }

    /// Every timed request of this workload is a cold one.
    fn cold(&self) -> &[Sample] {
        &self.cold
    }

    fn measure(&mut self, seconds: f64, checks: &mut Checks) -> Vec<Round> {
        let mut rng = SplitMix64::new(derive_seed(self.seed, "cold-order"));
        let mut order: Vec<usize> = (0..self.requests.len()).collect();
        let mut round = Round::default();
        let cpu0 = host::cpu_seconds();
        let start = Instant::now();
        // Whole passes only, so every request has the same sample count.
        while start.elapsed().as_secs_f64() < seconds {
            gen::shuffle(&mut order, &mut rng);
            for &i in &order {
                let t0 = Instant::now();
                let compiled = cold_compile(&self.requests[i]);
                let us = micros(t0);
                round.samples.push(Sample { kind: i as u16, us });
                round.wall_s += us / 1e6;
                self.cold.push(Sample { kind: i as u16, us });
                checks.check(same_plan(&compiled, &self.first[i]), || {
                    format!("{}: plan differs between passes", self.requests[i].label)
                });
                self.feasible[i].insert(compiled.feasible_candidates);
            }
        }
        round.cpu_s = host::cpu_seconds() - cpu0;
        vec![round]
    }

    fn verify(&mut self, checks: &mut Checks) -> PlanQuality {
        let mut quality = PlanQuality::default();
        for (request, compiled) in self.requests.iter().zip(&self.first) {
            quality.push_chain(
                &request.chain,
                &request.machine,
                compiled.measured_seconds,
                compiled.global_bytes,
            );
            let record = PlanRecord {
                plan: compiled.plan.clone(),
                seconds: compiled.measured_seconds,
                global_bytes: compiled.global_bytes,
                dsm_bytes: 0,
                feasible: compiled.feasible_candidates,
            };
            checks.check(
                decode_record(&encode_record(&record)).as_ref() == Ok(&record),
                || format!("{}: record does not survive the codec", request.label),
            );
            if request.executable {
                let inputs = request.chain.make_inputs(self.seed);
                let mut counters = TrafficCounters::new();
                let got = execute_fused_with(
                    &compiled.plan,
                    &inputs,
                    &mut counters,
                    NumericConfig::blocked(),
                );
                let want = request.chain.reference_output(&inputs);
                let ok = match (&got, &want) {
                    (Ok(got), Ok(want)) => normwise_err(got, want) <= DEFAULT_TOLERANCE,
                    _ => false,
                };
                checks.check(ok, || {
                    format!(
                        "{}: fused execution differs from the reference",
                        request.label
                    )
                });
            }
        }
        quality
    }

    fn notes(&self) -> Vec<(String, f64)> {
        let distinct = self.feasible.iter().map(BTreeSet::len).max().unwrap_or(0);
        vec![("feasible_distinct_max".into(), distinct as f64)]
    }
}

// ---------------------------------------------------------------------
// The served workloads
// ---------------------------------------------------------------------

/// An in-process compilation service with every body compiled once.
pub struct Service {
    pub compiler: Arc<Compiler>,
    server: Server,
    pub addr: SocketAddr,
    pub bodies: Vec<Body>,
    /// The first reply to each body; every later reply must equal it
    /// byte for byte.
    pub expected: Vec<Vec<u8>>,
    /// How long each body's first (uncached) request took.
    pub first: Vec<Sample>,
}

impl Service {
    /// Starts the service on an ephemeral loopback port, as a replica
    /// limited to one CPU would run it (default options, so one worker
    /// and single-threaded searches), and posts every body once.
    pub fn start(bodies: Vec<Body>) -> Service {
        // Before any thread of the service or a client exists, so all
        // of them inherit it (see `pin_to_one_cpu` for why).
        host::pin_to_one_cpu();
        let compiler = Arc::new(Compiler::new(MachineDescriptor::h100_sxm()));
        let options = ServeOptions {
            // A benchmark client is one long-lived connection; the
            // default budget of 1024 requests would close it mid-round.
            max_requests_per_conn: u64::MAX,
            ..ServeOptions::default()
        };
        let server = service::start(Arc::clone(&compiler), ("127.0.0.1", 0), options)
            .expect("bind an ephemeral loopback port");
        let addr = server.addr();
        let mut conn = Conn::open(addr).expect("connect to the service");
        let mut expected = Vec::with_capacity(bodies.len());
        let mut first = Vec::with_capacity(bodies.len());
        for (kind, body) in bodies.iter().enumerate() {
            let mut reply = Vec::new();
            let t0 = Instant::now();
            let status = conn
                .round_trip(&body.request, &mut reply)
                .unwrap_or_else(|e| panic!("{}: {e}", body.label));
            first.push(Sample {
                kind: kind as u16,
                us: micros(t0),
            });
            assert_eq!(
                status,
                200,
                "{}: {}",
                body.label,
                String::from_utf8_lossy(&reply)
            );
            expected.push(reply);
        }
        Service {
            compiler,
            server,
            addr,
            bodies,
            expected,
            first,
        }
    }

    /// The label of every body, in order.
    pub fn labels(&self) -> Vec<String> {
        self.bodies.iter().map(|b| b.label.clone()).collect()
    }

    /// `GET /stats`, parsed.
    pub fn stats(&self) -> Json {
        let mut conn = Conn::open(self.addr).expect("connect for /stats");
        let mut reply = Vec::new();
        let status = conn
            .round_trip(&request_bytes("GET", "/stats", b""), &mut reply)
            .expect("GET /stats");
        assert_eq!(status, 200, "/stats must answer 200");
        json::parse(&String::from_utf8_lossy(&reply)).expect("/stats is JSON")
    }

    /// One counter of the `/stats` document.
    pub fn stat(doc: &Json, section: &str, key: &str) -> u64 {
        doc.get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("/stats lost {section}.{key}"))
    }

    pub fn stop(self) {
        self.server.shutdown();
    }
}

/// A closed-loop client: one connection, next request only after the
/// previous reply.
pub struct HitClient {
    conn: Conn,
    order: Vec<usize>,
    cursor: usize,
    reply: Vec<u8>,
}

impl HitClient {
    pub fn open(service: &Service, seed: u64) -> HitClient {
        HitClient {
            conn: Conn::open(service.addr).expect("connect a client"),
            order: gen::request_order(seed, 0, service.bodies.len(), 64),
            cursor: 0,
            reply: Vec::new(),
        }
    }

    /// Sends requests until `until`, checking every reply.
    pub fn run_until(&mut self, service: &Service, until: Instant) -> (Vec<Sample>, Checks) {
        let mut samples = Vec::new();
        let mut checks = Checks::default();
        while Instant::now() < until {
            let kind = self.order[self.cursor % self.order.len()];
            self.cursor += 1;
            let t0 = Instant::now();
            let outcome = self
                .conn
                .round_trip(&service.bodies[kind].request, &mut self.reply);
            let us = micros(t0);
            let ok = matches!(outcome, Ok(200)) && self.reply == service.expected[kind];
            checks.check(ok, || {
                format!(
                    "{}: {outcome:?}, reply {} the first one",
                    service.bodies[kind].label,
                    if self.reply == service.expected[kind] {
                        "equals"
                    } else {
                        "differs from"
                    }
                )
            });
            if ok {
                samples.push(Sample {
                    kind: kind as u16,
                    us,
                });
            } else if outcome.is_err() {
                // The socket is gone; a fresh one keeps the loop closed.
                match Conn::open(service.addr) {
                    Ok(conn) => self.conn = conn,
                    Err(_) => break,
                }
            }
        }
        (samples, checks)
    }
}

/// Runs `seconds` worth of [`SERVE_ROUND`]s of the closed-loop client;
/// `beside` runs next to it in every round (the paced miss client of
/// `serve_mixed`, nothing otherwise).
fn serve_rounds(
    service: &Service,
    client: &mut HitClient,
    seconds: f64,
    checks: &mut Checks,
    mut beside: impl FnMut(Instant, Duration) -> Checks,
) -> Vec<Round> {
    let count = ((seconds / SERVE_ROUND.as_secs_f64()).round() as usize).max(1);
    let mut rounds = Vec::with_capacity(count);
    for _ in 0..count {
        let round_len = SERVE_ROUND;
        let cpu0 = host::cpu_seconds();
        let start = Instant::now();
        let until = start + round_len;
        let (samples, client_checks) = std::thread::scope(|scope| {
            let hits = scope.spawn(|| client.run_until(service, until));
            checks.merge(beside(start, round_len));
            hits.join().expect("client thread panicked")
        });
        checks.merge(client_checks);
        rounds.push(Round {
            samples,
            wall_s: start.elapsed().as_secs_f64(),
            cpu_s: host::cpu_seconds() - cpu0,
        });
    }
    rounds
}

/// Searches the service has run so far, read over the wire.
fn searches(service: &Service) -> u64 {
    Service::stat(&service.stats(), "compiler", "searches")
}

/// The timed phase of a workload whose every request is cached: the
/// closed-loop client alone, and not one search may run.
fn measure_cached(
    service: &Service,
    client: &mut HitClient,
    seconds: f64,
    checks: &mut Checks,
) -> Vec<Round> {
    let before = searches(service);
    let rounds = serve_rounds(service, client, seconds, checks, |_, _| Checks::default());
    let ran = searches(service) - before;
    checks.check(ran == 0, || {
        format!("{ran} searches ran while every request was cached")
    });
    rounds
}

/// Chain replies are plan records: each must survive the codec, and
/// together they give the quality of the plans served.
fn verify_chain_replies(service: &Service, checks: &mut Checks) -> PlanQuality {
    let h100 = MachineDescriptor::h100_sxm();
    let mut quality = PlanQuality::default();
    for (body, reply) in service.bodies.iter().zip(&service.expected) {
        let text = String::from_utf8_lossy(reply);
        match decode_record(&text) {
            Ok(record) => {
                checks.check(
                    encode_record(&record) == text
                        && decode_record(&encode_record(&record)).as_ref() == Ok(&record),
                    || format!("{}: served record does not survive the codec", body.label),
                );
                quality.push_chain(
                    &record.plan.chain,
                    &h100,
                    record.seconds,
                    record.global_bytes,
                );
            }
            Err(e) => checks.check(false, || format!("{}: {e}", body.label)),
        }
    }
    quality
}

/// One closed-loop client over the 14 cached chain bodies.
pub struct ServeHit {
    pub service: Service,
    pub client: HitClient,
}

impl Workload for ServeHit {
    const NAME: &'static str = "serve_hit";
    const TAIL_Q: f64 = 0.99;

    fn set_up(seed: u64) -> Self {
        let service = Service::start(gen::chain_bodies());
        let client = HitClient::open(&service, seed);
        ServeHit { service, client }
    }

    fn kinds(&self) -> Vec<String> {
        self.service
            .bodies
            .iter()
            .map(|b| b.label.clone())
            .collect()
    }

    fn cold(&self) -> &[Sample] {
        &self.service.first
    }

    fn measure(&mut self, seconds: f64, checks: &mut Checks) -> Vec<Round> {
        measure_cached(&self.service, &mut self.client, seconds, checks)
    }

    fn verify(&mut self, checks: &mut Checks) -> PlanQuality {
        verify_chain_replies(&self.service, checks)
    }

    fn tear_down(self) {
        drop(self.client);
        self.service.stop();
    }
}

/// The same client over six whole-model graph bodies.
pub struct ServeGraph {
    pub service: Service,
    pub client: HitClient,
}

/// The graph a `serve_graph` body asks the service to lower.
pub fn model_graph(model: &str, layers: usize) -> OpGraph {
    find_model(model)
        .unwrap_or_else(|| panic!("model zoo lost {model}"))
        .graph(gen::GRAPH_M, layers)
}

impl Workload for ServeGraph {
    const NAME: &'static str = "serve_graph";
    const TAIL_Q: f64 = 0.99;

    fn set_up(seed: u64) -> Self {
        let service = Service::start(gen::graph_bodies());
        let client = HitClient::open(&service, seed);
        ServeGraph { service, client }
    }

    fn kinds(&self) -> Vec<String> {
        self.service
            .bodies
            .iter()
            .map(|b| b.label.clone())
            .collect()
    }

    fn cold(&self) -> &[Sample] {
        &self.service.first
    }

    fn measure(&mut self, seconds: f64, checks: &mut Checks) -> Vec<Round> {
        measure_cached(&self.service, &mut self.client, seconds, checks)
    }

    fn verify(&mut self, checks: &mut Checks) -> PlanQuality {
        let mut quality = PlanQuality::default();
        let replies = self.service.bodies.iter().zip(&self.service.expected);
        for (&(model, layers), (body, reply)) in gen::GRAPH_MODELS.iter().zip(replies) {
            // The service shares this compiler, so the same graph
            // compiled in-process must stitch to the served numbers.
            let plan = self
                .service
                .compiler
                .compile_graph(&model_graph(model, layers))
                .unwrap_or_else(|e| panic!("{model}: {e}"));
            let doc = json::parse(&String::from_utf8_lossy(reply)).unwrap_or(Json::Null);
            let served = |key: &str| doc.get(key).and_then(Json::as_u64);
            checks.check(
                served("seconds_bits") == Some(plan.seconds.to_bits())
                    && served("unfused_seconds_bits") == Some(plan.unfused_seconds.to_bits())
                    && served("global_bytes") == Some(plan.global_bytes)
                    && served("fused") == Some(plan.fused_segments().count() as u64),
                || {
                    format!(
                        "{}: served summary differs from the compiled plan",
                        body.label
                    )
                },
            );
            quality.push_graph(&plan);
        }
        quality
    }

    fn tear_down(self) {
        drop(self.client);
        self.service.stop();
    }
}

/// The paced client of `serve_mixed`: one novel chain per
/// [`MISS_PERIOD`], drawn without replacement.
pub struct MissClient {
    conn: Conn,
    /// Seed-shuffled novel bodies.
    pub novel: Vec<Body>,
    pub sent: usize,
    pub paced: Vec<PacedSample>,
    /// Latency from the due time; every novel body is its own kind.
    misses: Vec<Sample>,
}

impl MissClient {
    /// How late the generator itself ran: the share of requests sent
    /// more than 1 ms after they were due, and the median lateness (µs).
    pub fn lateness(&self) -> (f64, f64) {
        let late_us: Vec<f64> = self
            .paced
            .iter()
            .map(|s| s.lateness().as_secs_f64() * 1e6)
            .collect();
        let share = crate::pace::late_share(&self.paced, Duration::from_millis(1));
        if late_us.is_empty() {
            (share, 0.0)
        } else {
            (share, crate::stats::median(&late_us))
        }
    }

    /// This client's share of one round that began at `start`.
    fn run_round(&mut self, start: Instant, round_len: Duration) -> Checks {
        let pacer = Pacer::new(MISS_PERIOD);
        let mut checks = Checks::default();
        let mut reply = Vec::new();
        for index in 0.. {
            let due = pacer.due(index);
            if due >= round_len || self.sent >= self.novel.len() {
                break;
            }
            std::thread::sleep(pacer.wait(index, start.elapsed()));
            let kind = self.sent as u16;
            let body = &self.novel[self.sent];
            self.sent += 1;
            let sent = start.elapsed();
            let outcome = self.conn.round_trip(&body.request, &mut reply);
            let sample = PacedSample {
                due,
                sent,
                done: start.elapsed(),
            };
            let text = String::from_utf8_lossy(&reply);
            let ok = matches!(outcome, Ok(200))
                && decode_record(&text).is_ok_and(|record| encode_record(&record) == text);
            checks.check(ok, || format!("{}: {outcome:?}", body.label));
            if ok {
                self.paced.push(sample);
                self.misses.push(Sample {
                    kind,
                    us: sample.latency().as_secs_f64() * 1e6,
                });
            }
        }
        checks
    }
}

/// One hit client beside one paced stream of cache misses.
pub struct ServeMixed {
    pub service: Service,
    pub hit: HitClient,
    pub miss: MissClient,
}

impl Workload for ServeMixed {
    const NAME: &'static str = "serve_mixed";
    const TAIL_Q: f64 = 0.99;

    fn set_up(seed: u64) -> Self {
        let service = Service::start(gen::chain_bodies());
        let hit = HitClient::open(&service, seed);
        let miss = MissClient {
            conn: Conn::open(service.addr).expect("connect the paced client"),
            novel: gen::novel_catalogue(seed),
            sent: 0,
            paced: Vec::new(),
            misses: Vec::new(),
        };
        ServeMixed { service, hit, miss }
    }

    fn kinds(&self) -> Vec<String> {
        self.service
            .bodies
            .iter()
            .map(|b| b.label.clone())
            .collect()
    }

    /// Only the paced misses: what a novel request waits, from its due
    /// time, while the other client keeps the service busy.
    fn cold(&self) -> &[Sample] {
        &self.miss.misses
    }

    fn measure(&mut self, seconds: f64, checks: &mut Checks) -> Vec<Round> {
        let ServeMixed { service, hit, miss } = self;
        let before = searches(service);
        let sent_before = miss.sent;
        let rounds = serve_rounds(service, hit, seconds, checks, |start, len| {
            miss.run_round(start, len)
        });
        let ran = searches(service) - before;
        let sent = (miss.sent - sent_before) as u64;
        checks.check(ran == sent, || {
            format!("{ran} searches for {sent} novel chains")
        });
        rounds
    }

    fn verify(&mut self, checks: &mut Checks) -> PlanQuality {
        verify_chain_replies(&self.service, checks)
    }

    fn notes(&self) -> Vec<(String, f64)> {
        let (late_share, lateness_p50_us) = self.miss.lateness();
        vec![
            ("misses_sent".into(), self.miss.sent as f64),
            ("paced_late_share".into(), late_share),
            ("paced_lateness_p50_us".into(), lateness_p50_us),
        ]
    }

    fn tear_down(self) {
        drop(self.hit);
        drop(self.miss);
        self.service.stop();
    }
}

// ---------------------------------------------------------------------
// exec_zoo
// ---------------------------------------------------------------------

/// One zoo layer ready to execute: graph, plan, inputs and the naive
/// interpreter's answer.
pub struct ZooCase {
    pub name: &'static str,
    pub graph: OpGraph,
    pub plan: GraphPlan,
    pub inputs: Vec<(NodeId, Matrix)>,
    /// The reference: `interpret_graph` on the naive kernel, computed in
    /// set-up and never inside a timed region.
    pub oracle: Vec<Matrix>,
    pub outputs: Vec<NodeId>,
}

impl ZooCase {
    /// The plan's segments in the executor's input form.
    pub fn segments(&self) -> Vec<ExecSegment<'_>> {
        self.plan
            .segments
            .iter()
            .map(|s| match s {
                CompiledSegment::Fused(f) => ExecSegment::Fused {
                    plan: &f.compiled.plan,
                    nodes: &f.nodes,
                },
                CompiledSegment::Unfused(u) => ExecSegment::Unfused { nodes: &u.nodes },
            })
            .collect()
    }
}

/// Numeric execution of compiled plans on the blocked kernel.
pub struct ExecZoo {
    pub cases: Vec<ZooCase>,
    seed: u64,
    compiles: Vec<Sample>,
}

impl Workload for ExecZoo {
    const NAME: &'static str = "exec_zoo";
    const TAIL_Q: f64 = 0.90;

    fn set_up(seed: u64) -> Self {
        let mut compiles = Vec::new();
        let cases = model_zoo()
            .into_iter()
            .chain(large_model_zoo())
            .enumerate()
            .map(|(kind, model)| {
                let graph = model.scaled_to(ZOO_HIDDEN).layer_graph(ZOO_TOKENS);
                let t0 = Instant::now();
                let plan = Compiler::new(MachineDescriptor::h100_sxm())
                    .compile_graph(&graph)
                    .unwrap_or_else(|e| panic!("{}: {e}", model.name));
                compiles.push(Sample {
                    kind: kind as u16,
                    us: micros(t0),
                });
                let inputs = seeded_graph_inputs(&graph, derive_seed(seed, model.name));
                let oracle = interpret_graph(&graph, &inputs)
                    .unwrap_or_else(|e| panic!("{}: {e}", model.name));
                let outputs = (0..graph.len())
                    .filter(|&id| graph.node(id).kind == OpKind::Output)
                    .collect();
                ZooCase {
                    name: model.name,
                    graph,
                    plan,
                    inputs,
                    oracle,
                    outputs,
                }
            })
            .collect();
        ExecZoo {
            cases,
            seed,
            compiles,
        }
    }

    fn kinds(&self) -> Vec<String> {
        self.cases.iter().map(|c| c.name.to_string()).collect()
    }

    fn cold(&self) -> &[Sample] {
        &self.compiles
    }

    fn measure(&mut self, seconds: f64, checks: &mut Checks) -> Vec<Round> {
        let mut rng = SplitMix64::new(derive_seed(self.seed, "zoo-order"));
        let mut order: Vec<usize> = (0..self.cases.len()).collect();
        let mut round = Round::default();
        let cpu0 = host::cpu_seconds();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            gen::shuffle(&mut order, &mut rng);
            for &i in &order {
                let case = &self.cases[i];
                let segments = case.segments();
                let t0 = Instant::now();
                let outcome = execute_graph_with(
                    &case.graph,
                    &segments,
                    &case.inputs,
                    NumericConfig::blocked(),
                );
                let us = micros(t0);
                round.samples.push(Sample { kind: i as u16, us });
                round.wall_s += us / 1e6;
                let ok =
                    outcome.as_ref().is_ok_and(|execution| {
                        let numeric = case.outputs.iter().all(|&id| {
                            execution.value(id).is_some_and(|got| {
                                normwise_err(got, &case.oracle[id]) <= DEFAULT_TOLERANCE
                            })
                        });
                        // Unfused segments must move exactly the bytes the
                        // plan charged them (the fused half of this check
                        // needs the analyzer and lives in the trace bin).
                        let traffic = case.plan.segments.iter().zip(&execution.traces).all(
                            |(segment, trace)| match segment {
                                CompiledSegment::Unfused(u) => {
                                    trace.counters.global_bytes() == u.bytes
                                }
                                CompiledSegment::Fused(_) => true,
                            },
                        );
                        numeric && traffic
                    });
                checks.check(ok, || {
                    format!("{}: execution differs from the oracle", case.name)
                });
            }
        }
        round.cpu_s = host::cpu_seconds() - cpu0;
        vec![round]
    }

    fn verify(&mut self, _checks: &mut Checks) -> PlanQuality {
        let mut quality = PlanQuality::default();
        for case in &self.cases {
            quality.push_graph(&case.plan);
        }
        quality
    }
}
