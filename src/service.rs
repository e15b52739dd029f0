//! The compilation service: HTTP routes and JSON glue over the
//! [`flashfuser_serve`] shell.
//!
//! This module is the application half of `flashfuser-serve`'s
//! generic server: it implements [`Handler`], owning the routes
//! and the request/response JSON, while one shared [`Compiler`] behind
//! an `Arc` gives every concurrent request the same plan cache and
//! single-flight coalescer — the whole point of serving compilation
//! from a long-lived process instead of one-shot CLI invocations.
//!
//! # Endpoints
//!
//! | Route                  | Body                        | Response |
//! |------------------------|-----------------------------|----------|
//! | `POST /compile`        | chain, conv or graph spec   | plan record / graph summary |
//! | `POST /batch`          | `{"requests": [spec, ...]}` | per-item records |
//! | `GET /machines`        | —                           | built-in machine registry |
//! | `GET /stats`           | —                           | counters, cache, latency |
//! | `GET /healthz`         | —                           | `{"ok": true}` |
//! | `POST /admin/snapshot` | `{"dir": "/path"}`          | memory-tier export count |
//! | `POST /admin/shutdown` | —                           | ack, then graceful drain |
//!
//! `/admin/snapshot` writes the memory tier only; a disk-backed server
//! ships its `--cache-dir`, which holds every plan it searched.
//!
//! `/compile` and `/batch` bodies may carry an optional `"machine"`
//! member — either a registry name (`"machine": "a100_sxm"`, see
//! `GET /machines`) or an inline descriptor object in the
//! [`codec::encode_machine`] format — and the request then compiles
//! against that target instead of the server's default. Descriptors
//! that parse but fail validation (zero bandwidth, empty tier list,
//! capacity overflow, ...) come back as 422 with the typed
//! [`flashfuser_core::MachineError`] reason.
//!
//! Request bodies are untrusted bytes: they go through
//! [`json::parse_with_limits`] under [`json::ParseLimits::untrusted`]
//! and every typed failure ([`json::JsonErrorKind`]) maps to a 4xx
//! JSON error — the server never panics on input. Successful
//! `/compile` responses are exactly [`codec::encode_record`] output,
//! so they are **byte-identical** across cold, warm and coalesced
//! requests for the same spec — the property the integration tests
//! assert.

use crate::serve::http::Request;
use crate::serve::stats::ServeStats;
use crate::serve::{Handler, Response, ServeOptions, Server};
use crate::workloads::{find_model, unknown_model, ModelSpec};
use crate::{Compiler, GraphPlan};
use flashfuser_core::codec::{self, CodecError};
use flashfuser_core::json::{self, JsonErrorKind, JsonValue, ParseLimits};
use flashfuser_core::{MachineDescriptor, SearchError};
use flashfuser_graph::{ChainSpec, ConvChainSpec};
use std::io;
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Largest single dimension a request may ask the search to handle.
/// Far above every real workload (the largest zoo FFN is 28k), far
/// below anything that could wedge a worker on one request.
pub const MAX_DIM: usize = 1 << 16;

/// Most layers a graph request may lower.
pub const MAX_LAYERS: usize = 64;

/// Most specs one `/batch` request may carry.
pub const MAX_BATCH: usize = 256;

/// Starts the compilation service on `addr` with a shared `compiler`.
///
/// Returns the running [`Server`]; its address ([`Server::addr`]) is
/// the bound socket (use port 0 for an ephemeral port). Shut it down
/// with [`Server::shutdown`], or `POST /admin/shutdown` and
/// [`Server::wait`].
///
/// # Errors
///
/// Returns the underlying I/O error when the listener cannot bind or
/// threads cannot spawn.
pub fn start(
    compiler: Arc<Compiler>,
    addr: impl ToSocketAddrs,
    options: ServeOptions,
) -> io::Result<Server> {
    let stats = Arc::new(ServeStats::new());
    let handler = Arc::new(CompileService::new(compiler, Arc::clone(&stats)));
    Server::start(addr, handler, stats, options)
}

/// Per-endpoint and per-outcome request accounting (the handler-side
/// complement of [`ServeStats`]).
#[derive(Debug, Default)]
struct EndpointCounters {
    compile: AtomicU64,
    batch: AtomicU64,
    graph: AtomicU64,
    machines: AtomicU64,
    stats: AtomicU64,
    healthz: AtomicU64,
    shutdown: AtomicU64,
    snapshot: AtomicU64,
    infeasible: AtomicU64,
}

/// The [`Handler`] implementation: routes, JSON, and the shared
/// [`Compiler`].
pub struct CompileService {
    compiler: Arc<Compiler>,
    serve_stats: Arc<ServeStats>,
    counters: EndpointCounters,
    started: Instant,
}

impl CompileService {
    /// Builds the service around a shared compiler. `serve_stats` must
    /// be the same struct handed to [`Server::start`] so `/stats`
    /// reports admission and latency numbers from the shell.
    pub fn new(compiler: Arc<Compiler>, serve_stats: Arc<ServeStats>) -> CompileService {
        CompileService {
            compiler,
            serve_stats,
            counters: EndpointCounters::default(),
            started: Instant::now(),
        }
    }
}

impl Handler for CompileService {
    fn handle(&self, request: &Request) -> Response {
        let bump = |c: &AtomicU64| c.fetch_add(1, Ordering::Relaxed);
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => {
                bump(&self.counters.healthz);
                Response::json(200, "{\"ok\": true}")
            }
            ("GET", "/stats") => {
                bump(&self.counters.stats);
                Response::json(200, self.stats_json())
            }
            ("GET", "/machines") => {
                bump(&self.counters.machines);
                Response::json(200, machines_json())
            }
            ("POST", "/compile") => self.compile_endpoint(request),
            ("POST", "/batch") => self.batch_endpoint(request),
            ("POST", "/admin/snapshot") => {
                bump(&self.counters.snapshot);
                self.snapshot_endpoint(request)
            }
            ("POST", "/admin/shutdown") => {
                bump(&self.counters.shutdown);
                let mut response = Response::json(200, "{\"shutting_down\": true}");
                response.shutdown = true;
                response
            }
            (
                _,
                "/healthz" | "/stats" | "/compile" | "/batch" | "/machines" | "/admin/snapshot"
                | "/admin/shutdown",
            ) => api_error(405, "method not allowed for this route"),
            _ => api_error(404, "no such route"),
        }
    }
}

impl CompileService {
    /// The compiler a request targets: a view on its `"machine"` member
    /// (sharing the server's cache and coalescer), or the server's
    /// default.
    fn target(&self, machine: Option<MachineDescriptor>) -> Arc<Compiler> {
        match machine {
            Some(m) => Arc::new(self.compiler.for_machine(&m)),
            None => Arc::clone(&self.compiler),
        }
    }

    /// `POST /compile`: one chain/conv/graph spec, optionally against a
    /// per-request machine.
    fn compile_endpoint(&self, request: &Request) -> Response {
        let (spec, machine) = match parse_body_spec(&request.body) {
            Ok(parsed) => parsed,
            Err(e) => return e.into_response(),
        };
        let compiler = self.target(machine);
        match spec {
            CompileSpec::Chain(chain) => {
                self.counters.compile.fetch_add(1, Ordering::Relaxed);
                match compiler.compile_record_for(&chain) {
                    Ok(record) => Response::json(200, codec::encode_record(&record)),
                    Err(SearchError::NoFeasiblePlan) => {
                        self.counters.infeasible.fetch_add(1, Ordering::Relaxed);
                        api_error(
                            422,
                            "no feasible fusion plan under this machine's constraints",
                        )
                    }
                }
            }
            CompileSpec::Graph { model, m, layers } => {
                self.counters.graph.fetch_add(1, Ordering::Relaxed);
                let graph = model.graph(m, layers);
                match compiler.compile_graph(&graph) {
                    Ok(plan) => Response::json(200, graph_summary_json(&model, m, layers, &plan)),
                    Err(e) => api_error(422, &format!("cannot compile graph: {e}")),
                }
            }
        }
    }

    /// `POST /batch`: many chain/conv specs, deduped and sharded by
    /// [`Compiler::compile_batch_records`], optionally against a
    /// per-request machine shared by the whole batch.
    fn batch_endpoint(&self, request: &Request) -> Response {
        self.counters.batch.fetch_add(1, Ordering::Relaxed);
        let (chains, machine) = match parse_batch_body(&request.body) {
            Ok(parsed) => parsed,
            Err(e) => return e.into_response(),
        };
        let outcomes = self.target(machine).compile_batch_records(&chains);
        let mut items = Vec::with_capacity(outcomes.len());
        for outcome in &outcomes {
            match outcome {
                Ok(record) => {
                    // Record documents end with a newline for the disk
                    // store; inside the results array the raw object is
                    // embedded as-is (whitespace is insignificant).
                    items.push(codec::encode_record(record).trim_end().to_string());
                }
                Err(SearchError::NoFeasiblePlan) => {
                    self.counters.infeasible.fetch_add(1, Ordering::Relaxed);
                    items.push("{\"error\": \"no feasible fusion plan\"}".to_string());
                }
            }
        }
        Response::json(
            200,
            format!(
                "{{\"count\": {}, \"results\": [\n{}\n]}}\n",
                items.len(),
                items.join(",\n")
            ),
        )
    }

    /// `POST /admin/snapshot`: export the memory tier (at most the LRU
    /// capacity) to a directory on the *server's* filesystem in the
    /// disk-tier format, which another replica serves as its
    /// `--cache-dir`. This is how a memory-only server warms a fleet; a
    /// disk-backed one ships its own `--cache-dir`.
    fn snapshot_endpoint(&self, request: &Request) -> Response {
        let dir = match parse_untrusted(&request.body) {
            Ok(doc) => match doc.get("dir").and_then(JsonValue::as_str) {
                Some(dir) if !dir.is_empty() => dir.to_string(),
                _ => return api_error(400, "snapshot body must be {\"dir\": \"/path\"}"),
            },
            Err(e) => return e.into_response(),
        };
        match self.compiler.export_snapshot(&dir) {
            Ok(exported) => Response::json(
                200,
                format!(
                    "{{\"exported\": {exported}, \"dir\": \"{}\"}}\n",
                    json::escape(&dir)
                ),
            ),
            Err(e) => api_error(500, &format!("snapshot export failed: {e}")),
        }
    }

    /// The `GET /stats` document: shell counters + compiler counters +
    /// endpoint counters. Integers only (plus no floats at all), so the
    /// document round-trips through `core::json`'s cache subset — the
    /// load generator parses it with the same parser the server uses.
    fn stats_json(&self) -> String {
        let cache = self.compiler.cache_stats();
        // `hit_rate()` is hits/lookups: finite by construction today,
        // but this cast must never be the place a NaN or a rogue value
        // becomes an arbitrary integer (float→int `as` on NaN is 0 by
        // saturating-cast rules — rely on an explicit guard, not on
        // remembering that).
        let hit_rate = cache.hit_rate();
        let hit_permille = if hit_rate.is_finite() {
            (hit_rate.clamp(0.0, 1.0) * 1000.0).round() as u64
        } else {
            0
        };
        let s = &self.serve_stats;
        let c = &self.counters;
        let load = |v: &AtomicU64| v.load(Ordering::Relaxed);
        let hist = |h: &crate::serve::LatencyHistogram| {
            format!(
                "{{\"count\": {}, \"p50\": {}, \"p99\": {}, \"max\": {}, \"mean\": {}}}",
                h.count(),
                h.quantile_us(0.5),
                h.quantile_us(0.99),
                h.max_us(),
                h.mean_us()
            )
        };
        format!(
            concat!(
                "{{\n",
                "  \"endpoints\": {{\"compile\": {compile}, \"batch\": {batch}, ",
                "\"graph\": {graph}, \"machines\": {machines}, \"stats\": {stats}, ",
                "\"healthz\": {healthz}, \"snapshot\": {snapshot}, ",
                "\"shutdown\": {shutdown}}},\n",
                "  \"outcomes\": {{\"ok\": {ok}, \"bad_requests\": {bad}, ",
                "\"infeasible\": {infeasible}, \"dropped\": {dropped}}},\n",
                "  \"admission\": {{\"accepted\": {accepted}, \"rejected_busy\": {rejected}, ",
                "\"in_flight\": {in_flight}, \"reused\": {reused}}},\n",
                "  \"compiler\": {{\"searches\": {searches}, \"coalesced\": {coalesced}, ",
                "\"profile_calls\": {profile_calls}}},\n",
                "  \"cache\": {{\"mem_hits\": {mem_hits}, \"disk_hits\": {disk_hits}, ",
                "\"misses\": {misses}, \"inserts\": {inserts}, \"evictions\": {evictions}, ",
                "\"hit_rate_permille\": {hit_permille}}},\n",
                "  \"latency_us\": {latency},\n",
                "  \"queue_wait_us\": {queue_wait},\n",
                "  \"uptime_ms\": {uptime}\n",
                "}}\n",
            ),
            compile = load(&c.compile),
            batch = load(&c.batch),
            graph = load(&c.graph),
            machines = load(&c.machines),
            stats = load(&c.stats),
            healthz = load(&c.healthz),
            snapshot = load(&c.snapshot),
            shutdown = load(&c.shutdown),
            ok = load(&s.ok_responses),
            bad = load(&s.client_errors),
            infeasible = load(&c.infeasible),
            dropped = load(&s.dropped),
            accepted = load(&s.accepted),
            rejected = load(&s.rejected_busy),
            in_flight = load(&s.in_flight),
            reused = load(&s.reused),
            searches = self.compiler.searches_run(),
            coalesced = self.compiler.coalesced_waits(),
            profile_calls = self.compiler.profile_calls(),
            mem_hits = cache.mem_hits,
            disk_hits = cache.disk_hits,
            misses = cache.misses,
            inserts = cache.inserts,
            evictions = cache.evictions,
            hit_permille = hit_permille,
            latency = hist(&s.latency),
            queue_wait = hist(&s.queue_wait),
            uptime = self.started.elapsed().as_millis(),
        )
    }
}

/// A parsed `/compile` request.
enum CompileSpec {
    /// A two-GEMM chain (direct, or a conv block lowered via im2col).
    Chain(ChainSpec),
    /// A model-zoo graph lowering.
    Graph {
        model: ModelSpec,
        m: usize,
        layers: usize,
    },
}

/// A request error: HTTP status + JSON body message.
#[derive(Debug)]
struct ApiError {
    status: u16,
    message: String,
}

impl ApiError {
    fn new(status: u16, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            message: message.into(),
        }
    }

    fn into_response(self) -> Response {
        api_error(self.status, &self.message)
    }
}

fn api_error(status: u16, message: &str) -> Response {
    Response::json(
        status,
        format!("{{\"error\": \"{}\"}}\n", json::escape(message)),
    )
}

impl From<json::JsonError> for ApiError {
    fn from(e: json::JsonError) -> ApiError {
        let status = match e.kind {
            JsonErrorKind::TooLarge => 413,
            _ => 400,
        };
        ApiError::new(status, format!("invalid JSON body: {e}"))
    }
}

impl From<CodecError> for ApiError {
    fn from(e: CodecError) -> ApiError {
        ApiError::new(400, format!("invalid spec: {e}"))
    }
}

/// The `GET /machines` document: every registry id with its full
/// canonical descriptor (the same encoding `"machine"` accepts inline).
fn machines_json() -> String {
    let entries: Vec<String> = MachineDescriptor::builtin_ids()
        .iter()
        .map(|id| {
            let desc = MachineDescriptor::builtin(id).expect("registry ids resolve");
            format!(
                "{{\"id\": \"{}\", \"descriptor\": {}}}",
                json::escape(id),
                codec::encode_machine(&desc).trim_end()
            )
        })
        .collect();
    format!(
        "{{\"count\": {}, \"machines\": [\n{}\n]}}\n",
        entries.len(),
        entries.join(",\n")
    )
}

/// Resolves an optional top-level `"machine"` member: a registry name
/// string, or an inline descriptor object in the codec format.
/// Descriptors that parse but fail [`MachineDescriptor`] validation map
/// to 422 with the typed reason; malformed documents map to 400.
fn parse_machine(doc: &JsonValue) -> Result<Option<MachineDescriptor>, ApiError> {
    let Some(member) = doc.get("machine") else {
        return Ok(None);
    };
    if let Some(name) = member.as_str() {
        return match MachineDescriptor::builtin(name) {
            Some(desc) => Ok(Some(desc)),
            None => Err(ApiError::new(
                400,
                format!(
                    "unknown machine '{name}'; available: {}",
                    MachineDescriptor::builtin_ids().join(", ")
                ),
            )),
        };
    }
    if !matches!(member, JsonValue::Object(_)) {
        return Err(ApiError::new(
            400,
            "\"machine\" must be a registry name or an inline descriptor object",
        ));
    }
    match codec::decode_machine_value(member) {
        Ok(desc) => Ok(Some(desc)),
        Err(CodecError::Machine(e)) => Err(ApiError::new(
            422,
            format!("invalid machine descriptor: {e}"),
        )),
        Err(e) => Err(ApiError::new(400, format!("invalid machine: {e}"))),
    }
}

/// Parses an untrusted `/compile` body into a spec plus its optional
/// per-request machine.
fn parse_body_spec(body: &[u8]) -> Result<(CompileSpec, Option<MachineDescriptor>), ApiError> {
    let doc = parse_untrusted(body)?;
    let machine = parse_machine(&doc)?;
    Ok((parse_spec_value(&doc)?, machine))
}

/// Parses an untrusted `/batch` body into its chain list plus the
/// optional batch-wide machine.
fn parse_batch_body(body: &[u8]) -> Result<(Vec<ChainSpec>, Option<MachineDescriptor>), ApiError> {
    let doc = parse_untrusted(body)?;
    let machine = parse_machine(&doc)?;
    let requests = doc
        .get("requests")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| ApiError::new(400, "batch body must be {\"requests\": [spec, ...]}"))?;
    if requests.is_empty() {
        return Err(ApiError::new(400, "batch needs at least one spec"));
    }
    if requests.len() > MAX_BATCH {
        return Err(ApiError::new(
            400,
            format!(
                "batch carries {} specs, limit is {MAX_BATCH}",
                requests.len()
            ),
        ));
    }
    let mut chains = Vec::with_capacity(requests.len());
    for (i, item) in requests.iter().enumerate() {
        match parse_spec_value(item) {
            Ok(CompileSpec::Chain(chain)) => chains.push(chain),
            Ok(CompileSpec::Graph { .. }) => {
                return Err(ApiError::new(
                    400,
                    format!("requests[{i}]: graph specs are not batchable; POST /compile them"),
                ))
            }
            Err(e) => {
                return Err(ApiError::new(
                    e.status,
                    format!("requests[{i}]: {}", e.message),
                ))
            }
        }
    }
    Ok((chains, machine))
}

fn parse_untrusted(body: &[u8]) -> Result<JsonValue, ApiError> {
    let text =
        std::str::from_utf8(body).map_err(|_| ApiError::new(400, "request body is not UTF-8"))?;
    Ok(json::parse_with_limits(text, ParseLimits::untrusted())?)
}

fn parse_spec_value(doc: &JsonValue) -> Result<CompileSpec, ApiError> {
    match (doc.get("chain"), doc.get("conv"), doc.get("graph")) {
        (Some(chain_v), None, None) => {
            let chain = codec::decode_chain(chain_v)?;
            check_chain_dims(&chain)?;
            Ok(CompileSpec::Chain(chain))
        }
        (None, Some(conv_v), None) => {
            let dims = require_u64_array(conv_v, "dims", 7)?;
            let [ic, h, w, oc1, oc2, k1, k2] = dims[..] else {
                unreachable!("length checked")
            };
            let spec = ConvChainSpec::try_new(ic, h, w, oc1, oc2, k1, k2)
                .map_err(|e| ApiError::new(400, format!("invalid conv spec: {e}")))?;
            let chain = spec.to_chain();
            check_chain_dims(&chain)?;
            Ok(CompileSpec::Chain(chain))
        }
        (None, None, Some(graph_v)) => {
            let name = graph_v
                .get("model")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| ApiError::new(400, "graph spec needs a \"model\" name"))?;
            let model = find_model(name).ok_or_else(|| ApiError::new(400, unknown_model(name)))?;
            let m = require_usize(graph_v, "m")?;
            if m == 0 || m > MAX_DIM {
                return Err(ApiError::new(
                    400,
                    format!("\"m\" must be in 1..={MAX_DIM}"),
                ));
            }
            let layers = match graph_v.get("layers") {
                None => 2,
                Some(_) => require_usize(graph_v, "layers")?,
            };
            if layers == 0 || layers > MAX_LAYERS {
                return Err(ApiError::new(
                    400,
                    format!("\"layers\" must be in 1..={MAX_LAYERS}"),
                ));
            }
            Ok(CompileSpec::Graph { model, m, layers })
        }
        _ => Err(ApiError::new(
            400,
            "body must carry exactly one of \"chain\", \"conv\" or \"graph\"",
        )),
    }
}

fn check_chain_dims(chain: &ChainSpec) -> Result<(), ApiError> {
    let d = chain.dims();
    for v in [d.m, d.n, d.k, d.l] {
        if v > MAX_DIM {
            return Err(ApiError::new(
                400,
                format!("dimension {v} exceeds the serving limit {MAX_DIM}"),
            ));
        }
    }
    Ok(())
}

fn require_usize(v: &JsonValue, key: &str) -> Result<usize, ApiError> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .and_then(|raw| usize::try_from(raw).ok())
        .ok_or_else(|| ApiError::new(400, format!("\"{key}\" must be an unsigned integer")))
}

fn require_u64_array(v: &JsonValue, key: &str, len: usize) -> Result<Vec<usize>, ApiError> {
    let arr = v
        .get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| ApiError::new(400, format!("\"{key}\" must be an array")))?;
    if arr.len() != len {
        return Err(ApiError::new(
            400,
            format!("\"{key}\" must have exactly {len} entries"),
        ));
    }
    arr.iter()
        .map(|item| {
            item.as_u64()
                .and_then(|raw| usize::try_from(raw).ok())
                .ok_or_else(|| ApiError::new(400, format!("\"{key}\" entries must be integers")))
        })
        .collect()
}

/// The `/compile` response for a graph spec: stitched summary figures
/// (seconds as IEEE-754 bit patterns like every float in the codec,
/// with human-readable mirrors).
fn graph_summary_json(model: &ModelSpec, m: usize, layers: usize, plan: &GraphPlan) -> String {
    let fused = plan.fused_segments().count();
    let fell_back = plan.fused_segments().filter(|f| f.fell_back).count();
    let attention_fused = plan
        .fused_segments()
        .filter(|f| f.chain.kind().is_attention() && !f.fell_back)
        .count();
    format!(
        concat!(
            "{{\n",
            "  \"model\": \"{model}\", \"m\": {m}, \"layers\": {layers},\n",
            "  \"segments\": {segments}, \"fused\": {fused}, \"fell_back\": {fell_back},\n",
            "  \"attention_fused\": {attention_fused},\n",
            "  \"seconds_bits\": {seconds_bits}, \"seconds_approx\": \"{seconds:e}\",\n",
            "  \"unfused_seconds_bits\": {unfused_bits}, ",
            "\"unfused_seconds_approx\": \"{unfused:e}\",\n",
            "  \"speedup_approx\": \"{speedup:.3}\", \"global_bytes\": {global_bytes}\n",
            "}}\n",
        ),
        model = json::escape(model.name),
        m = m,
        layers = layers,
        segments = plan.segments.len(),
        fused = fused,
        fell_back = fell_back,
        attention_fused = attention_fused,
        seconds_bits = plan.seconds.to_bits(),
        seconds = plan.seconds,
        unfused_bits = plan.unfused_seconds.to_bits(),
        unfused = plan.unfused_seconds,
        speedup = plan.speedup(),
        global_bytes = plan.global_bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashfuser_core::MachineDescriptor;
    use flashfuser_tensor::Activation;

    fn spec_of(body: &str) -> Result<CompileSpec, ApiError> {
        parse_body_spec(body.as_bytes()).map(|(spec, _)| spec)
    }

    #[test]
    fn chain_conv_and_graph_specs_parse() {
        let chain = spec_of(
            r#"{"chain": {"family": "gated", "activation": "silu", "dims": [128, 512, 256, 256]}}"#,
        );
        match chain.unwrap() {
            CompileSpec::Chain(c) => {
                assert_eq!(
                    c,
                    ChainSpec::gated_ffn(128, 512, 256, 256, Activation::Silu)
                );
            }
            _ => panic!("expected a chain"),
        }
        let conv = spec_of(r#"{"conv": {"dims": [64, 56, 56, 256, 64, 1, 1]}}"#);
        match conv.unwrap() {
            CompileSpec::Chain(c) => {
                assert_eq!(c, ConvChainSpec::new(64, 56, 56, 256, 64, 1, 1).to_chain());
            }
            _ => panic!("expected a lowered conv chain"),
        }
        let graph = spec_of(r#"{"graph": {"model": "GPT-2", "m": 128, "layers": 3}}"#);
        match graph.unwrap() {
            CompileSpec::Graph { model, m, layers } => {
                assert_eq!(model.name, "GPT-2");
                assert_eq!((m, layers), (128, 3));
            }
            _ => panic!("expected a graph"),
        }
    }

    #[test]
    fn bad_specs_map_to_4xx_not_panics() {
        for (body, status) in [
            ("", 400),                             // empty: truncated JSON
            ("not json", 400),                     // not JSON at all
            ("{}", 400),                           // no spec key
            (r#"{"chain": {}, "conv": {}}"#, 400), // ambiguous
            (
                r#"{"chain": {"family": "standard", "activation": "relu", "dims": [0, 1, 1, 1]}}"#,
                400,
            ),
            (
                r#"{"chain": {"family": "standard", "activation": "relu", "dims": [128, 512, 256, 99999999]}}"#,
                400,
            ),
            (r#"{"conv": {"dims": [64, 56, 56, 256, 64, 1, 3]}}"#, 400), // k2 != 1
            (r#"{"conv": {"dims": [64, 56, 56, 256, 64, 2, 1]}}"#, 400), // even k1
            (
                // H*W overflows the lowered GEMM M on 64-bit usize.
                r#"{"conv": {"dims": [64, 4611686018427387904, 4611686018427387904, 256, 64, 1, 1]}}"#,
                400,
            ),
            (r#"{"conv": {"dims": [64, 56, 56]}}"#, 400), // wrong arity
            (r#"{"graph": {"model": "nope", "m": 128}}"#, 400),
            (r#"{"graph": {"model": "GPT-2", "m": 0}}"#, 400),
            (
                r#"{"graph": {"model": "GPT-2", "m": 128, "layers": 10000}}"#,
                400,
            ),
        ] {
            let err = spec_of(body).err().unwrap_or_else(|| {
                panic!("spec must be rejected: {body}");
            });
            assert_eq!(err.status, status, "{body}");
        }
        // Oversized documents are 413, matching the HTTP-level cap.
        let huge = format!(
            r#"{{"chain": {{"family": "standard", "name": "{}", "activation": "relu", "dims": [1, 1, 1, 1]}}}}"#,
            "x".repeat(2 * 1024 * 1024)
        );
        assert_eq!(spec_of(&huge).err().map(|e| e.status), Some(413));
    }

    #[test]
    fn batch_bodies_parse_and_reject_graphs() {
        let ok = parse_batch_body(
            br#"{"requests": [
                {"chain": {"family": "standard", "activation": "relu", "dims": [128, 512, 256, 256]}},
                {"conv": {"dims": [64, 56, 56, 256, 64, 1, 1]}}
            ]}"#,
        )
        .unwrap();
        assert_eq!(ok.0.len(), 2);
        assert!(ok.1.is_none());
        assert!(parse_batch_body(b"{\"requests\": []}").is_err());
        assert!(
            parse_batch_body(br#"{"requests": [{"graph": {"model": "GPT-2", "m": 128}}]}"#)
                .is_err()
        );
    }

    #[test]
    fn machine_member_resolves_names_and_inline_descriptors() {
        let chain =
            r#""chain": {"family": "standard", "activation": "relu", "dims": [64, 256, 128, 128]}"#;
        let parse = |body: String| parse_body_spec(body.as_bytes());

        let (_, m) = parse(format!(r#"{{{chain}, "machine": "a100_sxm"}}"#)).unwrap();
        assert_eq!(
            m.unwrap().fingerprint(),
            MachineDescriptor::a100_sxm().fingerprint()
        );

        let inline = codec::encode_machine(&MachineDescriptor::h100_sxm());
        let (_, m) = parse(format!(r#"{{{chain}, "machine": {}}}"#, inline.trim_end())).unwrap();
        assert_eq!(
            m.unwrap().fingerprint(),
            MachineDescriptor::h100_sxm().fingerprint()
        );

        let unknown = parse(format!(r#"{{{chain}, "machine": "tpu_v9"}}"#))
            .err()
            .unwrap();
        assert_eq!(unknown.status, 400);
        assert!(unknown.message.contains("h100_sxm"), "{}", unknown.message);

        let wrong_type = parse(format!(r#"{{{chain}, "machine": 7}}"#))
            .err()
            .unwrap();
        assert_eq!(wrong_type.status, 400);

        // Parses as a descriptor but fails validation: typed 422.
        let invalid = parse(format!(
            r#"{{{chain}, "machine": {{"version": 1, "name": "x", "compute": {{"num_sms": 4, "clock_hz": 1e9, "peak_flops": 1e12, "max_cluster": 1, "barrier_cycles": 10, "kernel_launch_s": 1e-6}}, "tiers": []}}}}"#
        ))
        .err()
        .unwrap();
        assert_eq!(invalid.status, 422);
        assert!(
            invalid.message.contains("tier"),
            "typed reason expected: {}",
            invalid.message
        );
    }

    #[test]
    fn stats_document_round_trips_through_core_json() {
        let compiler = Arc::new(Compiler::new(MachineDescriptor::h100_sxm()));
        let service = CompileService::new(compiler, Arc::new(ServeStats::new()));
        let doc = json::parse(&service.stats_json()).expect("stats JSON parses");
        assert_eq!(
            doc.get("compiler")
                .unwrap()
                .get("searches")
                .unwrap()
                .as_u64(),
            Some(0)
        );
        assert!(doc.get("latency_us").unwrap().get("p99").is_some());
        // A cold cache has zero lookups: the guarded permille must be
        // exactly 0, never a NaN-cast artifact.
        assert_eq!(
            doc.get("cache")
                .unwrap()
                .get("hit_rate_permille")
                .unwrap()
                .as_u64(),
            Some(0)
        );
        assert_eq!(
            doc.get("admission")
                .unwrap()
                .get("reused")
                .unwrap()
                .as_u64(),
            Some(0)
        );
    }

    #[test]
    fn snapshot_endpoint_validates_its_body() {
        let compiler = Arc::new(Compiler::new(MachineDescriptor::h100_sxm()));
        let service = CompileService::new(compiler, Arc::new(ServeStats::new()));
        let post = |body: &str| {
            service.handle(&Request {
                method: "POST".into(),
                path: "/admin/snapshot".into(),
                headers: Default::default(),
                body: body.as_bytes().to_vec(),
                keep_alive: true,
            })
        };
        assert_eq!(post("{}").status, 400);
        assert_eq!(post("{\"dir\": \"\"}").status, 400);
        assert_eq!(post("{\"dir\": 7}").status, 400);
        assert_eq!(post("not json").status, 400);
        // An empty cache exports zero records successfully.
        let dir = std::env::temp_dir().join(format!("ff-svc-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ok = post(&format!("{{\"dir\": \"{}\"}}", dir.display()));
        assert_eq!(ok.status, 200);
        let body = std::str::from_utf8(&ok.body).unwrap();
        assert!(body.contains("\"exported\": 0"), "{body}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
