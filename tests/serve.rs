//! Integration tests for the compilation service: a real server on an
//! ephemeral loopback port, driven by real TCP clients.
//!
//! The load-bearing properties (ISSUE 5 acceptance):
//!
//! * a same-key burst of concurrent requests runs **exactly one**
//!   fusion search and every response is **byte-identical** — as are
//!   the answers of two separately started cold replicas;
//! * a saturated admission queue answers 503 + `Retry-After` — it
//!   never hangs and never panics — while admitted requests still
//!   complete;
//! * malformed, oversized and infeasible requests map to typed 4xx
//!   JSON errors and the server keeps serving afterwards;
//! * shutdown through the control endpoint drains cleanly.
//!
//! The keep-alive conformance suite (ISSUE 9 acceptance):
//!
//! * pipelined same-connection bursts are **byte-identical** to the
//!   one-shot responses of serve v1's close-per-request discipline;
//! * a client that disconnects mid-stream frees its worker — the
//!   server keeps answering with `workers: 1`;
//! * the read deadline re-arms **per request**: a long-lived healthy
//!   connection is never killed by an idle timer, but a trickling
//!   second request is;
//! * a 503 under saturation does not cost a keep-alive client its
//!   connection;
//! * `POST /admin/snapshot` writes a directory that a replica opens as
//!   its cache dir, and the replica answers the same workload
//!   byte-identically with **zero** new searches.

use flashfuser::prelude::*;
use flashfuser::serve::{client, Handler, Request, Response, ServeOptions, ServeStats, Server};
use flashfuser::service;
use flashfuser_core::codec::{decode_record, encode_chain, encode_machine};
use flashfuser_core::json;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// A small, fast-to-search chain for request bodies.
fn small_chain() -> ChainSpec {
    ChainSpec::standard_ffn(64, 32, 16, 16, Activation::Relu).named("itest")
}

fn chain_body(chain: &ChainSpec) -> String {
    format!("{{\"chain\": {}}}", encode_chain(chain))
}

fn start(options: ServeOptions) -> (Server, Arc<Compiler>, SocketAddr) {
    let compiler = Arc::new(Compiler::new(MachineDescriptor::h100_sxm()));
    let server = service::start(Arc::clone(&compiler), ("127.0.0.1", 0), options)
        .expect("bind ephemeral loopback port");
    let addr = server.addr();
    (server, compiler, addr)
}

/// The compile service behind a handler that first holds the worker for
/// `hold`, to make saturation deterministic.
struct Delayed {
    inner: service::CompileService,
    hold: Duration,
}

impl Handler for Delayed {
    fn handle(&self, request: &Request) -> Response {
        std::thread::sleep(self.hold);
        self.inner.handle(request)
    }
}

/// A service that saturates on its third concurrent request: one worker
/// holding every request for `hold`, one queue slot behind it.
fn start_saturable(hold: Duration) -> (Server, SocketAddr) {
    let compiler = Arc::new(Compiler::new(MachineDescriptor::h100_sxm()));
    let stats = Arc::new(ServeStats::new());
    let handler = Arc::new(Delayed {
        inner: service::CompileService::new(compiler, Arc::clone(&stats)),
        hold,
    });
    let options = ServeOptions {
        workers: 1,
        queue_depth: 1,
        ..ServeOptions::default()
    };
    let server = Server::start(("127.0.0.1", 0), handler, stats, options)
        .expect("bind ephemeral loopback port");
    let addr = server.addr();
    (server, addr)
}

#[test]
fn same_key_burst_runs_one_search_and_responses_are_bit_identical() {
    let (server, compiler, addr) = start(ServeOptions {
        workers: 8,
        ..ServeOptions::default()
    });
    let body = chain_body(&small_chain());
    const K: usize = 8;
    let mut bodies: Vec<Vec<u8>> = Vec::with_capacity(K);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..K)
            .map(|_| {
                let body = body.as_bytes();
                scope.spawn(move || {
                    let response = client::post(addr, "/compile", body).expect("burst request");
                    assert_eq!(response.status, 200, "{}", response.body_utf8());
                    response.body
                })
            })
            .collect();
        for handle in handles {
            bodies.push(handle.join().expect("client thread"));
        }
    });
    // Whether a request coalesced behind the leader's in-flight search
    // or hit the populated cache, the search ran exactly once...
    assert_eq!(
        compiler.searches_run(),
        1,
        "burst must coalesce to one search"
    );
    // ...and every caller got the same bytes, which decode to a valid
    // record for the requested chain.
    for body in &bodies[1..] {
        assert_eq!(body, &bodies[0], "responses must be byte-identical");
    }
    let record = decode_record(std::str::from_utf8(&bodies[0]).unwrap()).expect("record decodes");
    assert_eq!(record.plan.chain, small_chain());
    assert!(record.seconds > 0.0);
    // The server-side stats agree.
    let stats = json::parse(client::get(addr, "/stats").unwrap().body_utf8()).unwrap();
    let searches = stats.get("compiler").unwrap().get("searches").unwrap();
    assert_eq!(searches.as_u64(), Some(1));
    server.shutdown();
}

#[test]
fn two_cold_replicas_answer_the_same_compile_with_the_same_bytes() {
    // Two separately started services, each with an empty cache and a
    // different search thread count (as two hosts of a fleet would
    // have): the response is a pure function of the request. G1 is big
    // enough that the workers' bound skipping interleaves differently.
    let g1 = ChainSpec::standard_ffn(128, 512, 32, 256, Activation::Relu).named("G1");
    let body = chain_body(&g1);
    let answers = [1, 3].map(|threads| {
        let machine = MachineDescriptor::h100_sxm();
        let mut options = CompilerOptions::new();
        options.config = Some(flashfuser::default_config_for(&machine).with_threads(threads));
        let compiler = Arc::new(Compiler::with_options(machine, options).unwrap());
        let server = service::start(
            Arc::clone(&compiler),
            ("127.0.0.1", 0),
            ServeOptions::default(),
        )
        .expect("bind ephemeral loopback port");
        let response = client::post(server.addr(), "/compile", body.as_bytes()).unwrap();
        assert_eq!(response.status, 200, "{}", response.body_utf8());
        assert_eq!(compiler.searches_run(), 1, "every replica starts cold");
        server.shutdown();
        response.body_utf8().to_string()
    });
    assert_eq!(
        answers[0], answers[1],
        "replicas must answer byte-identically"
    );
    let record = decode_record(&answers[0]).expect("record decodes");
    assert_eq!(record.plan.chain, g1);
}

#[test]
fn saturated_queue_answers_503_and_admitted_requests_complete() {
    let (server, addr) = start_saturable(Duration::from_millis(300));
    const K: usize = 6;
    let mut responses = Vec::with_capacity(K);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..K)
            .map(|_| scope.spawn(move || client::get(addr, "/healthz").expect("definitive answer")))
            .collect();
        for handle in handles {
            responses.push(handle.join().expect("client thread"));
        }
    });
    let rejected: Vec<_> = responses.iter().filter(|r| r.status == 503).collect();
    let served = responses.iter().filter(|r| r.status == 200).count();
    assert!(
        rejected.len() >= 3,
        "one worker held 300 ms + queue depth 1 must reject most of a 6-burst, rejected {}",
        rejected.len()
    );
    assert!(served >= 1, "admitted requests must be served");
    assert_eq!(served + rejected.len(), K, "nothing may hang or vanish");
    for r in &rejected {
        assert_eq!(
            r.headers.get("retry-after").map(String::as_str),
            Some("1"),
            "503 must carry the retry hint"
        );
        let doc = json::parse(r.body_utf8()).expect("503 body is JSON");
        assert!(doc.get("error").is_some());
    }
    // The server is still healthy after the storm.
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    server.shutdown();
}

#[test]
fn malformed_and_infeasible_requests_map_to_typed_errors() {
    let (server, _compiler, addr) = start(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    let cases: &[(&str, u16)] = &[
        ("this is not json", 400),
        ("{}", 400),
        ("{\"chain\": {\"family\": \"standard\"}}", 400),      // missing fields
        ("{\"chain\": {\"family\": \"standard\", \"activation\": \"relu\", \"dims\": [1.5, 1, 1, 1]}}", 400), // float
        ("{\"conv\": {\"dims\": [64, 56, 56, 256, 64, 1, 3]}}", 400), // k2 != 1
        ("{\"graph\": {\"model\": \"no-such-model\", \"m\": 64}}", 400),
        (&format!("{{\"deep\": {}{}}}", "[".repeat(64), "]".repeat(64)), 400), // nesting bomb
        ("{\"chain\": {\"family\": \"standard\", \"activation\": \"relu\", \"dims\": [1, 1, 1, 1]}}", 422), // searches, finds nothing
    ];
    for (body, expected) in cases {
        let response = client::post(addr, "/compile", body.as_bytes()).expect("response");
        assert_eq!(
            response.status,
            *expected,
            "body {body:?} gave {}: {}",
            response.status,
            response.body_utf8()
        );
        let doc = json::parse(response.body_utf8()).expect("error body is JSON");
        assert!(doc.get("error").is_some(), "error body names the problem");
    }
    // Routing errors.
    assert_eq!(client::get(addr, "/no/such/route").unwrap().status, 404);
    assert_eq!(client::get(addr, "/compile").unwrap().status, 405);
    assert_eq!(
        client::request(addr, "DELETE", "/stats", b"")
            .unwrap()
            .status,
        405
    );
    // An oversized Content-Length claim is refused before the body is
    // read (413), and the server keeps serving.
    let huge_head = format!(
        "POST /compile HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        64 * 1024 * 1024
    );
    assert_eq!(client::raw(addr, huge_head.as_bytes()).unwrap().status, 413);
    // ... and so is one whose oversized body actually arrives: the
    // worker drains the stream before closing so the 413 is not
    // destroyed by an RST racing the unread bytes.
    let big_body = vec![b'x'; 2 * 1024 * 1024];
    let r = client::post(addr, "/compile", &big_body).expect("413 must be readable");
    assert_eq!(r.status, 413);
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    // All of the above were counted as client errors, none crashed a
    // worker.
    let stats = json::parse(client::get(addr, "/stats").unwrap().body_utf8()).unwrap();
    let bad = stats.get("outcomes").unwrap().get("bad_requests").unwrap();
    // The cases, the 404 and two 405s, and the two 413s the shell
    // answers before any handler runs.
    assert_eq!(bad.as_u64(), Some(cases.len() as u64 + 3 + 2));
    server.shutdown();
}

#[test]
fn batch_endpoint_dedupes_and_conv_specs_lower_to_the_same_record() {
    let (server, compiler, addr) = start(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    // C1-shaped conv, scaled down: lowers to the same chain as the
    // explicit GEMM spec below.
    let conv = "{\"conv\": {\"dims\": [16, 8, 8, 32, 16, 1, 1]}}";
    let lowered = ChainSpec::standard_ffn(64, 32, 16, 16, Activation::Relu);
    let batch = format!(
        "{{\"requests\": [{conv}, {chain}, {conv}]}}",
        chain = chain_body(&lowered)
    );
    let response = client::post(addr, "/batch", batch.as_bytes()).expect("batch");
    assert_eq!(response.status, 200, "{}", response.body_utf8());
    let doc = json::parse(response.body_utf8()).expect("batch response parses");
    assert_eq!(doc.get("count").and_then(json::JsonValue::as_u64), Some(3));
    let results = doc.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 3);
    // All three are records of the same underlying plan: one search.
    assert_eq!(compiler.searches_run(), 1);
    for item in results {
        assert!(item.get("plan").is_some(), "each result is a full record");
    }
    assert_eq!(results[0], results[2], "duplicate specs give equal records");
    // A direct /compile of the conv spec matches the batch item's plan.
    let single = client::post(addr, "/compile", conv.as_bytes()).unwrap();
    assert_eq!(single.status, 200);
    assert_eq!(
        compiler.searches_run(),
        1,
        "still one search after /compile"
    );
    server.shutdown();
}

#[test]
fn graph_requests_compile_through_the_shared_cache() {
    let (server, compiler, addr) = start(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    // GPT-2 at a small token count: two layers share every shape, so
    // the request resolves each of its two chains once and layer 2
    // shares layer 1's plans.
    let body = "{\"graph\": {\"model\": \"GPT-2\", \"m\": 64, \"layers\": 2}}";
    let response = client::post(addr, "/compile", body.as_bytes()).expect("graph compile");
    assert_eq!(response.status, 200, "{}", response.body_utf8());
    let doc = json::parse(response.body_utf8()).expect("graph summary parses");
    assert_eq!(
        doc.get("model").and_then(json::JsonValue::as_str),
        Some("GPT-2")
    );
    let fused = doc.get("fused").and_then(json::JsonValue::as_u64).unwrap();
    assert!(fused >= 2, "both layers' FFNs fuse, got {fused}");
    let searches_after_first = compiler.searches_run();
    assert!(searches_after_first >= 1);
    // The identical graph again: zero new searches.
    let again = client::post(addr, "/compile", body.as_bytes()).unwrap();
    assert_eq!(again.status, 200);
    assert_eq!(compiler.searches_run(), searches_after_first);
    assert_eq!(
        again.body, response.body,
        "graph summaries are bit-identical"
    );
    server.shutdown();
}

#[test]
fn cold_graph_bodies_search_exactly_once_per_cache_miss() {
    let (server, _compiler, addr) = start(ServeOptions::default());
    // The six whole-model bodies of the `serve_graph` benchmark. Each
    // holds two distinct chains: BERT and GPT-2 share both, OPT-1.3B
    // and LLaMA-1B their attention window, so 9 of the 12 are new.
    let bodies: Vec<String> = [
        ("BERT", 12),
        ("GPT-2", 12),
        ("OPT-1.3B", 24),
        ("LLaMA-1B", 22),
        ("GPT-6.7B", 32),
        ("qwen2_5-14B", 48),
    ]
    .iter()
    .map(|(model, layers)| {
        format!("{{\"graph\": {{\"model\": \"{model}\", \"m\": 128, \"layers\": {layers}}}}}")
    })
    .collect();
    let post_all = || {
        for body in &bodies {
            let response = client::post(addr, "/compile", body.as_bytes()).unwrap();
            assert_eq!(response.status, 200, "{}", response.body_utf8());
        }
    };
    post_all();
    let searches = stat(addr, "compiler", "searches");
    assert_eq!(searches, stat(addr, "cache", "misses"));
    assert_eq!(searches, 9);
    assert_eq!(stat(addr, "cache", "mem_hits"), 3);
    // Warm: one lookup per distinct chain per request, all hits.
    post_all();
    assert_eq!(stat(addr, "compiler", "searches"), searches);
    assert_eq!(stat(addr, "cache", "misses"), searches);
    assert_eq!(stat(addr, "cache", "mem_hits"), 3 + 12);
    server.shutdown();
}

#[test]
fn graph_requests_answer_fused_attention_evidence_over_tcp() {
    let (server, _compiler, addr) = start(ServeOptions::default());
    // The graph summary must attest that the attention windows fused
    // (not merely that *something* fused).
    let body = "{\"graph\": {\"model\": \"GPT-2\", \"m\": 64, \"layers\": 2}}";
    let response = client::post(addr, "/compile", body.as_bytes()).expect("graph compile");
    assert_eq!(response.status, 200, "{}", response.body_utf8());
    let doc = json::parse(response.body_utf8()).expect("graph summary parses");
    let attention_fused = doc
        .get("attention_fused")
        .and_then(json::JsonValue::as_u64)
        .expect("summary carries attention_fused");
    assert_eq!(attention_fused, 2, "one fused attention window per layer");
    let fused = doc.get("fused").and_then(json::JsonValue::as_u64).unwrap();
    assert!(
        fused >= attention_fused + 2,
        "FFNs fuse alongside attention, got fused={fused}"
    );

    // A direct attention chain request answers a full fused-plan
    // record through the same codec as every other chain family.
    let chain = ChainSpec::attention(64, 64, 64, 64, true).named("attn-itest");
    let response = client::post(addr, "/compile", chain_body(&chain).as_bytes()).unwrap();
    assert_eq!(response.status, 200, "{}", response.body_utf8());
    let record = decode_record(response.body_utf8()).expect("attention record decodes");
    assert_eq!(record.plan.chain, chain);
    assert!(record.plan.chain.kind().is_attention());
    assert!(record.seconds > 0.0);
    server.shutdown();
}

#[test]
fn machines_endpoint_lists_registry_and_requests_can_target_them() {
    let (server, compiler, addr) = start(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    // GET /machines: every registry id, each with its full descriptor
    // embedded as a decodable object.
    let listing = client::get(addr, "/machines").expect("machines listing");
    assert_eq!(listing.status, 200);
    let doc = json::parse(listing.body_utf8()).expect("listing is JSON");
    let machines = doc.get("machines").unwrap().as_array().unwrap();
    assert_eq!(
        doc.get("count").and_then(json::JsonValue::as_u64),
        Some(machines.len() as u64)
    );
    let ids: Vec<&str> = machines
        .iter()
        .filter_map(|m| m.get("id").and_then(json::JsonValue::as_str))
        .collect();
    for id in MachineDescriptor::builtin_ids() {
        assert!(ids.contains(id), "registry id {id} missing from {ids:?}");
    }
    for m in machines {
        let tiers = m
            .get("descriptor")
            .and_then(|d| d.get("tiers"))
            .and_then(json::JsonValue::as_array)
            .expect("each entry embeds a descriptor with tiers");
        assert_eq!(tiers.len(), 5, "canonical five-tier list");
    }

    // A request can target a machine by registry name or by inline
    // descriptor; both address the same plan (same fingerprint, same
    // cache entry) and return byte-identical records.
    let chain = small_chain();
    let by_name = client::post(
        addr,
        "/compile",
        format!(
            "{{\"chain\": {}, \"machine\": \"a100_sxm\"}}",
            encode_chain(&chain)
        )
        .as_bytes(),
    )
    .expect("named-machine compile");
    assert_eq!(by_name.status, 200, "{}", by_name.body_utf8());
    let inline = encode_machine(&MachineDescriptor::a100_sxm());
    let by_inline = client::post(
        addr,
        "/compile",
        format!(
            "{{\"chain\": {}, \"machine\": {}}}",
            encode_chain(&chain),
            inline.trim_end()
        )
        .as_bytes(),
    )
    .expect("inline-machine compile");
    assert_eq!(by_inline.status, 200, "{}", by_inline.body_utf8());
    assert_eq!(
        by_inline.body, by_name.body,
        "name and wire descriptor must hit the same cache entry"
    );
    assert_eq!(
        compiler.searches_run(),
        1,
        "the inline A100 coalesces onto the named A100's plan"
    );
    // The default (H100) plan is a different machine: new search, and
    // the record's measured timing differs.
    let default = client::post(addr, "/compile", chain_body(&chain).as_bytes()).unwrap();
    assert_eq!(default.status, 200);
    assert_eq!(
        compiler.searches_run(),
        2,
        "machine axis partitions the cache"
    );
    let a100_record = decode_record(by_name.body_utf8()).unwrap();
    let h100_record = decode_record(default.body_utf8()).unwrap();
    assert_ne!(
        a100_record.seconds.to_bits(),
        h100_record.seconds.to_bits(),
        "A100 and H100 timings must differ"
    );
    server.shutdown();
}

#[test]
fn nonsense_machine_descriptors_map_to_422_with_typed_reasons() {
    let (server, _compiler, addr) = start(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    // Tamper with the canonical H100 wire encoding: each mutation is
    // well-formed JSON with the right schema, but a physically
    // nonsensical machine — the structural validator must answer 422
    // (not 400, not 500) with the typed reason in the error body.
    let encoded = encode_machine(&MachineDescriptor::h100_sxm());
    let zero_bw = encoded.replacen("\"bandwidth\": 31000000000000", "\"bandwidth\": 0", 1);
    assert_ne!(zero_bw, encoded, "SMEM bandwidth anchor must exist");
    let overflow = encoded.replacen(
        "\"capacity_bytes\": 232448",
        "\"capacity_bytes\": 281474976710657", // (1 << 48) + 1
        1,
    );
    assert_ne!(overflow, encoded, "SMEM capacity anchor must exist");
    let tiers_at = encoded.find("\"tiers\": [").expect("tiers member");
    let empty_tiers = format!("{}\"tiers\": []\n}}\n", &encoded[..tiers_at]);

    let chain = encode_chain(&small_chain());
    let cases: &[(&str, &str)] = &[
        (&zero_bw, "zero bandwidth"),
        (&empty_tiers, "tier list"),
        (&overflow, "capacity"),
    ];
    for (machine, reason) in cases {
        let body = format!(
            "{{\"chain\": {chain}, \"machine\": {}}}",
            machine.trim_end()
        );
        let response = client::post(addr, "/compile", body.as_bytes()).expect("response");
        assert_eq!(
            response.status,
            422,
            "{reason}: got {}: {}",
            response.status,
            response.body_utf8()
        );
        let doc = json::parse(response.body_utf8()).expect("422 body is JSON");
        let message = doc
            .get("error")
            .and_then(json::JsonValue::as_str)
            .expect("error body names the problem");
        assert!(
            message.contains(reason),
            "{reason}: error should carry the typed reason, got: {message}"
        );
    }
    // An unknown registry name is a 400 that lists what does exist.
    let unknown = client::post(
        addr,
        "/compile",
        format!("{{\"chain\": {chain}, \"machine\": \"tpu_v9\"}}").as_bytes(),
    )
    .unwrap();
    assert_eq!(unknown.status, 400);
    assert!(unknown.body_utf8().contains("h100_sxm"));
    // The server keeps serving after every rejection.
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    server.shutdown();
}

/// Fetches `/stats` and pulls `section.field` as a u64.
fn stat(addr: SocketAddr, section: &str, field: &str) -> u64 {
    let body = client::get(addr, "/stats").expect("stats");
    let doc = json::parse(body.body_utf8()).expect("stats parse");
    doc.get(section)
        .and_then(|s| s.get(field))
        .and_then(json::JsonValue::as_u64)
        .unwrap_or_else(|| panic!("stats missing {section}.{field}"))
}

#[test]
fn pipelined_keep_alive_bursts_are_bit_identical_to_one_shot_responses() {
    let (server, compiler, addr) = start(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    let body = chain_body(&small_chain());
    // Reference bytes from the v1 discipline: one connection, one
    // request, `Connection: close`.
    let reference = client::post(addr, "/compile", body.as_bytes()).expect("one-shot");
    assert_eq!(reference.status, 200, "{}", reference.body_utf8());

    // v2 discipline: one connection, a pipelined burst of four.
    let mut conn = client::Connection::open(addr).expect("keep-alive connection");
    let items: Vec<(&str, &str, &[u8])> = (0..4)
        .map(|_| ("POST", "/compile", body.as_bytes()))
        .collect();
    let responses = conn.pipeline(&items).expect("pipelined burst");
    assert_eq!(responses.len(), 4);
    for response in &responses {
        assert_eq!(response.status, 200);
        assert_eq!(
            response.body, reference.body,
            "pipelined responses must be byte-identical to one-shot"
        );
    }
    // The burst rode the populated cache: still exactly one search,
    // and the admission stats show the connection was reused.
    assert_eq!(compiler.searches_run(), 1);
    assert!(
        stat(addr, "admission", "reused") >= 3,
        "requests 2..4 of the burst count as connection reuse"
    );
    server.shutdown();
}

/// A handler that records the path of every request a worker runs.
#[derive(Default)]
struct Recording(std::sync::Mutex<Vec<String>>);

impl Handler for Recording {
    fn handle(&self, request: &Request) -> Response {
        self.0.lock().unwrap().push(request.path.clone());
        Response::json(200, "{}")
    }
}

#[test]
fn chunked_body_is_refused_not_cut_into_a_smuggled_request() {
    // The parser frames bodies by Content-Length only: parsed as
    // body-less, a chunked POST would have its chunk read as the next
    // pipelined request.
    let handler = Arc::new(Recording::default());
    let stats = Arc::new(ServeStats::new());
    let server = Server::start(
        ("127.0.0.1", 0),
        Arc::clone(&handler) as Arc<dyn Handler>,
        stats,
        ServeOptions::default(),
    )
    .expect("bind ephemeral loopback port");
    let mut conn = client::Connection::open(server.addr()).expect("connection");
    let smuggled = "GET /smuggled HTTP/1.1\r\n\r\n";
    let raw = format!(
        "POST /compile HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n{smuggled}\r\n0\r\n\r\n",
        smuggled.len()
    );
    conn.send_raw(raw.as_bytes()).expect("send");
    let refused = conn.recv().expect("a typed refusal");
    assert_eq!(refused.status, 501, "{}", refused.body_utf8());
    assert!(
        conn.recv().is_err(),
        "framing is lost: the connection closes after the one 501"
    );
    server.shutdown();
    assert!(
        handler.0.lock().unwrap().is_empty(),
        "no worker ran any part of the chunked request"
    );
}

#[test]
fn mid_stream_disconnect_frees_the_worker() {
    let (server, _compiler, addr) = start(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });
    let body = chain_body(&small_chain());
    // Disconnect after a *complete* request: the single worker runs the
    // search for a peer that is gone; the completion must not wedge it.
    {
        let mut conn = client::Connection::open(addr).expect("connection");
        conn.send("POST", "/compile", body.as_bytes())
            .expect("send");
    } // dropped without reading the response
      // Disconnect after a *partial* request: the reactor sees EOF with
      // bytes buffered and must not leak the connection slot.
    {
        let mut conn = client::Connection::open(addr).expect("connection");
        conn.send_raw(b"POST /compile HTTP/1.1\r\nContent-Le")
            .expect("partial send");
    }
    // With `workers: 1`, a wedged worker would hang these forever.
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    let follow_up = client::post(addr, "/compile", body.as_bytes()).expect("follow-up");
    assert_eq!(follow_up.status, 200, "{}", follow_up.body_utf8());
    server.shutdown();
}

#[test]
fn read_deadline_rearms_per_request_and_kills_a_trickling_second_request() {
    let (server, _compiler, addr) = start(ServeOptions {
        workers: 2,
        read_timeout: Duration::from_millis(300),
        ..ServeOptions::default()
    });
    let mut conn = client::Connection::open(addr).expect("connection");
    // Three requests spaced just under the deadline: a per-connection
    // timer would fire mid-sequence, a per-request timer never does.
    for _ in 0..3 {
        std::thread::sleep(Duration::from_millis(150));
        conn.send("GET", "/healthz", b"").expect("send");
        let response = conn.recv().expect("keep-alive response");
        assert_eq!(response.status, 200);
    }
    // Now trickle: a partial head that never completes. The re-armed
    // deadline fires and answers a typed 400 before closing.
    conn.send_raw(b"POST /compile HTT").expect("trickle");
    let response = conn.recv().expect("deadline verdict");
    assert_eq!(response.status, 400);
    assert!(
        response.body_utf8().contains("deadline"),
        "{}",
        response.body_utf8()
    );
    assert!(
        conn.recv().is_err(),
        "the connection is closed after the deadline verdict"
    );
    server.shutdown();
}

#[test]
fn saturation_503_does_not_cost_a_keep_alive_client_its_connection() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let (server, addr) = start_saturable(Duration::from_millis(800));
    // Two slow holds, staggered so the first is *popped into the
    // worker* before the second arrives to fill the queue slot (fired
    // back-to-back on one core, both can race the worker's pop and
    // bounce, leaving the queue empty).
    let sent = Arc::new(AtomicUsize::new(0));
    let holds: Vec<_> = (0..2)
        .map(|i| {
            let sent = Arc::clone(&sent);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(120 * i));
                sent.fetch_add(1, Ordering::SeqCst);
                client::get(addr, "/healthz")
            })
        })
        .collect();
    while sent.load(Ordering::SeqCst) < 2 {
        std::thread::yield_now();
    }
    // Let the second hold's bytes cross the loopback into the queue.
    std::thread::sleep(Duration::from_millis(200));

    let mut conn = client::Connection::open(addr).expect("keep-alive connection");
    conn.send("GET", "/healthz", b"")
        .expect("send into saturation");
    let rejected = conn.recv().expect("503 must still be answered");
    assert_eq!(rejected.status, 503);
    assert_eq!(
        rejected.headers.get("retry-after").map(String::as_str),
        Some("1"),
        "503 carries the retry hint"
    );
    // Once the holds drain, the same connection — not a fresh one —
    // gets served.
    for hold in holds {
        hold.join().expect("hold thread").expect("hold response");
    }
    conn.send("GET", "/healthz", b"")
        .expect("retry on same conn");
    let served = conn.recv().expect("retry response");
    assert_eq!(
        served.status, 200,
        "a 503 must not cost the client its connection"
    );
    server.shutdown();
}

#[test]
fn snapshot_export_serves_a_replica_as_its_cache_dir() {
    let snap_dir = std::env::temp_dir().join(format!("ff-itest-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snap_dir);

    let (origin, origin_compiler, origin_addr) = start(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    // Three distinct plan keys, all known-feasible: the default-machine
    // FFN, the same FFN on the A100, and a fused attention window.
    let ffn = chain_body(&small_chain());
    let a100 = format!(
        "{{\"chain\": {}, \"machine\": \"a100_sxm\"}}",
        encode_chain(&small_chain())
    );
    let attn = chain_body(&ChainSpec::attention(64, 64, 64, 64, true).named("attn-itest"));
    let workload = [ffn.as_str(), a100.as_str(), attn.as_str()];
    let mut origin_bodies = Vec::new();
    for body in &workload {
        let response = client::post(origin_addr, "/compile", body.as_bytes()).expect("compile");
        assert_eq!(response.status, 200, "{}", response.body_utf8());
        origin_bodies.push(response.body);
    }
    assert_eq!(origin_compiler.searches_run(), 3);

    // Export the warm cache over the API.
    let export_body = format!("{{\"dir\": \"{}\"}}", snap_dir.display());
    let exported = client::post(origin_addr, "/admin/snapshot", export_body.as_bytes())
        .expect("snapshot export");
    assert_eq!(exported.status, 200, "{}", exported.body_utf8());
    let doc = json::parse(exported.body_utf8()).expect("export response parses");
    let count = doc
        .get("exported")
        .and_then(json::JsonValue::as_u64)
        .expect("export response counts records");
    assert!(count >= 3, "all three plans exported, got {count}");
    origin.shutdown();

    // A fresh replica opens the snapshot as its cache dir and answers
    // the same workload byte-identically without running a single
    // search.
    let replica_compiler = Arc::new(
        Compiler::with_options(
            MachineDescriptor::h100_sxm(),
            CompilerOptions::new().with_cache_dir(&snap_dir),
        )
        .expect("replica opens the snapshot"),
    );
    let replica = service::start(
        Arc::clone(&replica_compiler),
        ("127.0.0.1", 0),
        ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        },
    )
    .expect("replica binds");
    let replica_addr = replica.addr();
    for (body, origin_body) in workload.iter().zip(&origin_bodies) {
        let response =
            client::post(replica_addr, "/compile", body.as_bytes()).expect("replica compile");
        assert_eq!(response.status, 200, "{}", response.body_utf8());
        assert_eq!(
            &response.body, origin_body,
            "replica must answer the origin's exact bytes"
        );
    }
    assert_eq!(
        replica_compiler.searches_run(),
        0,
        "a snapshot replica recompiles nothing"
    );
    assert!(
        stat(replica_addr, "cache", "disk_hits") >= 3,
        "every replay request is served from the snapshot directory"
    );
    assert!(
        stat(replica_addr, "cache", "hit_rate_permille") >= 900,
        "snapshot round-trip restores a >=90% hit rate"
    );
    replica.shutdown();
    let _ = std::fs::remove_dir_all(&snap_dir);
}

#[test]
fn cold_stats_document_is_pinned() {
    let (server, _compiler, addr) = start(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    let response = client::get(addr, "/stats").expect("stats");
    assert_eq!(response.status, 200);
    let raw = response.body_utf8().to_string();
    let doc = json::parse(&raw).expect("stats parse");
    // Only the queue-wait samples of this very request and the uptime
    // are nondeterministic; everything else is pinned byte-for-byte so
    // a format or accounting drift fails loudly.
    let qw = doc.get("queue_wait_us").expect("queue_wait_us");
    let qv = |field: &str| {
        qw.get(field)
            .and_then(json::JsonValue::as_u64)
            .unwrap_or_else(|| panic!("queue_wait_us.{field}"))
    };
    let uptime = doc
        .get("uptime_ms")
        .and_then(json::JsonValue::as_u64)
        .expect("uptime_ms");
    let expected = format!(
        concat!(
            "{{\n",
            "  \"endpoints\": {{\"compile\": 0, \"batch\": 0, \"graph\": 0, ",
            "\"machines\": 0, \"stats\": 1, \"healthz\": 0, \"snapshot\": 0, ",
            "\"shutdown\": 0}},\n",
            "  \"outcomes\": {{\"ok\": 0, \"bad_requests\": 0, \"infeasible\": 0, ",
            "\"dropped\": 0}},\n",
            "  \"admission\": {{\"accepted\": 1, \"rejected_busy\": 0, ",
            "\"in_flight\": 1, \"reused\": 0}},\n",
            "  \"compiler\": {{\"searches\": 0, \"coalesced\": 0, ",
            "\"profile_calls\": 0}},\n",
            "  \"cache\": {{\"mem_hits\": 0, \"disk_hits\": 0, \"misses\": 0, ",
            "\"inserts\": 0, \"evictions\": 0, \"hit_rate_permille\": 0}},\n",
            "  \"latency_us\": {{\"count\": 0, \"p50\": 0, \"p99\": 0, \"max\": 0, ",
            "\"mean\": 0}},\n",
            "  \"queue_wait_us\": {{\"count\": 1, \"p50\": {p50}, \"p99\": {p99}, ",
            "\"max\": {max}, \"mean\": {mean}}},\n",
            "  \"uptime_ms\": {uptime}\n",
            "}}\n",
        ),
        p50 = qv("p50"),
        p99 = qv("p99"),
        max = qv("max"),
        mean = qv("mean"),
        uptime = uptime,
    );
    assert_eq!(raw, expected, "cold /stats drifted from the pinned shape");
    server.shutdown();
}

#[test]
fn mixed_concurrent_load_is_answered_without_errors_or_rejections() {
    // Eight clients over distinct keys and every hot endpoint at once —
    // the same-key burst above only exercises one key. The queue (64)
    // is deeper than the client count, so nothing may bounce.
    let (server, _compiler, addr) = start(ServeOptions {
        workers: 4,
        ..ServeOptions::default()
    });
    let mix = [
        chain_body(&small_chain()),
        chain_body(&ChainSpec::standard_ffn(64, 64, 32, 32, Activation::Gelu)),
        chain_body(&ChainSpec::gated_ffn(64, 32, 16, 16, Activation::Silu)),
        "{\"conv\": {\"dims\": [16, 8, 8, 32, 16, 1, 1]}}".to_string(),
    ];
    let batch = format!("{{\"requests\": [{}, {}]}}", mix.join(", "), mix.join(", "));
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 12;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (mix, batch) = (&mix, &batch);
            scope.spawn(move || {
                for i in 0..PER_CLIENT {
                    let response = match (c + i) % 6 {
                        4 => client::post(addr, "/batch", batch.as_bytes()),
                        5 => client::get(addr, "/healthz"),
                        shape => client::post(addr, "/compile", mix[shape].as_bytes()),
                    }
                    .expect("every request gets an answer");
                    assert_eq!(response.status, 200, "{}", response.body_utf8());
                }
            });
        }
    });
    assert_eq!(
        stat(addr, "outcomes", "ok"),
        (CLIENTS * PER_CLIENT) as u64,
        "every request of the load was answered 2xx"
    );
    assert_eq!(stat(addr, "admission", "rejected_busy"), 0);
    for outcome in ["bad_requests", "infeasible", "dropped"] {
        assert_eq!(stat(addr, "outcomes", outcome), 0, "{outcome}");
    }
    server.shutdown();
}

#[test]
fn control_shutdown_drains_and_wait_returns() {
    let (server, _compiler, addr) = start(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    let response = client::post(addr, "/admin/shutdown", b"").expect("control signal");
    assert_eq!(response.status, 200);
    assert!(response.body_utf8().contains("shutting_down"));
    // wait() joins the reactor and every worker; returning at all is
    // the assertion.
    server.wait();
    assert!(
        client::get(addr, "/healthz").is_err(),
        "no service after drain"
    );
}
