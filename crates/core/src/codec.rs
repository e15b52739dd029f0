//! Persistence codec for compiled plans (the on-disk plan-cache format).
//!
//! A [`PlanRecord`] is what the plan cache stores per key: the winning
//! [`FusedPlan`] plus its measured outcome and search accounting. The
//! codec renders it as hand-rolled JSON (see [`crate::json`] for why —
//! zero external crates) with one hard requirement: **round trips are
//! bit-identical**. Every integer is written exactly; every float is
//! written as its IEEE-754 bit pattern (a human-readable mirror value
//! is included for debugging but never read back).
//!
//! Format versioning: [`FORMAT_VERSION`] is embedded in every document
//! and checked on decode; a mismatch is treated as a cache miss by
//! callers, never as an error surfaced to users.

use crate::comm::ClusterShape;
use crate::json::{self, JsonValue};
use crate::machine::{ComputeParams, MachineDescriptor, MachineError, MemLevel, MemTier};
use crate::mapping::{ResourceMapping, TensorMapping, TensorRole};
use crate::plan::{FusedPlan, PlanGeometry};
use crate::schedule::LoopSchedule;
use crate::tiling::{BlockTile, MMA_GRANULE};
use flashfuser_graph::{ChainSpec, Dim};
use flashfuser_tensor::Activation;
use std::fmt;

/// Version of the on-disk record layout. Bump on any incompatible
/// change; decoders reject other versions.
pub const FORMAT_VERSION: u64 = 1;

/// One cached compilation: the plan, its measured outcome and the
/// search accounting a warm hit must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRecord {
    /// The winning fused plan.
    pub plan: FusedPlan,
    /// Measured kernel seconds of the winner.
    pub seconds: f64,
    /// Measured global-memory bytes.
    pub global_bytes: u64,
    /// Measured DSM bytes.
    pub dsm_bytes: u64,
    /// Candidates that passed Rules 1–4 and the tile/cluster geometry —
    /// the population the bound and Rule 5 then work on; identical for
    /// every thread count (`SearchStats::eligible`).
    pub feasible: u64,
}

/// Why a persisted record could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The document is not valid JSON (of the cache subset).
    Json(String),
    /// The document parsed but a field is missing or has the wrong
    /// shape/value.
    Malformed(String),
    /// The document is a different format version.
    Version(u64),
    /// A machine document parsed but the descriptor violates a
    /// machine-model invariant (empty tier list, zero bandwidth, ...).
    Machine(MachineError),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Json(e) => write!(f, "plan record is not valid JSON: {e}"),
            CodecError::Malformed(what) => write!(f, "malformed plan record: {what}"),
            CodecError::Version(v) => {
                write!(f, "plan record format version {v} != {FORMAT_VERSION}")
            }
            CodecError::Machine(e) => write!(f, "invalid machine descriptor: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

fn malformed(what: &str) -> CodecError {
    CodecError::Malformed(what.to_string())
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn dims4(m: usize, n: usize, k: usize, l: usize) -> String {
    format!("[{m}, {n}, {k}, {l}]")
}

/// Renders a chain as its canonical JSON object — the same form that
/// appears inside [`encode_record`] and that the compilation server
/// accepts in request bodies. Attention chains carry an extra
/// `"scaled"` boolean (absent means unscaled on decode).
pub fn encode_chain(chain: &ChainSpec) -> String {
    let d = chain.dims();
    let family = if chain.kind().is_attention() {
        "attention"
    } else if chain.kind().is_gated() {
        "gated"
    } else {
        "standard"
    };
    let scaled = if chain.kind().is_attention() {
        format!("\"scaled\": {}, ", chain.softmax_scale_k() != 0)
    } else {
        String::new()
    };
    format!(
        "{{\"family\": \"{family}\", {scaled}\"activation\": \"{activation}\", \
         \"name\": \"{name}\", \"dims\": {dims}}}",
        activation = chain.kind().activation(),
        name = json::escape(chain.name()),
        dims = dims4(d.m, d.n, d.k, d.l),
    )
}

/// Renders a record as a JSON document (stable layout, trailing
/// newline). Its `"feasible"` member is [`PlanRecord::feasible`]: the
/// candidates that passed Rules 1–4 and the tile/cluster geometry — the
/// population the bound and Rule 5 then work on; identical for every
/// thread count.
pub fn encode_record(r: &PlanRecord) -> String {
    let plan = &r.plan;
    let chain = &plan.chain;
    let mut mapping_items = Vec::new();
    for (role, m) in plan.mapping.iter() {
        let allocs: Vec<String> = m
            .allocations()
            .iter()
            .map(|(level, bytes)| format!("[\"{level}\", {bytes}]"))
            .collect();
        mapping_items.push(format!(
            "      {{\"role\": \"{role}\", \"alloc\": [{}]}}",
            allocs.join(", ")
        ));
    }
    let mapping_body = if mapping_items.is_empty() {
        String::new()
    } else {
        format!("\n{}\n    ", mapping_items.join(",\n"))
    };
    format!(
        concat!(
            "{{\n",
            "  \"version\": {version},\n",
            "  \"plan\": {{\n",
            "    \"chain\": {chain},\n",
            "    \"schedule\": \"{schedule}\",\n",
            "    \"cluster\": {cluster},\n",
            "    \"tile\": {tile},\n",
            "    \"mapping\": [{mapping}]\n",
            "  }},\n",
            "  \"outcome\": {{\"seconds_bits\": {seconds_bits}, \"seconds_approx\": ",
            "\"{seconds_approx:e}\", \"global_bytes\": {global_bytes}, ",
            "\"dsm_bytes\": {dsm_bytes}}},\n",
            "  \"feasible\": {feasible}\n",
            "}}\n",
        ),
        version = FORMAT_VERSION,
        chain = encode_chain(chain),
        schedule = plan.schedule,
        cluster = dims4(
            plan.cluster.m(),
            plan.cluster.n(),
            plan.cluster.k(),
            plan.cluster.l()
        ),
        tile = dims4(plan.tile.m, plan.tile.n, plan.tile.k, plan.tile.l),
        mapping = mapping_body,
        seconds_bits = r.seconds.to_bits(),
        seconds_approx = r.seconds,
        global_bytes = r.global_bytes,
        dsm_bytes = r.dsm_bytes,
        feasible = r.feasible,
    )
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, CodecError> {
    v.get(key)
        .ok_or_else(|| malformed(&format!("missing field '{key}'")))
}

fn field_u64(v: &JsonValue, key: &str) -> Result<u64, CodecError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| malformed(&format!("field '{key}' is not an unsigned integer")))
}

fn field_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, CodecError> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| malformed(&format!("field '{key}' is not a string")))
}

fn usize4(v: &JsonValue, key: &str) -> Result<[usize; 4], CodecError> {
    let arr = field(v, key)?
        .as_array()
        .ok_or_else(|| malformed(&format!("field '{key}' is not an array")))?;
    if arr.len() != 4 {
        return Err(malformed(&format!("field '{key}' must have 4 entries")));
    }
    let mut out = [0usize; 4];
    for (i, item) in arr.iter().enumerate() {
        let raw = item
            .as_u64()
            .ok_or_else(|| malformed(&format!("field '{key}[{i}]' is not an integer")))?;
        out[i] = usize::try_from(raw)
            .map_err(|_| malformed(&format!("field '{key}[{i}]' overflows")))?;
    }
    Ok(out)
}

fn parse_activation(name: &str) -> Result<Activation, CodecError> {
    match name {
        "identity" => Ok(Activation::Identity),
        "relu" => Ok(Activation::Relu),
        "silu" => Ok(Activation::Silu),
        "gelu" => Ok(Activation::Gelu),
        other => Err(malformed(&format!("unknown activation '{other}'"))),
    }
}

fn parse_mem_level(name: &str) -> Result<MemLevel, CodecError> {
    match name {
        "reg" => Ok(MemLevel::Reg),
        "smem" => Ok(MemLevel::Smem),
        "dsm" => Ok(MemLevel::Dsm),
        "l2" => Ok(MemLevel::L2),
        "global" => Ok(MemLevel::Global),
        other => Err(malformed(&format!("unknown memory level '{other}'"))),
    }
}

fn parse_role(name: &str) -> Result<TensorRole, CodecError> {
    match name {
        "A" => Ok(TensorRole::A),
        "B" => Ok(TensorRole::B),
        "B_gate" => Ok(TensorRole::BGate),
        "D" => Ok(TensorRole::D),
        "C_strip" => Ok(TensorRole::CStrip),
        "E_strip" => Ok(TensorRole::EStrip),
        "E" => Ok(TensorRole::E),
        other => Err(malformed(&format!("unknown tensor role '{other}'"))),
    }
}

/// Parses a schedule from its canonical name (`"MN|lk"`).
fn parse_schedule(name: &str) -> Result<LoopSchedule, CodecError> {
    let (spatial_part, temporal_part) = name
        .split_once('|')
        .ok_or_else(|| malformed(&format!("schedule '{name}' has no '|'")))?;
    let to_dims = |part: &str| -> Result<Vec<Dim>, CodecError> {
        part.chars()
            .map(|c| {
                Dim::from_letter(c)
                    .ok_or_else(|| malformed(&format!("schedule letter '{c}' is not in mnkl")))
            })
            .collect()
    };
    let spatial = to_dims(spatial_part)?;
    let temporal = to_dims(temporal_part)?;
    // LoopSchedule::new panics on invalid partitions; validate first so
    // corrupt cache files surface as errors, not aborts.
    let mut seen = [false; 4];
    for d in spatial.iter().chain(temporal.iter()) {
        if seen[d.index()] {
            return Err(malformed(&format!("schedule '{name}' repeats a dim")));
        }
        seen[d.index()] = true;
    }
    if spatial.is_empty() || !seen.iter().all(|&b| b) {
        return Err(malformed(&format!(
            "schedule '{name}' is not a partition of mnkl"
        )));
    }
    Ok(LoopSchedule::new(spatial, temporal))
}

/// Parses a chain from its canonical JSON object (the `"chain"` member
/// of a record document, or a server request body's chain spec).
///
/// # Errors
///
/// Returns [`CodecError::Malformed`] when a field is missing, has the
/// wrong type, names an unknown family/activation, or carries
/// non-positive dims.
pub fn decode_chain(chain_v: &JsonValue) -> Result<ChainSpec, CodecError> {
    let activation = parse_activation(field_str(chain_v, "activation")?)?;
    let [m, n, k, l] = usize4(chain_v, "dims")?;
    if m == 0 || n == 0 || k == 0 || l == 0 {
        return Err(malformed("chain dims must be positive"));
    }
    let chain = match field_str(chain_v, "family")? {
        "standard" => ChainSpec::standard_ffn(m, n, k, l, activation),
        "gated" => ChainSpec::gated_ffn(m, n, k, l, activation),
        "attention" => {
            let scaled = match chain_v.get("scaled") {
                None => false,
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| malformed("field 'scaled' is not a boolean"))?,
            };
            ChainSpec::attention(m, n, k, l, scaled)
        }
        other => return Err(malformed(&format!("unknown chain family '{other}'"))),
    };
    Ok(match chain_v.get("name").and_then(JsonValue::as_str) {
        Some(name) => chain.named(name),
        None => chain,
    })
}

/// Parses a record from its JSON document.
///
/// # Errors
///
/// Returns [`CodecError`] on malformed JSON, an unknown format version,
/// or any field that fails validation (a corrupt cluster shape, a tile
/// that is not MMA-aligned, a geometry that no longer derives).
pub fn decode_record(text: &str) -> Result<PlanRecord, CodecError> {
    let doc = json::parse(text).map_err(|e| CodecError::Json(e.to_string()))?;
    let version = field_u64(&doc, "version")?;
    if version != FORMAT_VERSION {
        return Err(CodecError::Version(version));
    }
    let plan_v = field(&doc, "plan")?;

    // Chain. Record documents always carry a name; `decode_chain`
    // tolerates its absence for server request bodies.
    let chain_v = field(plan_v, "chain")?;
    field_str(chain_v, "name")?;
    let chain = decode_chain(chain_v)?;

    // Schedule, cluster, tile.
    let schedule = parse_schedule(field_str(plan_v, "schedule")?)?;
    let [cm, cn, ck, cl] = usize4(plan_v, "cluster")?;
    let cluster = ClusterShape::new(cm, cn, ck, cl)
        .map_err(|e| malformed(&format!("illegal cluster shape: {e}")))?;
    let [tm, tn, tk, tl] = usize4(plan_v, "tile")?;
    for v in [tm, tn, tk, tl] {
        if v == 0 || v % MMA_GRANULE != 0 {
            return Err(malformed(&format!(
                "tile extent {v} is not a positive multiple of {MMA_GRANULE}"
            )));
        }
    }
    let tile = BlockTile::new(tm, tn, tk, tl);

    // Geometry is a pure function of the above; re-derive instead of
    // trusting the file (integrity check for hand-edited records).
    let geometry = PlanGeometry::derive(chain.dims(), &schedule, cluster, tile)
        .map_err(|e| malformed(&format!("geometry does not derive: {e}")))?;

    // Mapping.
    let mut mapping = ResourceMapping::new();
    let items = field(plan_v, "mapping")?
        .as_array()
        .ok_or_else(|| malformed("field 'mapping' is not an array"))?;
    for item in items {
        let role = parse_role(field_str(item, "role")?)?;
        let allocs_v = field(item, "alloc")?
            .as_array()
            .ok_or_else(|| malformed("field 'alloc' is not an array"))?;
        let mut allocations = Vec::with_capacity(allocs_v.len());
        for pair in allocs_v {
            let pair = pair
                .as_array()
                .ok_or_else(|| malformed("alloc entry is not a pair"))?;
            if pair.len() != 2 {
                return Err(malformed("alloc entry is not a [level, bytes] pair"));
            }
            let level = parse_mem_level(
                pair[0]
                    .as_str()
                    .ok_or_else(|| malformed("alloc level is not a string"))?,
            )?;
            let bytes = pair[1]
                .as_u64()
                .ok_or_else(|| malformed("alloc bytes is not an integer"))?;
            allocations.push((level, bytes));
        }
        mapping.insert(role, TensorMapping::from_allocations(allocations));
    }

    // Outcome.
    let outcome_v = field(&doc, "outcome")?;
    let seconds = f64::from_bits(field_u64(outcome_v, "seconds_bits")?);
    Ok(PlanRecord {
        plan: FusedPlan {
            chain,
            schedule,
            cluster,
            tile,
            geometry,
            mapping,
        },
        seconds,
        global_bytes: field_u64(outcome_v, "global_bytes")?,
        dsm_bytes: field_u64(outcome_v, "dsm_bytes")?,
        feasible: field_u64(&doc, "feasible")?,
    })
}

// ---------------------------------------------------------------------
// Machine descriptors
// ---------------------------------------------------------------------

/// Renders a machine descriptor as a versioned JSON document (stable
/// layout, trailing newline) — the format of `machines/*.json` files
/// and of inline `"machine"` objects in server request bodies.
///
/// Floats are written by [`json::format_f64`] (shortest round-trip
/// decimal), so `decode_machine(encode_machine(d))` reproduces every
/// bandwidth and latency bit-identically.
pub fn encode_machine(d: &MachineDescriptor) -> String {
    let c = d.compute();
    let mut tiers = Vec::with_capacity(d.tiers().len());
    for t in d.tiers() {
        tiers.push(format!(
            "    {{\"name\": \"{name}\", \"scope\": \"{scope}\", \
             \"capacity_bytes\": {capacity}, \"bandwidth\": {bandwidth}, \
             \"latency_cycles\": {latency}, \"bandwidth_derate\": {derate}, \
             \"latency_slope_cycles\": {slope}, \"peak_bandwidth\": {peak}}}",
            name = json::escape(&t.name),
            scope = t.scope.scope_name(),
            capacity = t.capacity_bytes,
            bandwidth = json::format_f64(t.bandwidth),
            latency = json::format_f64(t.latency_cycles),
            derate = json::format_f64(t.bandwidth_derate),
            slope = json::format_f64(t.latency_slope_cycles),
            peak = json::format_f64(t.peak_bandwidth),
        ));
    }
    format!(
        concat!(
            "{{\n",
            "  \"version\": {version},\n",
            "  \"kind\": \"machine\",\n",
            "  \"name\": \"{name}\",\n",
            "  \"compute\": {{\"num_sms\": {num_sms}, \"clock_hz\": {clock_hz}, ",
            "\"peak_flops\": {peak_flops}, \"max_cluster\": {max_cluster}, ",
            "\"barrier_cycles\": {barrier_cycles}, \"kernel_launch_s\": {kernel_launch_s}}},\n",
            "  \"tiers\": [\n{tiers}\n  ]\n",
            "}}\n",
        ),
        version = FORMAT_VERSION,
        name = json::escape(&d.name),
        num_sms = c.num_sms,
        clock_hz = json::format_f64(c.clock_hz),
        peak_flops = json::format_f64(c.peak_flops),
        max_cluster = c.max_cluster,
        barrier_cycles = json::format_f64(c.barrier_cycles),
        kernel_launch_s = json::format_f64(c.kernel_launch_s),
        tiers = tiers.join(",\n"),
    )
}

fn field_f64(v: &JsonValue, key: &str) -> Result<f64, CodecError> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| malformed(&format!("field '{key}' is not a number")))
}

fn opt_f64(v: &JsonValue, key: &str, default: f64) -> Result<f64, CodecError> {
    match v.get(key) {
        None => Ok(default),
        Some(raw) => raw
            .as_f64()
            .ok_or_else(|| malformed(&format!("field '{key}' is not a number"))),
    }
}

fn field_usize(v: &JsonValue, key: &str) -> Result<usize, CodecError> {
    usize::try_from(field_u64(v, key)?)
        .map_err(|_| malformed(&format!("field '{key}' overflows usize")))
}

/// Rejects members outside the allow-list — machine documents are
/// closed-world so typos ("bandwith") surface as errors, not silently
/// ignored knobs.
fn reject_unknown_fields(v: &JsonValue, what: &str, allowed: &[&str]) -> Result<(), CodecError> {
    let obj = v
        .as_object()
        .ok_or_else(|| malformed(&format!("{what} is not an object")))?;
    for key in obj.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(malformed(&format!("unknown field '{key}' in {what}")));
        }
    }
    Ok(())
}

/// Parses a machine descriptor from an already-parsed JSON value — the
/// entry point for inline `"machine"` objects in server request bodies
/// (which arrive through `core::json`'s untrusted limits).
///
/// # Errors
///
/// Returns [`CodecError::Version`] on a version mismatch,
/// [`CodecError::Malformed`] on missing/mistyped/unknown fields, and
/// [`CodecError::Machine`] when the fields parse but violate a
/// machine-model invariant ([`MachineDescriptor::validate`]).
pub fn decode_machine_value(doc: &JsonValue) -> Result<MachineDescriptor, CodecError> {
    reject_unknown_fields(
        doc,
        "machine document",
        &["version", "kind", "name", "compute", "tiers"],
    )?;
    let version = field_u64(doc, "version")?;
    if version != FORMAT_VERSION {
        return Err(CodecError::Version(version));
    }
    if let Some(kind) = doc.get("kind") {
        if kind.as_str() != Some("machine") {
            return Err(malformed("field 'kind' must be \"machine\""));
        }
    }
    let name = field_str(doc, "name")?.to_string();

    let compute_v = field(doc, "compute")?;
    reject_unknown_fields(
        compute_v,
        "'compute'",
        &[
            "num_sms",
            "clock_hz",
            "peak_flops",
            "max_cluster",
            "barrier_cycles",
            "kernel_launch_s",
        ],
    )?;
    let compute = ComputeParams {
        num_sms: field_usize(compute_v, "num_sms")?,
        clock_hz: field_f64(compute_v, "clock_hz")?,
        peak_flops: field_f64(compute_v, "peak_flops")?,
        max_cluster: field_usize(compute_v, "max_cluster")?,
        barrier_cycles: field_f64(compute_v, "barrier_cycles")?,
        kernel_launch_s: field_f64(compute_v, "kernel_launch_s")?,
    };

    let tiers_v = field(doc, "tiers")?
        .as_array()
        .ok_or_else(|| malformed("field 'tiers' is not an array"))?;
    let mut tiers = Vec::with_capacity(tiers_v.len());
    for (i, tier_v) in tiers_v.iter().enumerate() {
        reject_unknown_fields(
            tier_v,
            &format!("tiers[{i}]"),
            &[
                "name",
                "scope",
                "capacity_bytes",
                "bandwidth",
                "latency_cycles",
                "bandwidth_derate",
                "latency_slope_cycles",
                "peak_bandwidth",
            ],
        )?;
        let scope_name = field_str(tier_v, "scope")?;
        let scope = MemLevel::from_scope_name(scope_name)
            .ok_or_else(|| malformed(&format!("unknown tier scope '{scope_name}'")))?;
        let name = match tier_v.get("name") {
            None => scope.scope_name().to_string(),
            Some(raw) => raw
                .as_str()
                .ok_or_else(|| malformed(&format!("field 'name' in tiers[{i}] is not a string")))?
                .to_string(),
        };
        tiers.push(MemTier {
            name,
            scope,
            capacity_bytes: field_u64(tier_v, "capacity_bytes")?,
            bandwidth: field_f64(tier_v, "bandwidth")?,
            latency_cycles: field_f64(tier_v, "latency_cycles")?,
            bandwidth_derate: opt_f64(tier_v, "bandwidth_derate", 1.0)?,
            latency_slope_cycles: opt_f64(tier_v, "latency_slope_cycles", 0.0)?,
            peak_bandwidth: opt_f64(tier_v, "peak_bandwidth", 0.0)?,
        });
    }

    MachineDescriptor::new(name, compute, tiers).map_err(CodecError::Machine)
}

/// Parses a machine descriptor from its JSON document (a
/// `machines/*.json` file or the output of [`encode_machine`]).
///
/// # Errors
///
/// Returns [`CodecError::Json`] on malformed JSON, plus everything
/// [`decode_machine_value`] returns.
pub fn decode_machine(text: &str) -> Result<MachineDescriptor, CodecError> {
    let doc = json::parse(text).map_err(|e| CodecError::Json(e.to_string()))?;
    decode_machine_value(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::FakeProfiler;
    use crate::search::{SearchConfig, SearchEngine};

    fn searched_record() -> PlanRecord {
        let chain = ChainSpec::standard_ffn(128, 512, 256, 256, Activation::Relu).named("G-test");
        let engine = SearchEngine::new(MachineDescriptor::h100_sxm());
        let mut profiler = FakeProfiler::default();
        let result = engine
            .search_with_profiler(&chain, &SearchConfig::default(), &mut profiler)
            .unwrap();
        let best = result.best();
        let measured = best.measured.unwrap();
        PlanRecord {
            plan: best.analysis.plan().clone(),
            seconds: measured.seconds,
            global_bytes: measured.global_bytes,
            dsm_bytes: measured.dsm_bytes,
            feasible: result.stats().eligible,
        }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let original = searched_record();
        let text = encode_record(&original);
        let decoded = decode_record(&text).unwrap();
        // PartialEq on FusedPlan covers every field (incl. f64-free
        // structures exactly); seconds compared by bit pattern.
        assert_eq!(decoded.plan, original.plan);
        assert_eq!(decoded.seconds.to_bits(), original.seconds.to_bits());
        assert_eq!(decoded.global_bytes, original.global_bytes);
        assert_eq!(decoded.dsm_bytes, original.dsm_bytes);
        assert_eq!(decoded.feasible, original.feasible);
        // And encoding the decoded record reproduces the document.
        assert_eq!(encode_record(&decoded), text);
    }

    #[test]
    fn gated_round_trip() {
        let chain = ChainSpec::gated_ffn(128, 512, 256, 256, Activation::Silu).named("S-test");
        let engine = SearchEngine::new(MachineDescriptor::h100_sxm());
        let result = engine.search(&chain, &SearchConfig::default()).unwrap();
        let record = PlanRecord {
            plan: result.best().analysis.plan().clone(),
            seconds: 1.25e-5,
            global_bytes: 42,
            dsm_bytes: 7,
            feasible: result.stats().eligible,
        };
        let decoded = decode_record(&encode_record(&record)).unwrap();
        assert_eq!(decoded, record);
        assert!(decoded.plan.chain.kind().is_gated());
    }

    #[test]
    fn attention_round_trip() {
        for chain in [
            ChainSpec::attention(64, 64, 64, 64, true).named("attn"),
            ChainSpec::attention(32, 128, 64, 64, false),
        ] {
            let doc = encode_chain(&chain);
            let v = crate::json::parse(&doc).unwrap();
            assert_eq!(decode_chain(&v).unwrap(), chain);
        }
        // A record built from a searched attention plan survives too —
        // and its existence proves the search finds a feasible C-strip
        // schedule for attention.
        let chain = ChainSpec::attention(64, 64, 64, 64, true).named("attn-rec");
        let engine = SearchEngine::new(MachineDescriptor::h100_sxm());
        let result = engine.search(&chain, &SearchConfig::default()).unwrap();
        let record = PlanRecord {
            plan: result.best().analysis.plan().clone(),
            seconds: 2.5e-5,
            global_bytes: 100,
            dsm_bytes: 10,
            feasible: result.stats().eligible,
        };
        let text = encode_record(&record);
        let decoded = decode_record(&text).unwrap();
        assert_eq!(decoded, record);
        assert!(decoded.plan.chain.kind().is_attention());
        assert_eq!(encode_record(&decoded), text);
    }

    #[test]
    fn version_mismatch_is_detected() {
        let mut text = encode_record(&searched_record());
        text = text.replace("\"version\": 1", "\"version\": 999");
        assert_eq!(decode_record(&text), Err(CodecError::Version(999)));
    }

    #[test]
    fn corrupt_documents_error_not_panic() {
        let good = encode_record(&searched_record());
        assert!(matches!(
            decode_record("not json"),
            Err(CodecError::Json(_))
        ));
        assert!(matches!(decode_record("{}"), Err(CodecError::Malformed(_))));
        // A fifth tile entry makes the [m,n,k,l] quad malformed.
        let bad_tile = good.replace("\"tile\": [", "\"tile\": [7, ");
        assert!(decode_record(&bad_tile).is_err());
        // Unknown schedule letter.
        let bad_sched = good.replace("\"schedule\": \"", "\"schedule\": \"X");
        assert!(decode_record(&bad_sched).is_err());
    }

    #[test]
    fn chain_object_round_trips_standalone() {
        for chain in [
            ChainSpec::standard_ffn(128, 512, 256, 256, Activation::Relu).named("a\"b"),
            ChainSpec::gated_ffn(64, 256, 128, 128, Activation::Silu),
        ] {
            let doc = encode_chain(&chain);
            let v = crate::json::parse(&doc).unwrap();
            assert_eq!(decode_chain(&v).unwrap(), chain);
        }
        // Name is optional in the standalone form (server requests)...
        let v = crate::json::parse(
            r#"{"family": "standard", "activation": "gelu", "dims": [16, 32, 16, 16]}"#,
        )
        .unwrap();
        assert_eq!(
            decode_chain(&v).unwrap(),
            ChainSpec::standard_ffn(16, 32, 16, 16, Activation::Gelu)
        );
        // ...but zero dims and unknown families stay hard errors.
        for bad in [
            r#"{"family": "standard", "activation": "gelu", "dims": [0, 32, 16, 16]}"#,
            r#"{"family": "mystery", "activation": "gelu", "dims": [16, 32, 16, 16]}"#,
            r#"{"family": "standard", "activation": "sigmoid", "dims": [16, 32, 16, 16]}"#,
            r#"{"family": "standard", "activation": "gelu", "dims": [16, 32, 16]}"#,
        ] {
            let v = crate::json::parse(bad).unwrap();
            assert!(matches!(decode_chain(&v), Err(CodecError::Malformed(_))));
        }
    }

    #[test]
    fn schedule_name_round_trips() {
        for s in LoopSchedule::enumerate_all() {
            let parsed = parse_schedule(&s.to_string()).unwrap();
            assert_eq!(parsed, s);
        }
        assert!(parse_schedule("MN").is_err());
        assert!(parse_schedule("M|nk").is_err()); // missing l
        assert!(parse_schedule("M|mnk").is_err()); // repeated m, missing l
    }

    #[test]
    fn extreme_float_bits_survive() {
        let mut r = searched_record();
        for v in [f64::MIN_POSITIVE, 1e-300, 0.0, f64::MAX] {
            r.seconds = v;
            let back = decode_record(&encode_record(&r)).unwrap();
            assert_eq!(back.seconds.to_bits(), v.to_bits());
        }
    }
}
