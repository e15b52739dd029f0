//! The machine model: an ordered list of memory tiers plus compute
//! parameters, shared by the analyzer, the cost model and the simulator.
//!
//! Since PR 7 the machine is *data*, not code: a [`MachineDescriptor`]
//! holds one [`MemTier`] per architectural scope (register file → SMEM →
//! DSM → L2 → HBM on Hopper), each with its own capacity, bandwidth and
//! latency, and every layer of the stack — pruning Rule 5, the dataflow
//! analyzer, the minimax cost model and the timing model in
//! `flashfuser-sim` — reasons about the *same* hardware by iterating the
//! tier list through [`MemLevel`]-keyed accessors. Descriptors load from
//! JSON (`core::codec::decode_machine`), so a non-NVIDIA SRAM-rich
//! target is a config file, not a fork (see `machines/` in the repo
//! root).
//!
//! The H100 SXM defaults are calibrated to the paper's own measurements
//! (Fig. 4) and to published Hopper microbenchmarking work [Luo et al.,
//! IPDPS'24; Jin et al., MICRO'24].
//!
//! # Validation
//!
//! A descriptor is validated at construction ([`MachineDescriptor::new`])
//! and after every mutation ([`MachineDescriptor::with_tier`],
//! [`MachineDescriptor::with_compute`]): exactly one tier per scope, in
//! canonical fastest-to-slowest order, finite non-negative numbers,
//! non-zero bandwidth everywhere except the optional inter-core fabric.
//! Corrupt or inconsistent descriptors are typed [`MachineError`]s,
//! never panics.

use std::fmt;

/// One tier of the modelled memory hierarchy, named for Hopper: `Reg`
/// is the paper's L0, `Smem` the L1, `Dsm` the "L1.5" created by the
/// SM-to-SM interconnect, and `L2`/`Global` the off-core tiers.
///
/// A level is also the architectural *scope* a [`MemTier`] serves — what
/// the tier means to the placement and pricing machinery, independent of
/// what a vendor calls it. A descriptor carries exactly one tier per
/// level, in this fastest-to-slowest order; tier *names* ("smem",
/// "Tensix SRAM") are labels for humans, and descriptors on the wire
/// spell the level by its vendor-neutral [`MemLevel::scope_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemLevel {
    /// Per-thread register file (L0); holds accumulator tiles.
    Reg,
    /// Per-core scratchpad (L1): SMEM on NVIDIA, SRAM on Tensix.
    Smem,
    /// Peer-core scratchpad reachable over the inter-core fabric (L1.5):
    /// DSM over the cluster NoC on Hopper, the NoC on Tensix. The only
    /// level whose bandwidth may be zero — meaning the machine has no
    /// such fabric (pre-Hopper GPUs).
    Dsm,
    /// Device-wide L2 cache. A transparent cache, not a placement
    /// target — see [`MemLevel::SPILL_ORDER`].
    L2,
    /// Off-chip memory (HBM/DRAM).
    Global,
}

impl MemLevel {
    /// All tiers from fastest to slowest — the canonical descriptor
    /// order.
    pub const ALL: [MemLevel; 5] = [
        MemLevel::Reg,
        MemLevel::Smem,
        MemLevel::Dsm,
        MemLevel::L2,
        MemLevel::Global,
    ];

    /// The spill order of Algorithm 1: tiers an intermediate may be
    /// *placed* in, fastest first. (L2 is a transparent cache, not a
    /// placement target.)
    pub const SPILL_ORDER: [MemLevel; 4] = [
        MemLevel::Reg,
        MemLevel::Smem,
        MemLevel::Dsm,
        MemLevel::Global,
    ];

    /// Index into per-level arrays.
    pub fn index(self) -> usize {
        match self {
            MemLevel::Reg => 0,
            MemLevel::Smem => 1,
            MemLevel::Dsm => 2,
            MemLevel::L2 => 3,
            MemLevel::Global => 4,
        }
    }

    /// The vendor-neutral scope name machine descriptors and
    /// [`MachineError`] messages use (`"register"`, `"block"`,
    /// `"cluster"`, `"device"`, `"offchip"`).
    pub fn scope_name(self) -> &'static str {
        match self {
            MemLevel::Reg => "register",
            MemLevel::Smem => "block",
            MemLevel::Dsm => "cluster",
            MemLevel::L2 => "device",
            MemLevel::Global => "offchip",
        }
    }

    /// Parses a [`MemLevel::scope_name`].
    pub fn from_scope_name(s: &str) -> Option<MemLevel> {
        MemLevel::ALL.into_iter().find(|l| l.scope_name() == s)
    }
}

impl fmt::Display for MemLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemLevel::Reg => "reg",
            MemLevel::Smem => "smem",
            MemLevel::Dsm => "dsm",
            MemLevel::L2 => "l2",
            MemLevel::Global => "global",
        };
        f.write_str(s)
    }
}

/// One memory tier of a [`MachineDescriptor`].
#[derive(Debug, Clone, PartialEq)]
pub struct MemTier {
    /// Human-readable label ("smem", "Tensix SRAM"). Labels are *not*
    /// part of [`MachineDescriptor::fingerprint`] — renaming a tier does
    /// not invalidate cached plans.
    pub name: String,
    /// What the tier means to placement and pricing.
    pub scope: MemLevel,
    /// Capacity in bytes. For [`MemLevel::Dsm`] this is the window
    /// *one peer core* contributes to the pool (227 KB on H100 — a peer's
    /// SMEM); the pool a block can place into is
    /// `(cluster_size - 1) x capacity` minus the peers' own working sets.
    pub capacity_bytes: u64,
    /// Aggregate bandwidth in bytes/s. For [`MemLevel::Dsm`] this is
    /// the fabric bandwidth at cluster size 2 (larger clusters derate by
    /// [`MemTier::bandwidth_derate`]); `0.0` on that tier means the
    /// machine has no inter-core fabric and the tier prices as off-chip.
    pub bandwidth: f64,
    /// Access latency in core cycles.
    pub latency_cycles: f64,
    /// Multiplicative bandwidth derate per doubling of cluster size
    /// beyond 2 (`0.82` reproduces the paper's Fig. 4 ≈3.3 → ≈1.7 TB/s
    /// drop from cluster 2 to 16). `1.0` = flat. Only meaningful on
    /// [`MemLevel::Dsm`].
    pub bandwidth_derate: f64,
    /// Additional latency per doubling of cluster size, cycles. Only
    /// meaningful on [`MemLevel::Dsm`].
    pub latency_slope_cycles: f64,
    /// Peak (datasheet) bandwidth for rooflines, bytes/s; `0.0` means
    /// "same as `bandwidth`". Only meaningful on [`MemLevel::Global`].
    pub peak_bandwidth: f64,
}

impl MemTier {
    /// A tier with the given headline numbers and neutral secondary
    /// parameters (flat derate, no latency slope, peak = achievable).
    pub fn new(
        name: impl Into<String>,
        scope: MemLevel,
        capacity_bytes: u64,
        bandwidth: f64,
        latency_cycles: f64,
    ) -> MemTier {
        MemTier {
            name: name.into(),
            scope,
            capacity_bytes,
            bandwidth,
            latency_cycles,
            bandwidth_derate: 1.0,
            latency_slope_cycles: 0.0,
            peak_bandwidth: 0.0,
        }
    }

    /// The roofline bandwidth: the datasheet peak when recorded, the
    /// achievable bandwidth otherwise.
    pub fn peak(&self) -> f64 {
        if self.peak_bandwidth > 0.0 {
            self.peak_bandwidth
        } else {
            self.bandwidth
        }
    }
}

/// Compute-side parameters of a [`MachineDescriptor`].
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeParams {
    /// Number of cores (streaming multiprocessors / Tensix cores).
    pub num_sms: usize,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Peak dense FP16 throughput, FLOP/s (whole device).
    pub peak_flops: f64,
    /// Maximum blocks per cluster the fabric supports (`1` = no
    /// inter-core fusion).
    pub max_cluster: usize,
    /// Cost of one group-scoped barrier phase, cycles.
    pub barrier_cycles: f64,
    /// Fixed kernel-launch overhead, seconds (per kernel; unfused
    /// baselines pay this once per operator).
    pub kernel_launch_s: f64,
}

/// Why a machine descriptor is invalid. Construction and decoding never
/// panic: every inconsistency maps to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// The tier list is empty.
    EmptyTiers,
    /// A required scope has no tier.
    MissingTier(MemLevel),
    /// A scope appears more than once.
    DuplicateTier(MemLevel),
    /// Tiers are not in the canonical fastest-to-slowest scope order.
    TierOutOfOrder {
        /// Position of the offending tier in the list.
        index: usize,
        /// Its scope.
        scope: MemLevel,
    },
    /// A tier that must move data has zero bandwidth (every scope except
    /// [`MemLevel::Dsm`], where zero means "no fabric").
    ZeroBandwidth(MemLevel),
    /// A numeric field is NaN or infinite.
    NonFinite {
        /// Dotted path of the field ("compute.clock_hz", "tiers\[2\].bandwidth").
        field: String,
    },
    /// A numeric field is negative.
    Negative {
        /// Dotted path of the field.
        field: String,
    },
    /// An on-chip tier capacity (or the cluster pool
    /// `max_cluster x capacity`) exceeds the model's addressable range.
    CapacityOverflow(MemLevel),
    /// A bandwidth derate outside `(0, 1]`.
    BadDerate(MemLevel),
    /// A compute parameter is zero or out of range.
    BadCompute {
        /// Dotted path of the field.
        field: String,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::EmptyTiers => write!(f, "machine has an empty tier list"),
            MachineError::MissingTier(s) => {
                write!(f, "machine has no '{}'-scope tier", s.scope_name())
            }
            MachineError::DuplicateTier(s) => {
                write!(f, "machine has duplicate '{}'-scope tiers", s.scope_name())
            }
            MachineError::TierOutOfOrder { index, scope } => write!(
                f,
                "tier {index} ('{}') is out of canonical order (register, block, cluster, device, offchip)",
                scope.scope_name()
            ),
            MachineError::ZeroBandwidth(s) => {
                write!(f, "'{}'-scope tier has zero bandwidth", s.scope_name())
            }
            MachineError::NonFinite { field } => write!(f, "field '{field}' is not finite"),
            MachineError::Negative { field } => write!(f, "field '{field}' is negative"),
            MachineError::CapacityOverflow(s) => write!(
                f,
                "'{}'-scope tier capacity overflows the model's range",
                s.scope_name()
            ),
            MachineError::BadDerate(s) => write!(
                f,
                "'{}'-scope tier bandwidth derate must be in (0, 1]",
                s.scope_name()
            ),
            MachineError::BadCompute { field } => {
                write!(f, "compute parameter '{field}' is out of range")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// Largest on-chip tier capacity the model accepts (256 TiB): far above
/// any real scratchpad or cache, far below where the analyzer's
/// byte-volume arithmetic could overflow `u64`.
const MAX_ONCHIP_CAPACITY: u64 = 1 << 48;

/// A machine described as data: compute parameters plus one [`MemTier`]
/// per [`MemLevel`], in canonical order.
///
/// Flat per-level figures are accessor methods
/// ([`MachineDescriptor::num_sms`], [`MachineDescriptor::hbm_bw`], ...)
/// that read the tier list.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineDescriptor {
    /// Human-readable device name. Not part of the fingerprint.
    pub name: String,
    compute: ComputeParams,
    tiers: Vec<MemTier>,
}

impl MachineDescriptor {
    /// Builds and validates a descriptor.
    ///
    /// # Errors
    ///
    /// Returns a typed [`MachineError`] when the tier list or compute
    /// parameters are inconsistent — see the module docs for the rules.
    pub fn new(
        name: impl Into<String>,
        compute: ComputeParams,
        tiers: Vec<MemTier>,
    ) -> Result<MachineDescriptor, MachineError> {
        let d = MachineDescriptor {
            name: name.into(),
            compute,
            tiers,
        };
        d.validate()?;
        Ok(d)
    }

    /// Re-checks every invariant. Called by every constructor and
    /// mutator; public so decoded descriptors can be re-verified.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`MachineError`].
    pub fn validate(&self) -> Result<(), MachineError> {
        if self.tiers.is_empty() {
            return Err(MachineError::EmptyTiers);
        }
        for scope in MemLevel::ALL {
            let n = self.tiers.iter().filter(|t| t.scope == scope).count();
            if n > 1 {
                return Err(MachineError::DuplicateTier(scope));
            }
            if n == 0 {
                return Err(MachineError::MissingTier(scope));
            }
        }
        // Exactly one tier per scope; now the order must be canonical.
        for (i, (tier, scope)) in self.tiers.iter().zip(MemLevel::ALL).enumerate() {
            if tier.scope != scope {
                return Err(MachineError::TierOutOfOrder {
                    index: i,
                    scope: tier.scope,
                });
            }
        }
        for (i, t) in self.tiers.iter().enumerate() {
            for (value, field) in [
                (t.bandwidth, "bandwidth"),
                (t.latency_cycles, "latency_cycles"),
                (t.bandwidth_derate, "bandwidth_derate"),
                (t.latency_slope_cycles, "latency_slope_cycles"),
                (t.peak_bandwidth, "peak_bandwidth"),
            ] {
                if !value.is_finite() {
                    return Err(MachineError::NonFinite {
                        field: format!("tiers[{i}].{field}"),
                    });
                }
                if value < 0.0 {
                    return Err(MachineError::Negative {
                        field: format!("tiers[{i}].{field}"),
                    });
                }
            }
            if t.bandwidth == 0.0 && t.scope != MemLevel::Dsm {
                return Err(MachineError::ZeroBandwidth(t.scope));
            }
            if !(0.0..=1.0).contains(&t.bandwidth_derate) || t.bandwidth_derate == 0.0 {
                return Err(MachineError::BadDerate(t.scope));
            }
            if t.scope != MemLevel::Global && t.capacity_bytes > MAX_ONCHIP_CAPACITY {
                return Err(MachineError::CapacityOverflow(t.scope));
            }
        }
        let c = &self.compute;
        for (value, field) in [
            (c.clock_hz, "clock_hz"),
            (c.peak_flops, "peak_flops"),
            (c.barrier_cycles, "barrier_cycles"),
            (c.kernel_launch_s, "kernel_launch_s"),
        ] {
            if !value.is_finite() {
                return Err(MachineError::NonFinite {
                    field: format!("compute.{field}"),
                });
            }
            if value < 0.0 {
                return Err(MachineError::Negative {
                    field: format!("compute.{field}"),
                });
            }
        }
        if c.num_sms == 0 {
            return Err(MachineError::BadCompute {
                field: "compute.num_sms".to_string(),
            });
        }
        if c.clock_hz == 0.0 || c.peak_flops == 0.0 {
            return Err(MachineError::BadCompute {
                field: if c.clock_hz == 0.0 {
                    "compute.clock_hz".to_string()
                } else {
                    "compute.peak_flops".to_string()
                },
            });
        }
        if c.max_cluster == 0 || c.max_cluster > c.num_sms {
            return Err(MachineError::BadCompute {
                field: "compute.max_cluster".to_string(),
            });
        }
        // The cluster pool `(max_cluster - 1) x capacity` must stay well
        // inside u64 for the analyzer's placement arithmetic.
        let cluster_cap = self.tier(MemLevel::Dsm).capacity_bytes;
        if (c.max_cluster as u64).checked_mul(cluster_cap).is_none() {
            return Err(MachineError::CapacityOverflow(MemLevel::Dsm));
        }
        Ok(())
    }

    /// The compute-side parameters.
    pub fn compute(&self) -> &ComputeParams {
        &self.compute
    }

    /// The tier list, fastest first.
    pub fn tiers(&self) -> &[MemTier] {
        &self.tiers
    }

    /// The tier addressed by a [`MemLevel`]. Validation guarantees it
    /// exists.
    pub fn tier(&self, level: MemLevel) -> &MemTier {
        &self.tiers[level.index()]
    }

    /// This descriptor with one tier edited, re-validated.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError`] when the edit breaks an invariant (the
    /// scope is also re-checked — edits may not move a tier).
    pub fn with_tier(
        mut self,
        level: MemLevel,
        edit: impl FnOnce(&mut MemTier),
    ) -> Result<MachineDescriptor, MachineError> {
        edit(&mut self.tiers[level.index()]);
        self.validate()?;
        Ok(self)
    }

    /// This descriptor with the compute parameters edited, re-validated.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError`] when the edit breaks an invariant.
    pub fn with_compute(
        mut self,
        edit: impl FnOnce(&mut ComputeParams),
    ) -> Result<MachineDescriptor, MachineError> {
        edit(&mut self.compute);
        self.validate()?;
        Ok(self)
    }

    /// This descriptor under a different display name (fingerprint
    /// unchanged — names are labels).
    pub fn with_name(mut self, name: impl Into<String>) -> MachineDescriptor {
        self.name = name.into();
        self
    }

    /// Registered built-in machine ids, servable through `GET /machines`
    /// and usable wherever a descriptor file is accepted.
    pub fn builtin_ids() -> &'static [&'static str] {
        &["h100_sxm", "a100_sxm"]
    }

    /// Looks up a built-in machine by registered id.
    pub fn builtin(id: &str) -> Option<MachineDescriptor> {
        match id {
            "h100_sxm" => Some(MachineDescriptor::h100_sxm()),
            "a100_sxm" => Some(MachineDescriptor::a100_sxm()),
            _ => None,
        }
    }

    /// H100 SXM5 defaults.
    ///
    /// Sources: 989 TFLOPS dense FP16, 132 SMs, 3.35 TB/s HBM3,
    /// 227 KB usable SMEM/SM, 50 MB L2 (NVIDIA Hopper whitepaper);
    /// DSM bandwidth ≈ 3.27 TB/s at cluster 2 falling towards
    /// ≈ 1.7 TB/s at cluster 16 and DSM latency ≈ 180–230 cycles
    /// (paper Fig. 4; Luo et al. IPDPS'24; Jin et al. MICRO'24).
    pub fn h100_sxm() -> MachineDescriptor {
        let smem = 227 * 1024;
        MachineDescriptor {
            name: "H100-SXM5 (simulated)".to_string(),
            compute: ComputeParams {
                num_sms: 132,
                clock_hz: 1.83e9,
                peak_flops: 989e12,
                max_cluster: 16,
                barrier_cycles: 60.0,
                kernel_launch_s: 1.5e-6,
            },
            tiers: vec![
                // 64K 32-bit registers per SM = 256 KB; roughly half is
                // realistically available for accumulator tiles. The
                // bandwidth is effectively the tensor-core operand feed.
                MemTier::new("reg", MemLevel::Reg, 128 * 1024, 600e12, 0.0),
                // ~128 B/clk/SM x 132 SMs x 1.83 GHz ≈ 31 TB/s.
                MemTier::new("smem", MemLevel::Smem, smem, 31e12, 0.0),
                MemTier {
                    bandwidth_derate: 0.82,
                    latency_slope_cycles: 16.0,
                    ..MemTier::new("dsm", MemLevel::Dsm, smem, 3.27e12, 184.0)
                },
                MemTier::new("l2", MemLevel::L2, 50 * 1024 * 1024, 12e12, 0.0),
                MemTier {
                    // Achievable ~2 TB/s under kernel access patterns
                    // (the "Global Memory" line of Fig. 4); 3.35 TB/s
                    // datasheet peak for rooflines.
                    peak_bandwidth: 3.35e12,
                    ..MemTier::new("hbm", MemLevel::Global, 80 * (1 << 30), 2.0e12, 478.0)
                },
            ],
        }
    }

    /// A100 SXM4 defaults — no DSM (cluster limit 1, zero-bandwidth
    /// Cluster tier). Used by sensitivity studies and as a pre-Hopper
    /// reference point.
    pub fn a100_sxm() -> MachineDescriptor {
        let smem = 164 * 1024;
        MachineDescriptor {
            name: "A100-SXM4 (simulated)".to_string(),
            compute: ComputeParams {
                num_sms: 108,
                clock_hz: 1.41e9,
                peak_flops: 312e12,
                max_cluster: 1,
                barrier_cycles: 60.0,
                kernel_launch_s: 1.5e-6,
            },
            tiers: vec![
                MemTier::new("reg", MemLevel::Reg, 128 * 1024, 300e12, 0.0),
                MemTier::new("smem", MemLevel::Smem, smem, 19e12, 0.0),
                MemTier::new("dsm", MemLevel::Dsm, smem, 0.0, 0.0),
                MemTier::new("l2", MemLevel::L2, 40 * 1024 * 1024, 7e12, 0.0),
                MemTier {
                    peak_bandwidth: 2.0e12,
                    ..MemTier::new("hbm", MemLevel::Global, 40 * (1 << 30), 1.4e12, 480.0)
                },
            ],
        }
    }

    // --- Flat accessors (the pre-PR-7 field names) -----------------------

    /// Number of cores.
    pub fn num_sms(&self) -> usize {
        self.compute.num_sms
    }

    /// Core clock in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.compute.clock_hz
    }

    /// Peak dense FP16 throughput, FLOP/s.
    pub fn peak_flops(&self) -> f64 {
        self.compute.peak_flops
    }

    /// Maximum blocks per cluster.
    pub fn max_cluster(&self) -> usize {
        self.compute.max_cluster
    }

    /// Cost of one group-scoped barrier phase, cycles.
    pub fn barrier_cycles(&self) -> f64 {
        self.compute.barrier_cycles
    }

    /// Fixed kernel-launch overhead, seconds.
    pub fn kernel_launch_s(&self) -> f64 {
        self.compute.kernel_launch_s
    }

    /// Register-file bytes per core usable for accumulators/tiles.
    pub fn reg_bytes_per_sm(&self) -> u64 {
        self.tier(MemLevel::Reg).capacity_bytes
    }

    /// Usable scratchpad bytes per core (the purple dotted line of the
    /// paper's Fig. 5).
    pub fn smem_bytes_per_sm(&self) -> u64 {
        self.tier(MemLevel::Smem).capacity_bytes
    }

    /// Device-cache capacity in bytes.
    pub fn l2_bytes(&self) -> u64 {
        self.tier(MemLevel::L2).capacity_bytes
    }

    /// *Achievable* off-chip bandwidth under kernel access patterns,
    /// bytes/s — the cost and timing models' Global tier.
    pub fn hbm_bw(&self) -> f64 {
        self.tier(MemLevel::Global).bandwidth
    }

    /// Peak (datasheet) off-chip bandwidth, bytes/s — used for
    /// rooflines.
    pub fn hbm_peak_bw(&self) -> f64 {
        self.tier(MemLevel::Global).peak()
    }

    /// Off-chip access latency, cycles.
    pub fn global_latency_cycles(&self) -> f64 {
        self.tier(MemLevel::Global).latency_cycles
    }

    /// Raw per-level capacity in bytes — the tier's own number, before
    /// any cluster scaling (see [`MachineDescriptor::placement_capacity`]
    /// for the placement view). `Global` is unbounded for placement
    /// purposes.
    pub fn capacity(&self, level: MemLevel) -> u64 {
        self.tier(level).capacity_bytes
    }

    /// Fabric aggregate bandwidth (bytes/s) for a given cluster size.
    ///
    /// The paper's Fig. 4 shows bandwidth *decreasing* with cluster size
    /// (more SMs share the same NoC paths and hop distance grows). The
    /// Cluster tier's `bandwidth_derate` models a smooth per-doubling
    /// derate beyond 2 (~18 % on H100, reproducing the measured
    /// ≈3.3 → ≈1.7 TB/s drop from cluster 2 to 16). Returns the off-chip
    /// bandwidth for cluster sizes < 2 or machines without a fabric.
    pub fn dsm_bw(&self, cluster_size: usize) -> f64 {
        let t = self.tier(MemLevel::Dsm);
        if cluster_size < 2 || t.bandwidth == 0.0 {
            return self.hbm_bw();
        }
        let doublings = (cluster_size as f64 / 2.0).log2().max(0.0);
        t.bandwidth * t.bandwidth_derate.powf(doublings)
    }

    /// Fabric remote-access latency (cycles) for a given cluster size:
    /// grows roughly linearly in hop distance (Fig. 4 latency curve).
    pub fn dsm_latency_cycles(&self, cluster_size: usize) -> f64 {
        if cluster_size < 2 {
            return 0.0;
        }
        let t = self.tier(MemLevel::Dsm);
        let doublings = (cluster_size as f64 / 2.0).log2().max(0.0);
        t.latency_cycles + t.latency_slope_cycles * doublings
    }

    /// Seconds per cycle.
    pub fn cycle_s(&self) -> f64 {
        1.0 / self.compute.clock_hz
    }

    /// Placement capacity (bytes) of a spill tier, per block.
    ///
    /// Register and Block capacity belong to one core (one block in this
    /// model); `Dsm` capacity is the *aggregated peer window of the
    /// cluster* minus the block's own (`(cluster_size - 1) x capacity`);
    /// `Global` is unbounded for placement purposes.
    pub fn placement_capacity(&self, level: MemLevel, cluster_size: usize) -> u64 {
        match level {
            MemLevel::Dsm => {
                (cluster_size.saturating_sub(1) as u64) * self.tier(MemLevel::Dsm).capacity_bytes
            }
            MemLevel::Global => u64::MAX,
            _ => self.tier(level).capacity_bytes,
        }
    }

    /// Bandwidth (bytes/s) of a tier, given the cluster size in effect.
    pub fn bandwidth(&self, level: MemLevel, cluster_size: usize) -> f64 {
        match level {
            MemLevel::Dsm => self.dsm_bw(cluster_size),
            _ => self.tier(level).bandwidth,
        }
    }

    /// The compute/bandwidth machine balance (FLOP per off-chip byte):
    /// the roofline ridge point used in Fig. 16(a).
    pub fn machine_balance(&self) -> f64 {
        self.compute.peak_flops / self.hbm_peak_bw()
    }

    /// Stable content fingerprint of the machine description, folding
    /// the compute parameters and every tier's capacity/bandwidth/latency
    /// (floats by exact bit pattern) in canonical order. Part of the
    /// plan-cache key: a plan searched for one machine must never be
    /// served for another, and editing any modelled parameter invalidates
    /// previously cached plans.
    ///
    /// Deliberately *excluded*: the machine name and tier labels.
    /// Renaming invalidates nothing — two descriptors that model the same
    /// hardware are the same machine.
    pub fn fingerprint(&self) -> u64 {
        let mut h = flashfuser_graph::StableHasher::new();
        h.write_usize(self.compute.num_sms);
        h.write_f64_bits(self.compute.clock_hz);
        h.write_f64_bits(self.compute.peak_flops);
        h.write_usize(self.compute.max_cluster);
        h.write_f64_bits(self.compute.barrier_cycles);
        h.write_f64_bits(self.compute.kernel_launch_s);
        h.write_usize(self.tiers.len());
        for t in &self.tiers {
            h.write_usize(t.scope.index());
            h.write_u64(t.capacity_bytes);
            h.write_f64_bits(t.bandwidth);
            h.write_f64_bits(t.latency_cycles);
            h.write_f64_bits(t.bandwidth_derate);
            h.write_f64_bits(t.latency_slope_cycles);
            h.write_f64_bits(t.peak_bandwidth);
        }
        h.finish()
    }
}

impl Default for MachineDescriptor {
    fn default() -> Self {
        Self::h100_sxm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h100_headline_numbers() {
        let p = MachineDescriptor::h100_sxm();
        assert_eq!(p.num_sms(), 132);
        assert_eq!(p.smem_bytes_per_sm(), 227 * 1024);
        assert_eq!(p.max_cluster(), 16);
        // FP16 compute-to-bandwidth ratio ~295 FLOP/byte.
        assert!((250.0..350.0).contains(&p.machine_balance()));
        p.validate().unwrap();
        MachineDescriptor::a100_sxm().validate().unwrap();
    }

    #[test]
    fn dsm_bandwidth_decreases_with_cluster_size() {
        let p = MachineDescriptor::h100_sxm();
        let bw: Vec<f64> = [2, 4, 8, 16].iter().map(|&c| p.dsm_bw(c)).collect();
        for w in bw.windows(2) {
            assert!(w[0] > w[1], "bandwidth must fall with cluster size");
        }
        // Fig. 4 shape: all but the largest cluster beat global memory.
        assert!(p.dsm_bw(2) > p.hbm_bw());
        assert!(p.dsm_bw(4) > p.hbm_bw());
        assert!(p.dsm_bw(8) > p.hbm_bw());
        assert!(p.dsm_bw(16) < p.hbm_bw() * 1.05);
    }

    #[test]
    fn dsm_latency_increases_but_stays_below_global() {
        let p = MachineDescriptor::h100_sxm();
        let lat: Vec<f64> = [2, 4, 8, 16]
            .iter()
            .map(|&c| p.dsm_latency_cycles(c))
            .collect();
        for w in lat.windows(2) {
            assert!(w[0] < w[1], "latency must grow with cluster size");
        }
        // Fig. 4: DSM latency < global latency at every cluster size.
        assert!(lat[3] < p.global_latency_cycles());
    }

    #[test]
    fn placement_capacities() {
        let p = MachineDescriptor::h100_sxm();
        assert_eq!(p.placement_capacity(MemLevel::Smem, 8), 227 * 1024);
        assert_eq!(
            p.placement_capacity(MemLevel::Dsm, 8),
            7 * 227 * 1024,
            "DSM pool = 7 peer SMEMs"
        );
        assert_eq!(p.placement_capacity(MemLevel::Dsm, 1), 0);
        assert_eq!(p.placement_capacity(MemLevel::Global, 1), u64::MAX);
    }

    #[test]
    fn a100_has_no_dsm() {
        let p = MachineDescriptor::a100_sxm();
        assert_eq!(p.max_cluster(), 1);
        assert_eq!(p.placement_capacity(MemLevel::Dsm, 1), 0);
        // dsm_bw falls back to HBM bandwidth.
        assert_eq!(p.dsm_bw(4), p.hbm_bw());
    }

    #[test]
    fn spill_order_excludes_l2() {
        assert!(!MemLevel::SPILL_ORDER.contains(&MemLevel::L2));
        assert_eq!(MemLevel::SPILL_ORDER[0], MemLevel::Reg);
        assert_eq!(MemLevel::SPILL_ORDER[3], MemLevel::Global);
    }

    #[test]
    fn level_display() {
        assert_eq!(MemLevel::Dsm.to_string(), "dsm");
        assert_eq!(MemLevel::Global.to_string(), "global");
    }

    #[test]
    fn scope_level_round_trips() {
        for level in MemLevel::ALL {
            assert_eq!(MemLevel::from_scope_name(level.scope_name()), Some(level));
        }
        assert_eq!(MemLevel::from_scope_name("smem"), None);
    }

    #[test]
    fn validation_rejects_structural_nonsense() {
        let h = MachineDescriptor::h100_sxm();
        // Empty tier list.
        let empty = MachineDescriptor {
            name: "x".to_string(),
            compute: h.compute().clone(),
            tiers: vec![],
        };
        assert_eq!(empty.validate(), Err(MachineError::EmptyTiers));
        // Missing tier.
        let missing = MachineDescriptor {
            tiers: h.tiers()[..4].to_vec(),
            ..h.clone()
        };
        assert_eq!(
            missing.validate(),
            Err(MachineError::MissingTier(MemLevel::Global))
        );
        // Duplicate tier.
        let mut tiers = h.tiers().to_vec();
        tiers[3] = tiers[1].clone();
        let dup = MachineDescriptor { tiers, ..h.clone() };
        assert_eq!(
            dup.validate(),
            Err(MachineError::DuplicateTier(MemLevel::Smem))
        );
        // Out-of-order tiers.
        let mut tiers = h.tiers().to_vec();
        tiers.swap(1, 2);
        let swapped = MachineDescriptor { tiers, ..h.clone() };
        assert_eq!(
            swapped.validate(),
            Err(MachineError::TierOutOfOrder {
                index: 1,
                scope: MemLevel::Dsm
            })
        );
    }

    #[test]
    fn validation_rejects_numeric_nonsense() {
        let h = MachineDescriptor::h100_sxm();
        assert_eq!(
            h.clone()
                .with_tier(MemLevel::Smem, |t| t.bandwidth = 0.0)
                .unwrap_err(),
            MachineError::ZeroBandwidth(MemLevel::Smem)
        );
        // A zero-bandwidth *cluster* tier is fine — that's the A100.
        assert!(h
            .clone()
            .with_tier(MemLevel::Dsm, |t| t.bandwidth = 0.0)
            .is_ok());
        assert!(matches!(
            h.clone()
                .with_tier(MemLevel::Global, |t| t.bandwidth = f64::NAN)
                .unwrap_err(),
            MachineError::NonFinite { .. }
        ));
        assert!(matches!(
            h.clone().with_compute(|c| c.clock_hz = -1.0).unwrap_err(),
            MachineError::Negative { .. }
        ));
        assert_eq!(
            h.clone()
                .with_tier(MemLevel::Smem, |t| t.capacity_bytes = u64::MAX)
                .unwrap_err(),
            MachineError::CapacityOverflow(MemLevel::Smem)
        );
        assert_eq!(
            h.clone()
                .with_tier(MemLevel::Dsm, |t| t.bandwidth_derate = 1.5)
                .unwrap_err(),
            MachineError::BadDerate(MemLevel::Dsm)
        );
        assert!(matches!(
            h.clone().with_compute(|c| c.num_sms = 0).unwrap_err(),
            MachineError::BadCompute { .. }
        ));
        assert!(matches!(
            h.clone()
                .with_compute(|c| c.max_cluster = 10_000)
                .unwrap_err(),
            MachineError::BadCompute { .. }
        ));
    }

    #[test]
    fn fingerprint_ignores_labels_but_not_numbers() {
        let h = MachineDescriptor::h100_sxm();
        let renamed = h
            .clone()
            .with_name("totally different banner")
            .with_tier(MemLevel::Smem, |t| t.name = "scratchpad".to_string())
            .unwrap();
        assert_eq!(h.fingerprint(), renamed.fingerprint());
        let slower = h
            .clone()
            .with_tier(MemLevel::Global, |t| t.bandwidth = 1.9e12)
            .unwrap();
        assert_ne!(h.fingerprint(), slower.fingerprint());
        assert_ne!(h.fingerprint(), MachineDescriptor::a100_sxm().fingerprint());
    }

    #[test]
    fn builtin_registry_resolves_ids() {
        for id in MachineDescriptor::builtin_ids() {
            let m = MachineDescriptor::builtin(id).unwrap();
            m.validate().unwrap();
        }
        assert_eq!(
            MachineDescriptor::builtin("h100_sxm")
                .unwrap()
                .fingerprint(),
            MachineDescriptor::h100_sxm().fingerprint()
        );
        assert!(MachineDescriptor::builtin("h200_svm").is_none());
    }
}
