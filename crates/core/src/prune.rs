//! Pruning rules 1–5 (paper §IV-C2, Table III).
//!
//! * **Rule 1 — divisible tile sizes** (from MCFuser): tiles are
//!   hardware-aware multiples of one MMA that evenly divide the problem.
//! * **Rule 2 — cluster size constraint**: `cls_m*cls_n*cls_k ≤ 16` with
//!   integral shuffle/reduce groupings, and one shared cluster shape for
//!   both GEMMs (guaranteed by construction here).
//! * **Rule 3 — activation constraint**: a temporal K must be the
//!   innermost loop so the activation sees complete sums.
//! * **Rule 4 — dependency constraint**: L must not be grid-spatial —
//!   spatially separated L tiles would all need the whole intermediate
//!   with no communication path (intra-cluster L parallelism via `cls_l`
//!   remains available).
//! * **Tile/cluster geometry** (reported between Rules 4 and 5):
//!   `blk_d·cls_d` must tile every dim, and a spatial K or L must fit one
//!   cluster. Separable per dimension, so the [`CandidateStream`] filters
//!   its tile *axes* instead of its candidates.
//! * **Rule 5 — memory capacity**: accumulators fit registers, the
//!   streaming working set fits SMEM, and the reused strip fits at or
//!   above the configured lowest spill tier. Enforced by the
//!   [`DataflowAnalyzer`]'s own `score`, so the count is exact.

use crate::analyzer::DataflowAnalyzer;
use crate::comm::geometry::CLUSTER_DIM_CHOICES;
use crate::comm::ClusterShape;
use crate::machine::{MachineDescriptor, MemLevel};
use crate::plan::PlanGeometry;
use crate::schedule::LoopSchedule;
use crate::space;
use crate::tiling::{hardware_aware_tiles, BlockTile};
use flashfuser_graph::{ChainSpec, Dim};
use std::fmt;

/// Configuration of the pruning cascade.
#[derive(Debug, Clone)]
pub struct PruneConfig {
    /// Hardware cluster-size limit (Rule 2); 16 on H100, 1 disables DSM.
    pub max_cluster: usize,
    /// Lowest tier the reused strip may occupy (Rule 5);
    /// [`MemLevel::Dsm`] for FlashFuser, [`MemLevel::Smem`] for
    /// SMEM-only baselines, [`MemLevel::Global`] for the spill-anywhere
    /// ablation.
    pub lowest_spill: MemLevel,
    /// Whether the target implements the TMA atomic `inter_cluster_reduce`
    /// path (Hopper-only; `false` for pre-Hopper baseline systems).
    pub allow_inter_cluster_reduce: bool,
}

impl Default for PruneConfig {
    fn default() -> Self {
        Self {
            max_cluster: 16,
            lowest_spill: MemLevel::Dsm,
            allow_inter_cluster_reduce: true,
        }
    }
}

/// Candidate counts after each pruning step (one Table III column).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneStats {
    /// Raw space (`41 x 5^4 x Π S_d/16`), reported not iterated.
    pub initial: f64,
    /// After Rule 1 (divisible tiles).
    pub after_rule1: u64,
    /// After Rule 2 (legal cluster shapes).
    pub after_rule2: u64,
    /// After Rule 3 (temporal K innermost).
    pub after_rule3: u64,
    /// After Rule 4 (no grid-spatial L).
    pub after_rule4: u64,
    /// After the tile/cluster geometry: candidates whose `blk_d·cls_d`
    /// tile every dim, with a spatial K or L inside one cluster. Closed
    /// form ([`CandidateStream::len`]); what the search scans.
    pub after_geometry: u64,
    /// After Rule 5 (capacity-feasible; exact, via the analyzer).
    pub after_rule5: u64,
}

impl PruneStats {
    /// Total reduction factor from the initial space to after Rule 5.
    pub fn total_reduction(&self) -> f64 {
        if self.after_rule5 == 0 {
            return 1.0;
        }
        1.0 - self.after_rule5 as f64 / self.initial
    }
}

impl fmt::Display for PruneStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Original space   {:>14.3e}", self.initial)?;
        writeln!(f, "+ Rule 1         {:>14}", self.after_rule1)?;
        writeln!(f, "+ Rule 2         {:>14}", self.after_rule2)?;
        writeln!(f, "+ Rule 3         {:>14}", self.after_rule3)?;
        writeln!(f, "+ Rule 4         {:>14}", self.after_rule4)?;
        writeln!(f, "+ Geometry       {:>14}", self.after_geometry)?;
        writeln!(f, "+ Rule 5         {:>14}", self.after_rule5)?;
        write!(
            f,
            "Total reduction  {:>13.4}%",
            self.total_reduction() * 100.0
        )
    }
}

/// Schedules surviving Rule 3: spatial K, or temporal K innermost.
pub fn schedules_after_rule3(all: &[LoopSchedule]) -> Vec<&LoopSchedule> {
    all.iter()
        .filter(|s| s.is_spatial(Dim::K) || s.innermost_temporal() == Some(Dim::K))
        .collect()
}

/// Schedules surviving Rules 3 *and* 4 (additionally: L not spatial).
pub fn schedules_after_rule4(all: &[LoopSchedule]) -> Vec<&LoopSchedule> {
    schedules_after_rule3(all)
        .into_iter()
        .filter(|s| !s.is_spatial(Dim::L))
        .collect()
}

/// One enumerated candidate, tagged with its position in the stream's
/// total order.
///
/// `seq` is the index a sequential scan would visit the candidate at;
/// parallel consumers use it to break cost ties exactly as a sequential
/// scan would, making multi-threaded search results bit-identical to
/// single-threaded ones.
#[derive(Debug, Clone, Copy)]
pub struct Candidate<'a> {
    /// Position in the stream's total order (`0..stream.len()`).
    pub seq: u64,
    /// The loop schedule.
    pub schedule: &'a LoopSchedule,
    /// The cluster shape.
    pub cluster: ClusterShape,
    /// The block tile.
    pub tile: BlockTile,
}

/// `true` when one cluster must cover `dim` whole: K and L may be
/// schedule-spatial only with `grid_d = 1` (see
/// [`PlanGeometry::derive`]).
fn must_cover(schedule: &LoopSchedule, dim: Dim) -> bool {
    matches!(dim, Dim::K | Dim::L) && schedule.is_spatial(dim)
}

/// Slot of the `(dim, cls_d, must_cover)` axis in `CandidateStream::axes`.
fn axis_slot(dim: Dim, cls: usize, cover: bool) -> usize {
    let cls_idx = CLUSTER_DIM_CHOICES
        .iter()
        .position(|&c| c == cls)
        .expect("cluster extents come from CLUSTER_DIM_CHOICES");
    (dim.index() * 2 + usize::from(cover)) * CLUSTER_DIM_CHOICES.len() + cls_idx
}

/// One entry of a filtered tile axis: the tile extent and how many
/// `blk_d·cls_d` units tile the dim. The filter already divided, so the
/// geometry of every candidate is a lookup (see [`Plane::geometry`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileChoice {
    /// Tile extent `blk_d`.
    pub blk: usize,
    /// `S_d / (blk_d·cls_d)`: clusters along a spatial dim, trips along
    /// a temporal one.
    pub count: usize,
}

/// One `(schedule, cluster)` pair whose four tile axes are all non-empty:
/// its candidates are exactly the cross product of those axes, M
/// outermost, L innermost.
struct Group<'a> {
    schedule: &'a LoopSchedule,
    cluster: ClusterShape,
    /// Slots of the M, N, K, L axes in `CandidateStream::axes`.
    axes: [usize; 4],
    /// `seq` of the group's first candidate.
    first_seq: u64,
}

/// The candidate stream: every (schedule, cluster, tile) triple that
/// survives Rules 1–4 *and* derives a
/// [`PlanGeometry`] — the population the cost
/// bound and Rule 5 (the analyzer) then work on.
///
/// `PlanGeometry::derive` is separable per dimension: it fails iff, for
/// some dim `d`, `S_d % (blk_d·cls_d) != 0`, or `d ∈ {K, L}` is
/// schedule-spatial and `S_d != blk_d·cls_d`. So for each
/// `(schedule, cluster)` the derivable candidates are a cross product of
/// four *filtered* tile axes, and an axis depends only on
/// `(d, cls_d, spatial?)` — at most 40 distinct ones per chain. The
/// stream holds those axes plus one group header per `(schedule, cluster)`
/// with a non-empty product; candidates that cannot exist are never
/// materialised, and [`CandidateStream::len`] is a closed form.
///
/// The order is that of a nested loop over `schedules x clusters x blk_m
/// x blk_n x blk_k x blk_l`, innermost last. The stream is *randomly
/// addressable* ([`CandidateStream::get`]), iterates by odometer
/// ([`CandidateStream::range`]), and hands the search engine whole
/// `(blk_m, blk_n)` planes ([`CandidateStream::planes`]) so disjoint
/// index ranges can be scanned by different worker threads without
/// coordination.
pub struct CandidateStream<'a> {
    /// Filtered tile axes, indexed by [`axis_slot`] (the must-cover slots
    /// of M and N are filled but never referenced).
    axes: Vec<Vec<TileChoice>>,
    groups: Vec<Group<'a>>,
    len: u64,
}

impl<'a> CandidateStream<'a> {
    /// Builds the stream for a chain under `config`.
    pub fn build(chain: &ChainSpec, config: &PruneConfig, all: &'a [LoopSchedule]) -> Self {
        let dims = chain.dims();
        let mut axes = Vec::with_capacity(4 * 2 * CLUSTER_DIM_CHOICES.len());
        for dim in Dim::ALL {
            let size = dims.size(dim);
            let tiles = hardware_aware_tiles(size);
            for cover in [false, true] {
                for cls in CLUSTER_DIM_CHOICES {
                    let choice = |&blk: &usize| {
                        let unit = blk * cls;
                        (size.is_multiple_of(unit) && (!cover || size == unit)).then(|| {
                            TileChoice {
                                blk,
                                count: size / unit,
                            }
                        })
                    };
                    // Sized up front: one allocation per axis, whatever
                    // the filter keeps.
                    let mut axis = Vec::with_capacity(tiles.len());
                    axis.extend(tiles.iter().filter_map(choice));
                    axes.push(axis);
                }
            }
        }
        let schedules = schedules_after_rule4(all);
        let clusters = ClusterShape::enumerate(config.max_cluster);
        let mut stream = CandidateStream {
            axes,
            groups: Vec::with_capacity(schedules.len() * clusters.len()),
            len: 0,
        };
        for schedule in schedules {
            for &cluster in &clusters {
                let slots = Dim::ALL
                    .map(|dim| axis_slot(dim, cluster.size(dim), must_cover(schedule, dim)));
                let product: u64 = slots.iter().map(|&s| stream.axes[s].len() as u64).product();
                if product > 0 {
                    stream.groups.push(Group {
                        schedule,
                        cluster,
                        axes: slots,
                        first_seq: stream.len,
                    });
                    stream.len += product;
                }
            }
        }
        stream
    }

    /// Candidates in the stream — the Table III "geometry" row and
    /// `SearchStats::eligible`, in closed form.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when no candidate survives the structural rules and the
    /// tile/cluster geometry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The M, N, K, L tile axes of a group.
    fn axes_of(&self, group: &Group<'a>) -> [&[TileChoice]; 4] {
        group.axes.map(|slot| self.axes[slot].as_slice())
    }

    /// The `(schedule, cluster)` groups, in stream order.
    pub fn groups(&self) -> impl ExactSizeIterator<Item = PlaneGroup<'a, '_>> {
        (0..self.groups.len()).map(|index| self.group(index))
    }

    /// The group at `index` of [`CandidateStream::groups`].
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn group(&self, index: usize) -> PlaneGroup<'a, '_> {
        let header = &self.groups[index];
        let [m, n, k, l] = self.axes_of(header).map(|axis| axis.len() as u64);
        PlaneGroup {
            stream: self,
            index,
            schedule: header.schedule,
            cluster: header.cluster,
            first_seq: header.first_seq,
            len: m * n * k * l,
        }
    }

    /// The plane at positions `(im, in_)` of group `group`'s M and N
    /// axes, whose first candidate sits at `seq`.
    #[inline]
    fn plane(&self, group: usize, im: usize, in_: usize, seq: u64) -> Plane<'a, '_> {
        let group = &self.groups[group];
        let [axis_m, axis_n, tiles_k, tiles_l] = self.axes_of(group);
        let (m, n) = (axis_m[im], axis_n[in_]);
        let schedule = group.schedule;
        let mut geometry_mn = PlanGeometry::UNIT;
        geometry_mn.set_count(Dim::M, schedule.is_spatial(Dim::M), m.count);
        geometry_mn.set_count(Dim::N, schedule.is_spatial(Dim::N), n.count);
        Plane {
            seq,
            schedule,
            cluster: group.cluster,
            blk_m: m.blk,
            blk_n: n.blk,
            tiles_k,
            tiles_l,
            geometry_mn,
        }
    }

    /// Iterator over the planes from the one *containing* `start` up to
    /// `end`, plus `start`'s `(blk_k, blk_l)` digits inside that first
    /// plane. Both bounds are clamped to the stream.
    fn planes_containing(&self, start: u64, end: u64) -> (PlaneIter<'a, '_>, [usize; 2]) {
        let end = end.min(self.len);
        let mut planes = PlaneIter {
            stream: self,
            group: 0,
            pos: [0, 0],
            seq: end,
            end,
        };
        if start >= end {
            return (planes, [0, 0]);
        }
        // Binary search on the group, then mixed radix inside it.
        planes.group = self.groups.partition_point(|g| g.first_seq <= start) - 1;
        let group = &self.groups[planes.group];
        let mut rest = start - group.first_seq;
        let [_, n, k, l] = self.axes_of(group).map(|axis| axis.len() as u64);
        let mut digit = |radix: u64| {
            let d = (rest % radix) as usize;
            rest /= radix;
            d
        };
        // Innermost (fastest-varying) digit first.
        let (il, ik) = (digit(l), digit(k));
        planes.pos[1] = digit(n);
        planes.pos[0] = rest as usize;
        planes.seq = start - (ik as u64 * l + il as u64);
        (planes, [ik, il])
    }

    /// The candidate at position `seq` of the total order, or `None` past
    /// the end.
    pub fn get(&self, seq: u64) -> Option<Candidate<'a>> {
        self.range(seq, seq.saturating_add(1)).next()
    }

    /// Iterates the whole stream in total order.
    pub fn iter(&self) -> CandidateIter<'a, '_> {
        self.range(0, self.len)
    }

    /// Iterates the half-open index range `[start, end)` of the total
    /// order (clamped to the stream length).
    pub fn range(&self, start: u64, end: u64) -> CandidateIter<'a, '_> {
        let (mut planes, [ik, il]) = self.planes_containing(start, end);
        let left = planes.end.saturating_sub(start);
        let current = planes.next().map(|plane| PlaneCandidates {
            plane,
            ik,
            il,
            seq: start,
        });
        CandidateIter {
            planes,
            current,
            left,
        }
    }

    /// Iterates the `(blk_m, blk_n)` planes whose first candidate lies in
    /// `[start, end)` (clamped to the stream length) — the unit of work a
    /// search worker thread claims. Adjacent ranges partition the
    /// stream's planes.
    pub fn planes(&self, start: u64, end: u64) -> PlaneIter<'a, '_> {
        let (mut planes, offset) = self.planes_containing(start, end);
        if offset != [0, 0] {
            // `start` falls inside a plane that began before it.
            planes.next();
        }
        planes
    }
}

impl<'a, 's> IntoIterator for &'s CandidateStream<'a> {
    type Item = Candidate<'a>;
    type IntoIter = CandidateIter<'a, 's>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// One `(schedule, cluster, blk_m, blk_n)` plane of the stream: a
/// contiguous run of `|tiles_k| x |tiles_l|` candidates that differ only
/// in `blk_k` and `blk_l`. The cost lower bound and the mandatory tile
/// traffic are the same for all of them, which is what lets the search
/// price a plane once.
#[derive(Debug, Clone, Copy)]
pub struct Plane<'a, 's> {
    /// Stream position of the plane's first candidate.
    pub seq: u64,
    /// The loop schedule.
    pub schedule: &'a LoopSchedule,
    /// The cluster shape.
    pub cluster: ClusterShape,
    /// Tile extent along M.
    pub blk_m: usize,
    /// Tile extent along N.
    pub blk_n: usize,
    /// The plane's `blk_k` choices (outer), never empty.
    pub tiles_k: &'s [TileChoice],
    /// The plane's `blk_l` choices (inner), never empty.
    pub tiles_l: &'s [TileChoice],
    /// The M/N half of every candidate's geometry (K and L at one).
    geometry_mn: PlanGeometry,
}

impl<'a, 's> Plane<'a, 's> {
    /// Candidates in the plane; never zero.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u64 {
        (self.tiles_k.len() * self.tiles_l.len()) as u64
    }

    /// The plane's tile with the given `blk_k` and `blk_l`.
    pub fn tile(&self, blk_k: usize, blk_l: usize) -> BlockTile {
        // Axis entries are `hardware_aware_tiles`, so `BlockTile::new`'s
        // granule assertions hold by construction.
        BlockTile {
            m: self.blk_m,
            n: self.blk_n,
            k: blk_k,
            l: blk_l,
        }
    }

    /// The geometry of the plane's candidate at `(k, l)` — what
    /// [`PlanGeometry::derive`] would return for it, read off the axis
    /// entries instead of divided out again.
    #[inline]
    pub fn geometry(&self, k: TileChoice, l: TileChoice) -> PlanGeometry {
        let mut geometry = self.geometry_mn;
        geometry.set_count(Dim::K, self.schedule.is_spatial(Dim::K), k.count);
        geometry.set_count(Dim::L, self.schedule.is_spatial(Dim::L), l.count);
        geometry
    }

    /// Tile and geometry of the plane's first candidate — what
    /// plane-level quantities (the cost bound, the mandatory traffic,
    /// [`DataflowAnalyzer::plane`]) are computed on: none of them reads
    /// `blk_k` or `blk_l`.
    #[inline]
    pub fn first(&self) -> (BlockTile, PlanGeometry) {
        let (k, l) = (self.tiles_k[0], self.tiles_l[0]);
        (self.tile(k.blk, l.blk), self.geometry(k, l))
    }

    /// The plane's candidates in stream order.
    pub fn candidates(self) -> PlaneCandidates<'a, 's> {
        PlaneCandidates {
            plane: self,
            ik: 0,
            il: 0,
            seq: self.seq,
        }
    }
}

/// One `(schedule, cluster)` group of the stream (see
/// [`CandidateStream::group`]): the cross product of its four tile axes,
/// a contiguous run of `|tiles_m| x |tiles_n|` planes. Every axis
/// ascends in `blk_d`, so its first entry has the largest `count` and
/// its last the smallest — which is where a whole-group bound reads its
/// extremes ([`PlaneGroup::corner`], [`PlaneGroup::max_blocks`]).
#[derive(Clone, Copy)]
pub struct PlaneGroup<'a, 's> {
    stream: &'s CandidateStream<'a>,
    index: usize,
    /// The loop schedule.
    pub schedule: &'a LoopSchedule,
    /// The cluster shape.
    pub cluster: ClusterShape,
    /// Stream position of the group's first candidate.
    pub first_seq: u64,
    /// Candidates in the group; never zero.
    pub len: u64,
}

impl<'a, 's> PlaneGroup<'a, 's> {
    /// The group's planes in stream order.
    pub fn planes(&self) -> PlaneIter<'a, 's> {
        PlaneIter {
            stream: self.stream,
            group: self.index,
            pos: [0, 0],
            seq: self.first_seq,
            end: self.first_seq + self.len,
        }
    }

    /// The plane of the largest `blk_m` and `blk_n` — the last entries of
    /// the M and N axes. Its mandatory traffic is the least of the group.
    pub fn corner(&self) -> Plane<'a, 's> {
        let [m, n, k, l] = self.stream.axes_of(&self.stream.groups[self.index]);
        let (im, in_) = (m.len() - 1, n.len() - 1);
        let seq = self.first_seq + (im * n.len() + in_) as u64 * (k.len() * l.len()) as u64;
        self.stream.plane(self.index, im, in_, seq)
    }

    /// Blocks launched by the plane of the smallest `blk_m` and `blk_n` —
    /// the first entries of the M and N axes: the most of any plane in
    /// the group.
    pub fn max_blocks(&self) -> u64 {
        let (_, geometry) = self.stream.plane(self.index, 0, 0, self.first_seq).first();
        geometry.blocks_total(self.cluster)
    }
}

/// Odometer over the stream's planes (see [`CandidateStream::planes`]).
pub struct PlaneIter<'a, 's> {
    stream: &'s CandidateStream<'a>,
    group: usize,
    /// Positions on the group's M and N axes.
    pos: [usize; 2],
    /// `seq` of the next plane's first candidate.
    seq: u64,
    end: u64,
}

impl<'a, 's> Iterator for PlaneIter<'a, 's> {
    type Item = Plane<'a, 's>;

    #[inline]
    fn next(&mut self) -> Option<Plane<'a, 's>> {
        if self.seq >= self.end {
            return None;
        }
        let stream = self.stream;
        let plane = stream.plane(self.group, self.pos[0], self.pos[1], self.seq);
        let [axis_m, axis_n, ..] = stream.axes_of(&stream.groups[self.group]);
        self.seq += plane.len();
        self.pos[1] += 1;
        if self.pos[1] == axis_n.len() {
            self.pos[1] = 0;
            self.pos[0] += 1;
            if self.pos[0] == axis_m.len() {
                self.pos[0] = 0;
                self.group += 1;
            }
        }
        Some(plane)
    }
}

/// Odometer over one plane's candidates (see [`Plane::candidates`]).
pub struct PlaneCandidates<'a, 's> {
    plane: Plane<'a, 's>,
    ik: usize,
    il: usize,
    seq: u64,
}

impl<'a, 's> PlaneCandidates<'a, 's> {
    /// Advances the odometer: the next candidate's `seq` and its
    /// `(blk_k, blk_l)` axis entries.
    // A dozen instructions per candidate, called from other crates'
    // loops: left to the inliner's mood (it declines inside a large
    // caller) the call costs four times the step itself.
    #[inline(always)]
    fn step(&mut self) -> Option<(u64, TileChoice, TileChoice)> {
        let plane = &self.plane;
        let &k = plane.tiles_k.get(self.ik)?;
        let step = (self.seq, k, plane.tiles_l[self.il]);
        self.seq += 1;
        self.il += 1;
        if self.il == plane.tiles_l.len() {
            self.il = 0;
            self.ik += 1;
        }
        Some(step)
    }

    fn candidate(&self, seq: u64, k: TileChoice, l: TileChoice) -> Candidate<'a> {
        Candidate {
            seq,
            schedule: self.plane.schedule,
            cluster: self.plane.cluster,
            tile: self.plane.tile(k.blk, l.blk),
        }
    }

    /// The remaining candidates, each with its [`Plane::geometry`].
    #[inline]
    pub fn with_geometry(
        mut self,
    ) -> impl Iterator<Item = (Candidate<'a>, PlanGeometry)> + use<'a, 's> {
        std::iter::from_fn(move || {
            let (seq, k, l) = self.step()?;
            Some((self.candidate(seq, k, l), self.plane.geometry(k, l)))
        })
    }
}

impl<'a> Iterator for PlaneCandidates<'a, '_> {
    type Item = Candidate<'a>;

    // See `PlaneCandidates::step`.
    #[inline(always)]
    fn next(&mut self) -> Option<Candidate<'a>> {
        let (seq, k, l) = self.step()?;
        Some(self.candidate(seq, k, l))
    }
}

/// Iterator over a contiguous index range of a [`CandidateStream`]: a
/// plane odometer with a candidate odometer inside it.
pub struct CandidateIter<'a, 's> {
    planes: PlaneIter<'a, 's>,
    current: Option<PlaneCandidates<'a, 's>>,
    left: u64,
}

impl<'a> Iterator for CandidateIter<'a, '_> {
    type Item = Candidate<'a>;

    // See `PlaneCandidates::step`.
    #[inline(always)]
    fn next(&mut self) -> Option<Candidate<'a>> {
        if self.left == 0 {
            return None;
        }
        loop {
            if let Some(candidate) = self.current.as_mut()?.next() {
                self.left -= 1;
                return Some(candidate);
            }
            self.current = self.planes.next().map(Plane::candidates);
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.left as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for CandidateIter<'_, '_> {}

/// Computes the full Table III cascade for one chain. Every row but the
/// last is a closed form; Rule 5 scores every streamed candidate —
/// geometry off the axes, no plan built — so this is
/// `O(|after_geometry|)` cheap arithmetic per candidate.
pub fn count_cascade(
    chain: &ChainSpec,
    params: &MachineDescriptor,
    config: &PruneConfig,
) -> PruneStats {
    let dims = chain.dims();
    let all = LoopSchedule::all();
    let tiles = space::tile_combinations(dims);
    let clusters = ClusterShape::enumerate(config.max_cluster).len() as u64;
    let r3 = schedules_after_rule3(all).len() as u64;
    let r4 = schedules_after_rule4(all).len() as u64;

    let stream = CandidateStream::build(chain, config, all);
    let analyzer = DataflowAnalyzer::new(params.clone())
        .with_lowest_spill(config.lowest_spill)
        .with_inter_cluster_reduce(config.allow_inter_cluster_reduce);
    let feasible = stream
        .planes(0, stream.len())
        .flat_map(|plane| plane.candidates().with_geometry())
        .filter(|&(c, geometry)| {
            analyzer
                .score(chain, c.schedule, c.cluster, c.tile, geometry)
                .is_ok()
        })
        .count() as u64;

    PruneStats {
        initial: space::initial_space_size(dims),
        after_rule1: space::space_after_rule1(dims),
        after_rule2: space::NUM_SCHEDULES * clusters * tiles,
        after_rule3: r3 * clusters * tiles,
        after_rule4: r4 * clusters * tiles,
        after_geometry: stream.len(),
        after_rule5: feasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashfuser_tensor::Activation;

    #[test]
    fn rule3_keeps_16_schedule_classes_before_rule4() {
        let all = LoopSchedule::enumerate_all();
        let r3 = schedules_after_rule3(&all);
        // Spatial-K subsets: {K},{MK},{NK},{LK},{MNK},{MLK},{NLK},{MNKL}
        // contribute 3!+2+2+2+1+1+1+1 = 16 ... plus temporal-K-innermost.
        for s in &r3 {
            assert!(
                s.is_spatial(Dim::K) || s.innermost_temporal() == Some(Dim::K),
                "{s} escaped rule 3"
            );
        }
        assert!(r3.len() < all.len());
    }

    #[test]
    fn rule4_removes_spatial_l() {
        let all = LoopSchedule::enumerate_all();
        for s in schedules_after_rule4(&all) {
            assert!(!s.is_spatial(Dim::L));
        }
        assert!(schedules_after_rule4(&all).len() < schedules_after_rule3(&all).len());
    }

    #[test]
    fn cascade_is_monotonically_decreasing() {
        let chain = ChainSpec::standard_ffn(128, 512, 256, 256, Activation::Relu);
        let stats = count_cascade(
            &chain,
            &MachineDescriptor::h100_sxm(),
            &PruneConfig::default(),
        );
        assert!(stats.initial >= stats.after_rule1 as f64);
        assert!(stats.after_rule1 >= stats.after_rule2);
        assert!(stats.after_rule2 >= stats.after_rule3);
        assert!(stats.after_rule3 >= stats.after_rule4);
        assert!(stats.after_rule4 >= stats.after_geometry);
        assert!(stats.after_geometry >= stats.after_rule5);
        assert!(stats.after_rule5 > 0, "some candidate must survive");
        assert!(stats.total_reduction() > 0.99);
    }

    #[test]
    fn gpt_6_7b_cascade_keeps_its_counts_and_gains_the_geometry_row() {
        // Table III's chain. Rules 4 and 5 as counted before the stream
        // was factored; the geometry row is what the search now scans.
        let chain = ChainSpec::standard_ffn(256, 16384, 4096, 4096, Activation::Relu);
        let stats = count_cascade(
            &chain,
            &MachineDescriptor::h100_sxm(),
            &PruneConfig::default(),
        );
        assert_eq!(
            (stats.after_rule4, stats.after_geometry, stats.after_rule5),
            (4_989_600, 1_035_963, 181_879)
        );
    }

    #[test]
    fn smem_only_config_prunes_more() {
        let chain = ChainSpec::standard_ffn(128, 4096, 1024, 1024, Activation::Relu);
        let params = MachineDescriptor::h100_sxm();
        let dsm = count_cascade(&chain, &params, &PruneConfig::default());
        let smem = count_cascade(
            &chain,
            &params,
            &PruneConfig {
                max_cluster: 1,
                lowest_spill: MemLevel::Smem,
                allow_inter_cluster_reduce: false,
            },
        );
        assert!(smem.after_rule5 < dsm.after_rule5);
    }

    #[test]
    fn stream_len_matches_iteration() {
        let chain = ChainSpec::standard_ffn(64, 64, 64, 64, Activation::Relu);
        let all = LoopSchedule::enumerate_all();
        let stream = CandidateStream::build(&chain, &PruneConfig::default(), &all);
        assert_eq!(stream.iter().count() as u64, stream.len());
        assert!(!stream.is_empty());
    }

    #[test]
    fn display_has_all_rows() {
        let chain = ChainSpec::standard_ffn(64, 64, 64, 64, Activation::Relu);
        let stats = count_cascade(
            &chain,
            &MachineDescriptor::h100_sxm(),
            &PruneConfig::default(),
        );
        let s = stats.to_string();
        for row in ["Rule 1", "Geometry", "Rule 5", "Total reduction"] {
            assert!(s.contains(row));
        }
    }
}
