//! The exhaustive top-K oracle the search engine is checked against,
//! shared by the test binaries that need it.

use flashfuser_core::prune::CandidateStream;
use flashfuser_core::{
    CostModel, DataflowAnalysis, DataflowAnalyzer, LoopSchedule, MachineDescriptor, SearchConfig,
    SearchResult,
};
use flashfuser_graph::ChainSpec;

/// The exhaustive oracle: the best `config.top_k` candidates of the
/// stream by `(estimate, stream position)`, every candidate analyzed and
/// priced on its own — no bound, no skipping, no plane sharing.
pub fn exhaustive_top_k(
    machine: &MachineDescriptor,
    chain: &ChainSpec,
    config: &SearchConfig,
) -> Vec<(f64, u64, DataflowAnalysis)> {
    let all = LoopSchedule::enumerate_all();
    let analyzer = DataflowAnalyzer::new(machine.clone())
        .with_lowest_spill(config.prune.lowest_spill)
        .with_inter_cluster_reduce(config.prune.allow_inter_cluster_reduce);
    let cost_model = CostModel::new(machine.clone());
    let stream = CandidateStream::build(chain, &config.prune, &all);
    let mut best: Vec<(f64, u64, DataflowAnalysis)> = Vec::with_capacity(config.top_k + 1);
    for cand in &stream {
        let Ok(analysis) = analyzer.analyze(chain, cand.schedule, cand.cluster, cand.tile) else {
            continue;
        };
        let est = cost_model.evaluate(&analysis).est_s;
        let pos =
            best.partition_point(|(e, s, _)| e.total_cmp(&est).then(s.cmp(&cand.seq)).is_lt());
        if pos < config.top_k {
            best.insert(pos, (est, cand.seq, analysis));
            best.truncate(config.top_k);
        }
    }
    best
}

/// `got` is the oracle's top-K: estimates to the bit, analyses equal.
pub fn assert_oracle_top_k(got: &SearchResult, oracle: &[(f64, u64, DataflowAnalysis)], at: &str) {
    assert_eq!(got.top_k().len(), oracle.len(), "{at}");
    for (rank, (got, (est, _, analysis))) in got.top_k().iter().zip(oracle).enumerate() {
        assert_eq!(
            got.est_seconds.to_bits(),
            est.to_bits(),
            "{at}: rank {rank} estimate"
        );
        assert_eq!(&got.analysis, analysis, "{at}: rank {rank} plan");
    }
}
