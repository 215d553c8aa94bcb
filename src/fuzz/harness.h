#ifndef XKSEARCH_FUZZ_HARNESS_H_
#define XKSEARCH_FUZZ_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace xksearch {
namespace fuzz {

/// \brief Knobs for one differential fuzz run.
///
/// Every case is fully determined by (seed, options): the seed drives the
/// tree shape, the vocabulary, the pool geometry, the queries and the
/// fault schedule, so any reported divergence replays from its printed
/// seed alone.
struct FuzzOptions {
  /// Random tree size range (element nodes).
  size_t min_nodes = 8;
  size_t max_nodes = 120;
  /// Vocabulary size range ("w0".."wN").
  size_t min_vocab = 2;
  size_t max_vocab = 10;
  /// Keywords per query (duplicates and absent keywords are mixed in).
  size_t min_keywords = 1;
  size_t max_keywords = 4;
  /// Queries evaluated against each generated collection.
  size_t queries_per_collection = 4;
  /// Also run every query on the disk engine, a DiskSearcher built from
  /// the case's XKSearch (in-memory page store, deliberately tiny buffer
  /// pools so reads actually happen), and build a disk-backed sharded
  /// collection beside each in-memory one.
  bool with_disk = true;
  /// Inject transient read faults into the disk path: each query round
  /// arms a fresh probabilistic fault schedule, asserts that a failing
  /// query fails cleanly (IoError status, zero leaked pins), then
  /// disarms and asserts the retry succeeds and matches the oracle.
  bool with_faults = false;
  /// Per-read fault probability while armed.
  double fault_probability = 0.25;
  /// Faults per armed round before the schedule exhausts (transient
  /// faults must recover; kForever would starve the retry).
  uint64_t faults_per_round = 4;
  /// Also build the case's corpus (the primary document plus sampled
  /// extra documents) into one sharded collection per entry here, and
  /// assert for every query that sequential and pool-parallel
  /// scatter-gather both reproduce the union of the per-document
  /// single-index answers — plus the per-shard stats aggregation
  /// identity, ELCA/All-LCA parity, disk-path parity and (with
  /// with_faults) single-shard fault rounds. Empty disables sharded
  /// checks entirely.
  std::vector<size_t> shard_counts = {1, 2, 4, 7};
  /// Extra documents sampled per collection on top of the primary one
  /// (0..max, seeded), so shard partitions have something to split.
  size_t max_extra_documents = 3;
  /// Seeded crash-recovery rounds per collection. Each round builds a
  /// file-backed copy of the collection's index under the system temp
  /// dir, plans a seeded update batch (removes of existing postings,
  /// adds sampled from the corpus id pool, a brand-new term), measures
  /// the batch's durable-operation count W with a fault-free counting
  /// run, then re-runs it killed at a seeded durable operation k in
  /// [1, W]. The reopened index (WAL replay at open) must be exactly
  /// the pre-batch or exactly the post-batch posting state — never a
  /// hybrid — with dictionary/list agreement, zero leaked pins, and
  /// query parity against the matching side's brute-force SLCA.
  /// 0 disables crash rounds (they are the only fuzz stage that
  /// touches the filesystem).
  size_t crash_rounds = 0;
  /// Chunk counts for the intra-query parallel SLCA check: each eager
  /// query (in memory and on disk) is re-run chunked at every count on a
  /// shared pool with min_chunk_elements forced to 1, and must reproduce
  /// the sequential run's exact result sequence plus its match_ops and
  /// results counters. With with_faults, chunked fault rounds assert the
  /// IoError-or-exact contract and zero leaked pins. Empty disables the
  /// chunked checks.
  std::vector<size_t> chunk_counts = {1, 2, 3, 8};
  /// Workers of the shared intra-query chunk pool.
  size_t chunk_workers = 3;
  /// Client threads of the concurrent-client stage: each submits every
  /// sampled query of the collection at once through a QueryService (one
  /// per engine),
  /// so identical submissions are in flight together and coalesce under
  /// single-flight. Each response must reproduce the sequential engine
  /// run exactly (nodes, match_ops, results); with with_disk &&
  /// with_faults an armed disk round additionally asserts the
  /// IoError-or-exact contract and zero leaked pins. 0 disables the
  /// stage.
  size_t concurrent_clients = 3;
};

/// \brief One observed disagreement, minimized to its replay coordinates.
struct Divergence {
  uint64_t seed = 0;
  std::vector<std::string> keywords;
  /// Which comparison failed and how (human-readable).
  std::string detail;
};

/// \brief Aggregate outcome of a fuzz run.
struct FuzzReport {
  uint64_t collections = 0;
  /// (collection, query, semantics) evaluations cross-checked.
  uint64_t cases = 0;
  /// Fault-mode queries that failed with a clean injected error.
  uint64_t clean_fault_errors = 0;
  /// Fault-mode queries that succeeded despite the armed schedule.
  uint64_t fault_survivals = 0;
  /// Crash rounds whose recovered index was the pre-batch state (the
  /// kill fired before the commit frame's fsync completed).
  uint64_t crash_landed_pre = 0;
  /// Crash rounds whose recovered index was the post-batch state.
  uint64_t crash_landed_post = 0;
  std::vector<Divergence> divergences;

  bool ok() const { return divergences.empty(); }
  void Merge(const FuzzReport& other);
};

/// Renders one divergence as a copy-pasteable repro line.
std::string FormatDivergence(const Divergence& d);

/// Runs the full differential check over one seeded collection: random
/// document -> in-memory engine + (optionally) disk engine; each sampled
/// query is evaluated with Indexed Lookup Eager, Scan Eager and Stack on
/// both engines plus the brute-force enumeration, all compared against the
/// linear-time TreeOracle; ELCA and All-LCA semantics are cross-checked
/// the same way. Never throws or aborts on divergence — every mismatch
/// becomes a Divergence in the report.
FuzzReport RunFuzzCase(uint64_t seed, const FuzzOptions& options);

/// Runs `count` collections with seeds first_seed, first_seed+1, ... and
/// merges the reports.
FuzzReport RunFuzz(uint64_t first_seed, uint64_t count,
                   const FuzzOptions& options);

}  // namespace fuzz
}  // namespace xksearch

#endif  // XKSEARCH_FUZZ_HARNESS_H_
