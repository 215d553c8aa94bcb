// Differential fuzzing of the four SLCA algorithms and the disk path.
//
// Each case generates a seeded random collection, evaluates every query
// with Indexed Lookup Eager, Scan Eager, Stack and brute force — in
// memory and through the disk index — and compares all of them against
// the linear-time TreeOracle; a second pass does the same with transient
// read faults injected into the disk stores. Any divergence fails with a
// (seed, query) repro replayable via `xk_fuzz --seed=<seed> --cases=1`.
//
// Case counts: XK_FUZZ_CASES overrides the per-suite collection count
// (the CI default keeps the whole file in the fast tier).

#include "fuzz/harness.h"

#include <cstdlib>
#include <string>

#include "gtest/gtest.h"

namespace xksearch {
namespace fuzz {
namespace {

uint64_t CasesFromEnv(uint64_t fallback) {
  const char* env = std::getenv("XK_FUZZ_CASES");
  if (env == nullptr || *env == '\0') return fallback;
  const uint64_t n = std::strtoull(env, nullptr, 10);
  return n == 0 ? fallback : n;
}

void ExpectClean(const FuzzReport& report) {
  for (const Divergence& d : report.divergences) {
    ADD_FAILURE() << FormatDivergence(d);
  }
  EXPECT_TRUE(report.ok());
}

// ≥1000 (collection, query) cases with zero divergence is the headline
// acceptance bar: 175 collections x 4 queries each = 700 queries, each
// cross-checked a dozen ways (well over 1000 differential cases).
TEST(DifferentialFuzz, MemoryAndDiskAgreeWithOracle) {
  FuzzOptions options;
  const FuzzReport report = RunFuzz(1, CasesFromEnv(175), options);
  ExpectClean(report);
  EXPECT_EQ(report.collections, CasesFromEnv(175));
  EXPECT_GE(report.cases, 1000u);
}

TEST(DifferentialFuzz, SurvivesInjectedReadFaults) {
  FuzzOptions options;
  options.with_faults = true;
  const FuzzReport report = RunFuzz(50'000, CasesFromEnv(60), options);
  ExpectClean(report);
  // The schedule must actually have fired: a fault run where every query
  // sailed through would prove nothing.
  EXPECT_GT(report.clean_fault_errors, 0u);
  // And it must not have fired on literally everything, or the recovery
  // path was never exercised from a mixed state.
  EXPECT_GT(report.fault_survivals, 0u);
}

// Large trees push multi-page posting lists through the scan layout;
// fewer collections, bigger each.
TEST(DifferentialFuzz, LargeCollections) {
  FuzzOptions options;
  options.min_nodes = 400;
  options.max_nodes = 1200;
  options.max_vocab = 20;
  options.queries_per_collection = 3;
  const FuzzReport report = RunFuzz(90'000, CasesFromEnv(12), options);
  ExpectClean(report);
}

// Sharded scatter-gather parity, with fault rounds: every query also
// runs against one sharded collection per shard count in {1, 2, 4, 7}
// (multi-document corpora, sequential and pool-parallel execution, disk
// path, per-shard stats identity) and must reproduce the union of the
// per-document single-index answers. Sharding rides along in every suite
// above too — the defaults enable it — but this run pins a dedicated
// seed range with faults on so single-shard fault isolation (one faulted
// shard fails the query cleanly, zero leaked pins, routed-away queries
// unaffected, recovery exact) is exercised regardless of what the other
// suites' schedules happen to hit.
TEST(DifferentialFuzz, ShardedParityIncludingFaults) {
  FuzzOptions options;
  options.with_faults = true;
  options.max_extra_documents = 3;
  const FuzzReport report = RunFuzz(130'000, CasesFromEnv(60), options);
  ExpectClean(report);
  EXPECT_GT(report.clean_fault_errors, 0u);
  EXPECT_GT(report.fault_survivals, 0u);
  EXPECT_GE(report.cases, 1000u);
}

// Crash-recovery rounds: each collection's index is rebuilt file-backed,
// takes a seeded update batch killed at a seeded durable operation, and
// must reopen (WAL replay) as exactly the pre- or exactly the post-batch
// posting state — never a hybrid — with query parity against the
// matching side. This randomizes what the exhaustive sweep in
// crash_recovery_test.cc pins down: index shape, batch composition and
// kill point all come from the seed.
TEST(DifferentialFuzz, CrashRecoveryRoundsLandOnBatchBoundaries) {
  FuzzOptions options;
  options.crash_rounds = 2;
  // The crash rounds are the point; skip the orthogonal stages.
  options.queries_per_collection = 1;
  options.shard_counts.clear();
  options.chunk_counts.clear();
  const FuzzReport report = RunFuzz(200'000, CasesFromEnv(25), options);
  ExpectClean(report);
  // Both batch-boundary outcomes must occur across the rounds, or the
  // kill points only ever sampled one side of the commit barrier.
  EXPECT_GT(report.crash_landed_pre, 0u);
  EXPECT_GT(report.crash_landed_post, 0u);
}

// In-memory-only sweep is cheap, so it can afford many more shapes.
TEST(DifferentialFuzz, InMemoryOnlySweep) {
  FuzzOptions options;
  options.with_disk = false;
  const FuzzReport report = RunFuzz(700'000, CasesFromEnv(120), options);
  ExpectClean(report);
}

}  // namespace
}  // namespace fuzz
}  // namespace xksearch
