#!/usr/bin/env bash
# Local CI: configure, build, and test the presets that gate a change.
#
#   release  full fast test suite under the optimized build
#   asan     AddressSanitizer+UBSan over the same fast suite
#   tsan     ThreadSanitizer over the concurrency-sensitive suites
#            (preset filter in CMakePresets.json)
#
# The fast presets exclude tests labeled `slow`; those (the long-run
# differential fuzz stages) run as a separate `ctest -L slow` stage on
# the release build afterwards. A last stage compiles the perfbench
# program (perfbench/CMakeLists.txt), which no preset builds, so a
# library API change that breaks the benchmark fails here.
#
# Usage: tools/ci.sh [preset ...]     (default: release asan tsan + slow)
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
run_slow=0
if [ ${#presets[@]} -eq 0 ]; then
  presets=(release asan tsan)
  run_slow=1
fi

jobs=$(nproc 2>/dev/null || echo 4)
for preset in "${presets[@]}"; do
  echo "==> [$preset] configure"
  cmake --preset "$preset"
  echo "==> [$preset] build"
  cmake --build --preset "$preset" -j "$jobs"
  echo "==> [$preset] test"
  ctest --preset "$preset"
done

if [ "$run_slow" -eq 1 ]; then
  # Focused rerun of the sharded-collection suites on the release build.
  # They already ran inside the fast tier (and the concurrency-sensitive
  # ones again under tsan via the preset filter); this stage exists so a
  # sharding regression is reported as its own line, not buried in the
  # full-suite output. Shard build splices each document's flat arrays
  # into the shard's tree, so the document, parser and snippet suites
  # that check the tree ride along.
  echo "==> [sharded] sharded scatter-gather stage (release build)"
  ctest --test-dir build/release \
    -R '(Shard|ScatterGather|BalancedPartition|TermFilter|DocumentTest|XmlParserTest|Snippet)' \
    --output-on-failure
  # Same idea for the intra-query chunked execution suites: parity,
  # stitcher, chunk planning and the engine wiring as one visible line.
  echo "==> [parallel-slca] chunked intra-query stage (release build)"
  ctest --test-dir build/release -R 'ParallelSlca' --output-on-failure
  # The match path: the lm/rm steps of Indexed Lookup and Scan Eager
  # (packed and chunked, plus the vector list the algorithm tests use as
  # a fixture), the disk index's block probe, its pinned
  # Table 1 and page counters, and its
  # restart-indexed block format, the level-table codec and its bit I/O
  # (including the on-disk key bytes), the match-loop and result-cache-hit
  # allocation tests, the inline/heap storage of DeweyId itself, and
  # the block decoder's arena contract.
  echo "==> [match-path] SLCA match step and key codec stage (release build)"
  ctest --test-dir build/release \
    -R '(IndexedLookupTest|ScanEagerTest|AllAlgorithmsTest|ScanMatcherTest|PackedKeywordListTest|ParallelSlca|SlcaProperty|DiskIndexTest|DiskIndexProbeTest|DiskProbeCountersTest|DeweyCodecTest|BitIoTest|BitReaderTest|BitWriterTest|MatchAllocationTest|DeweyIdTest|ResultCacheAllocationTest|DecodeKernelTest\.Arena)' \
    --output-on-failure
  # Concurrent serving: single-flight coalescing and the result cache
  # (round trips, budget and sketch charge, TinyLFU admission and
  # halving, concurrent insert/lookup/clear with hot and cold keys) as
  # one visible line, plus a short xk_fuzz concurrent-client parity smoke (the full
  # soak rides in -L slow as xk_fuzz_long_batched).
  echo "==> [single-flight] single-flight and concurrent-client stage (release build)"
  ctest --test-dir build/release -R '(SingleFlight|QueryCache)' \
    --output-on-failure
  ./build/release/tools/xk_fuzz --cases=30 --seed=910 --batch=4 \
    --no-shards --no-chunks
  # Crash consistency: the WAL frame/recovery suites plus the exhaustive
  # crash-point sweep (fast scale; the scale-3 run rides in -L slow), and
  # the updater's batch-parity and the mutable tree's Apply suites that
  # the sweep's apply path rests on.
  echo "==> [crash-recovery] WAL + crash-point sweep stage (release build)"
  ctest --test-dir build/release \
    -R '(Wal|StagedStore|CrashRecovery|DiskIndexUpdater|BPlusTreeMut)' \
    --output-on-failure
  echo "==> [slow] long-run fuzz/stress stage (ctest -L slow, release build)"
  ctest --test-dir build/release -L slow --output-on-failure
  echo "==> [bench-smoke] benchmark smoke stage (ctest -L bench-smoke)"
  ctest --test-dir build/release -L bench-smoke --output-on-failure
  # Compile only: the benchmark links the libraries from src/ through
  # its own CMakeLists and calls their public API.
  echo "==> [perfbench] benchmark program compile stage"
  cmake -S perfbench -B build/perfbench -DCMAKE_BUILD_TYPE=Release
  cmake --build build/perfbench --target xk_perfbench -j "$jobs"
fi
echo "ci: all presets passed (${presets[*]})"
