// Standalone differential fuzzer for long runs.
//
// Generates seeded random collections, cross-checks the four SLCA
// algorithms (Indexed Lookup Eager, Scan Eager, Stack, brute force) and
// the disk path against the linear-time tree oracle — optionally with
// transient read faults injected into the disk stores — and exits
// non-zero with a replayable (seed, query) repro on any divergence.
//
//   xk_fuzz --cases=5000 --seed=1 --faults
//   xk_fuzz --seed=12345 --cases=1      # replay one reported case
//
// The in-CI runs live in ctest (differential_fuzz_test and the `slow`
// labeled long runs registered in tools/CMakeLists.txt); this binary is
// for overnight soaking and repro.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "dewey/decode_kernels.h"
#include "fuzz/harness.h"

namespace {

uint64_t ParseFlag(const char* arg, const char* name, uint64_t fallback) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return fallback;
  return std::strtoull(arg + len + 1, nullptr, 10);
}

void Usage() {
  std::fprintf(stderr,
               "usage: xk_fuzz [--cases=N] [--seed=S] [--queries=N]\n"
               "               [--faults | --no-faults] [--no-disk]\n"
               "               [--shards=N | --no-shards]\n"
               "               [--threads=N | --no-chunks]\n"
               "               [--crashes=N] [--batch=N] [--no-simd]\n"
               "  --shards=N   check only shard count N (default: 1,2,4,7)\n"
               "  --no-shards  skip the sharded-collection checks\n"
               "  --threads=N  chunk-pool workers for the intra-query\n"
               "               parallel-SLCA parity checks (default: 3);\n"
               "               chunk counts checked stay 1,2,3,8\n"
               "  --no-chunks  skip the chunked parallel-SLCA checks\n"
               "  --batch=N    client threads of the concurrent-client\n"
               "               stage (at most 64): each submits every\n"
               "               sampled query through one QueryService and\n"
               "               is checked against the sequential run\n"
               "               (default: 3); --batch=0 disables the stage\n"
               "  --crashes=N  crash-recovery rounds per collection: a\n"
               "               file-backed copy of the index takes a seeded\n"
               "               update batch killed at a seeded durable\n"
               "               operation; the reopened index must be exactly\n"
               "               the pre- or post-batch state (default: 0)\n"
               "  --no-simd    force the scalar decode kernel for the whole\n"
               "               run (same as XK_FORCE_SCALAR_DECODE=1); this\n"
               "               also disables the per-case scalar-vs-dispatch\n"
               "               decode differential, which needs both kernels\n");
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t cases = 1000;
  uint64_t seed = 1;
  xksearch::fuzz::FuzzOptions options;
  bool faults = true;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--cases=", 8) == 0) {
      cases = ParseFlag(arg, "--cases", cases);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      seed = ParseFlag(arg, "--seed", seed);
    } else if (std::strncmp(arg, "--queries=", 10) == 0) {
      options.queries_per_collection =
          static_cast<size_t>(ParseFlag(arg, "--queries", 4));
    } else if (std::strcmp(arg, "--faults") == 0) {
      faults = true;
    } else if (std::strcmp(arg, "--no-faults") == 0) {
      faults = false;
    } else if (std::strcmp(arg, "--no-disk") == 0) {
      options.with_disk = false;
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      options.shard_counts = {
          static_cast<size_t>(ParseFlag(arg, "--shards", 1))};
    } else if (std::strcmp(arg, "--no-shards") == 0) {
      options.shard_counts.clear();
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      options.chunk_workers =
          static_cast<size_t>(ParseFlag(arg, "--threads", 3));
      if (options.chunk_workers == 0) options.chunk_counts.clear();
    } else if (std::strcmp(arg, "--no-chunks") == 0) {
      options.chunk_counts.clear();
    } else if (std::strncmp(arg, "--batch=", 8) == 0) {
      options.concurrent_clients =
          static_cast<size_t>(ParseFlag(arg, "--batch", 3));
      if (options.concurrent_clients > 64) {
        Usage();
        return 2;
      }
    } else if (std::strncmp(arg, "--crashes=", 10) == 0) {
      options.crash_rounds =
          static_cast<size_t>(ParseFlag(arg, "--crashes", 0));
    } else if (std::strcmp(arg, "--no-simd") == 0) {
      xksearch::ForceScalarDecode(true);
    } else {
      Usage();
      return 2;
    }
  }
  options.with_faults = faults && options.with_disk;

  std::string shards = "off";
  if (!options.shard_counts.empty()) {
    shards.clear();
    for (size_t n : options.shard_counts) {
      if (!shards.empty()) shards += ',';
      shards += std::to_string(n);
    }
  }
  std::printf(
      "xk_fuzz: %llu collections from seed %llu (disk=%s faults=%s "
      "shards=%s chunk-threads=%s clients=%zu crashes=%zu decode=%s)\n",
      static_cast<unsigned long long>(cases),
      static_cast<unsigned long long>(seed),
      options.with_disk ? "on" : "off", options.with_faults ? "on" : "off",
      shards.c_str(),
      options.chunk_counts.empty() ? "off"
                                   : std::to_string(options.chunk_workers)
                                         .c_str(),
      options.concurrent_clients, options.crash_rounds,
      xksearch::DecodeKernelName(xksearch::ActiveDecodeKernel()));

  xksearch::fuzz::FuzzReport total;
  const uint64_t report_every = cases >= 10 ? cases / 10 : 1;
  size_t printed = 0;
  for (uint64_t i = 0; i < cases; ++i) {
    total.Merge(xksearch::fuzz::RunFuzzCase(seed + i, options));
    // Print divergences as they appear and keep fuzzing (one run should
    // surface every distinct failure), but stop once clearly broken.
    while (printed < total.divergences.size()) {
      std::fprintf(
          stderr, "%s\n",
          xksearch::fuzz::FormatDivergence(total.divergences[printed++])
              .c_str());
    }
    if (total.divergences.size() >= 10) break;
    if ((i + 1) % report_every == 0) {
      std::printf("  ... %llu/%llu collections, %llu checks, "
                  "%llu clean fault errors\n",
                  static_cast<unsigned long long>(i + 1),
                  static_cast<unsigned long long>(cases),
                  static_cast<unsigned long long>(total.cases),
                  static_cast<unsigned long long>(total.clean_fault_errors));
    }
  }

  std::printf("xk_fuzz: %llu collections, %llu differential checks, "
              "%llu clean fault errors, %llu fault survivals, "
              "%llu crash recoveries (pre=%llu post=%llu), "
              "%zu divergences\n",
              static_cast<unsigned long long>(total.collections),
              static_cast<unsigned long long>(total.cases),
              static_cast<unsigned long long>(total.clean_fault_errors),
              static_cast<unsigned long long>(total.fault_survivals),
              static_cast<unsigned long long>(total.crash_landed_pre +
                                              total.crash_landed_post),
              static_cast<unsigned long long>(total.crash_landed_pre),
              static_cast<unsigned long long>(total.crash_landed_post),
              total.divergences.size());
  return total.ok() ? 0 : 1;
}
