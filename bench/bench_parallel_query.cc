// Thread sweep over intra-query chunked SLCA execution (Ablation X12):
// one closed-loop coordinator runs a planted equal-frequency query
// through the chunked Indexed Lookup / Scan Eager path while a worker
// pool executes the extra S1 chunks. Equal frequencies make |S1| — the
// chunked dimension — as large as the workload allows, the regime where
// intra-query parallelism has the most to win.
//
// Two regimes:
//
//   memory  packed in-memory lists; pure compute scaling of the chain
//           plus the sequential stitch pass.
//   disk    in-memory page store with oversized, pre-warmed pools: the
//           same sweep with every probe going through the B+trees and
//           the sharded buffer pool (hot, so no eviction noise).
//
// threads=N means N-way parallelism: the coordinator plus N-1 pool
// workers, max_chunks = N. threads=1 is the sequential engine verbatim
// (the chunked path falls back below two chunks).
//
// Standalone binary (like bench_parallel_cold), not a google-benchmark
// harness: it owns its thread pool and per-regime engine builds. Prints
// a table plus one JSON line per configuration for tools/bench_to_csv.py.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "engine/disk_searcher.h"
#include "engine/xksearch.h"
#include "gen/dblp_generator.h"
#include "serve/thread_pool.h"
#include "slca/parallel.h"

namespace xksearch {
namespace {

using Clock = std::chrono::steady_clock;

struct Config {
  size_t papers = 60000;
  /// Keywords in the planted query; every list has `frequency` below.
  size_t keywords = 3;
  /// Planted list size; 0 = papers / 2.
  uint64_t frequency = 0;
  std::vector<size_t> threads = {1, 2, 4, 8};
  size_t duration_ms = 600;
  size_t warmup_rounds = 3;
  uint64_t min_chunk_elements = 512;
};

struct RunResult {
  uint64_t queries = 0;
  uint64_t results = 0;
  double avg_ms = 0;
  double qps = 0;
};

template <typename Engine>
RunResult RunOnce(const Engine& system,
                  const std::vector<std::string>& query,
                  const SearchOptions& options,
                  const ParallelExecOptions& exec, const Config& config) {
  for (size_t i = 0; i < config.warmup_rounds; ++i) {
    const Result<SearchResult> r = system.Search(query, options, exec);
    if (!r.ok()) {
      std::fprintf(stderr, "warmup: %s\n", r.status().ToString().c_str());
      std::exit(1);
    }
  }
  RunResult out;
  const Clock::time_point start = Clock::now();
  const Clock::duration budget =
      std::chrono::milliseconds(config.duration_ms);
  Clock::time_point now;
  do {
    const Result<SearchResult> r = system.Search(query, options, exec);
    if (!r.ok()) {
      std::fprintf(stderr, "query: %s\n", r.status().ToString().c_str());
      std::exit(1);
    }
    ++out.queries;
    out.results = r->nodes.size();
    now = Clock::now();
  } while (now - start < budget);
  const double seconds = std::chrono::duration<double>(now - start).count();
  out.avg_ms = out.queries == 0
                   ? 0
                   : seconds * 1000.0 / static_cast<double>(out.queries);
  out.qps = seconds > 0 ? static_cast<double>(out.queries) / seconds : 0;
  return out;
}

Result<std::unique_ptr<XKSearch>> BuildSystem(const Config& config,
                                              std::vector<std::string>* query) {
  DblpOptions gen;
  gen.papers = config.papers;
  gen.seed = 271828;
  const uint64_t frequency =
      config.frequency > 0 ? config.frequency : config.papers / 2;
  for (size_t i = 0; i < config.keywords; ++i) {
    gen.plants.push_back({"xq" + std::to_string(i), frequency});
    query->push_back("xq" + std::to_string(i));
  }
  XKS_ASSIGN_OR_RETURN(Document doc, GenerateDblp(gen));
  return XKSearch::BuildFromDocument(std::move(doc));
}

uint64_t ParseU64(const char* text) {
  return static_cast<uint64_t>(std::strtoull(text, nullptr, 10));
}

std::vector<size_t> ParseList(const char* text) {
  std::vector<size_t> out;
  std::string item;
  for (const char* p = text;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!item.empty()) {
        out.push_back(static_cast<size_t>(ParseU64(item.c_str())));
      }
      item.clear();
      if (*p == '\0') break;
    } else {
      item.push_back(*p);
    }
  }
  return out;
}

int Main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    if (const char* v = value("--papers=")) {
      config.papers = ParseU64(v);
    } else if (const char* v = value("--keywords=")) {
      config.keywords = ParseU64(v);
    } else if (const char* v = value("--frequency=")) {
      config.frequency = ParseU64(v);
    } else if (const char* v = value("--threads=")) {
      config.threads = ParseList(v);
    } else if (const char* v = value("--duration-ms=")) {
      config.duration_ms = ParseU64(v);
    } else if (const char* v = value("--min-chunk-elements=")) {
      config.min_chunk_elements = ParseU64(v);
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nflags: --papers= --keywords= "
                   "--frequency= --threads=l --duration-ms= "
                   "--min-chunk-elements=\n",
                   arg);
      return 2;
    }
  }

  std::vector<std::string> query;
  std::fprintf(stderr, "building corpus (%zu papers, %zu planted lists)...\n",
               config.papers, config.keywords);
  Result<std::unique_ptr<XKSearch>> built = BuildSystem(config, &query);
  if (!built.ok()) {
    std::fprintf(stderr, "build: %s\n", built.status().ToString().c_str());
    return 1;
  }
  DiskIndexOptions disk_options;
  disk_options.in_memory = true;  // page-identical to files, no FS noise
  disk_options.scan_pool_pages = 1 << 20;
  Result<std::unique_ptr<DiskSearcher>> searcher =
      DiskSearcher::Build(**built, "", disk_options);
  if (!searcher.ok()) {
    std::fprintf(stderr, "build: %s\n", searcher.status().ToString().c_str());
    return 1;
  }
  const Status warmed = (*searcher)->index()->WarmCaches();
  if (!warmed.ok()) {
    std::fprintf(stderr, "warm: %s\n", warmed.ToString().c_str());
    return 1;
  }

  std::printf("%6s %18s %8s %10s %10s %8s %10s %10s\n", "regime",
              "algorithm", "threads", "avg_ms", "qps", "speedup", "results",
              "pool_tasks");
  for (const bool disk : {false, true}) {
    for (const AlgorithmChoice algorithm :
         {AlgorithmChoice::kIndexedLookupEager, AlgorithmChoice::kScanEager}) {
      const std::string name =
          algorithm == AlgorithmChoice::kIndexedLookupEager ? "indexed-lookup"
                                                            : "scan-eager";
      double base_ms = 0;
      for (const size_t threads : config.threads) {
        SearchOptions options;
        options.algorithm = algorithm;
        std::unique_ptr<serve::ThreadPool> pool;
        std::unique_ptr<ConcurrencyBudget> budget;
        ParallelExecOptions exec;
        if (threads > 1) {
          serve::ThreadPool::Options pool_options;
          pool_options.workers = threads - 1;
          pool = std::make_unique<serve::ThreadPool>(pool_options);
          budget = std::make_unique<ConcurrencyBudget>(threads - 1);
          exec.pool = pool.get();
          exec.budget = budget.get();
          exec.max_chunks = threads;
          exec.min_chunk_elements = config.min_chunk_elements;
        }
        const RunResult r =
            disk ? RunOnce(**searcher, query, options, exec, config)
                 : RunOnce(**built, query, options, exec, config);
        if (base_ms == 0) base_ms = r.avg_ms;
        const double speedup = r.avg_ms > 0 ? base_ms / r.avg_ms : 0;
        // Chunk tasks that actually ran on the pool. Zero at threads>1
        // means the chunked path never engaged (a plumbing regression);
        // a positive count with speedup ~1.0x is what a single-core host
        // shows — the path ran, the hardware just can't overlap it.
        const uint64_t pool_tasks = pool ? pool->tasks_run() : 0;
        std::printf("%6s %18s %8zu %10.3f %10.1f %7.2fx %10" PRIu64
                    " %10" PRIu64 "\n",
                    disk ? "disk" : "memory", name.c_str(), threads, r.avg_ms,
                    r.qps, speedup, r.results, pool_tasks);
        // Machine-readable row for tools/bench_to_csv.py.
        std::printf(
            "{\"bench\":\"parallel_query\",\"regime\":\"%s\","
            "\"algorithm\":\"%s\",\"threads\":%zu,\"keywords\":%zu,"
            "\"frequency\":%" PRIu64 ",\"avg_ms\":%.4f,\"qps\":%.1f,"
            "\"speedup\":%.3f,\"queries\":%" PRIu64 ",\"results\":%" PRIu64
            ",\"pool_tasks\":%" PRIu64 "}\n",
            disk ? "disk" : "memory", name.c_str(), threads, config.keywords,
            config.frequency > 0 ? config.frequency
                                 : static_cast<uint64_t>(config.papers / 2),
            r.avg_ms, r.qps, speedup, r.queries, r.results, pool_tasks);
        std::fflush(stdout);
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace xksearch

int main(int argc, char** argv) { return xksearch::Main(argc, argv); }
