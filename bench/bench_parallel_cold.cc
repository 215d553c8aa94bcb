// Worker-count sweep over the concurrent disk read path: N closed-loop
// worker threads hammer one shared DiskSearcher (no serving layer, no
// result cache — this measures the sharded buffer pool itself) in two
// regimes:
//
//   hot   pools sized to hold both trees entirely, warmed before the
//         sweep: every fetch is a cache hit, so throughput isolates the
//         pool's lock path. Before the pools were sharded this curve was
//         flat (a global mutex serialized every query); with sharding it
//         must scale with workers.
//   cold  deliberately tiny pools: a steady-state miss stream with
//         constant eviction, the concurrent analogue of the paper's
//         cold-cache figures. Buffer-pool misses are the paper's "disk
//         accesses"; the JSON reports them per query.
//
// Standalone binary (like bench_serve_throughput), not a
// google-benchmark harness: it needs its own worker threads and
// per-regime index builds. Prints a table plus one JSON line per
// configuration for tools/bench_to_csv.py.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/disk_searcher.h"
#include "engine/xksearch.h"
#include "gen/dblp_generator.h"
#include "gen/query_sampler.h"

namespace xksearch {
namespace {

using Clock = std::chrono::steady_clock;

struct Config {
  size_t papers = 20000;
  std::vector<size_t> workers = {1, 2, 4, 8};
  size_t pool_queries = 512;
  size_t duration_ms = 800;
  size_t warmup_ms = 200;
  /// Frames per pool in the cold regime; small enough that eviction
  /// never stops on any realistic corpus.
  size_t cold_pool_pages = 64;
  /// Buffer-pool shards (0 = auto). --shards=1 reproduces the old
  /// single-LRU contention for comparison.
  size_t shards = 0;
};

struct RunResult {
  uint64_t ok = 0;
  uint64_t failed = 0;
  double qps = 0;
  uint64_t page_reads = 0;
  uint64_t page_hits = 0;
};

RunResult RunOnce(const DiskSearcher& searcher,
                  const std::vector<std::vector<std::string>>& queries,
                  const Config& config, size_t workers) {
  struct WorkerState {
    uint64_t ok = 0;
    uint64_t failed = 0;
    QueryStats stats;
  };
  std::vector<WorkerState> states(workers);
  std::atomic<bool> warming{true};
  std::atomic<bool> running{true};

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      WorkerState& state = states[w];
      size_t i = w * 131;  // distinct per-thread walk through the pool
      while (running.load(std::memory_order_relaxed)) {
        const std::vector<std::string>& query =
            queries[(i += 7) % queries.size()];
        const Result<SearchResult> r = searcher.Search(query);
        if (warming.load(std::memory_order_relaxed)) continue;
        if (r.ok()) {
          ++state.ok;
          state.stats += r->stats;
        } else {
          ++state.failed;
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(config.warmup_ms));
  warming.store(false, std::memory_order_relaxed);
  const Clock::time_point start = Clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(config.duration_ms));
  running.store(false, std::memory_order_relaxed);
  const Clock::time_point end = Clock::now();
  for (std::thread& t : threads) t.join();

  RunResult result;
  for (const WorkerState& state : states) {
    result.ok += state.ok;
    result.failed += state.failed;
    result.page_reads += state.stats.page_reads;
    result.page_hits += state.stats.page_hits;
  }
  const double seconds = std::chrono::duration<double>(end - start).count();
  result.qps = seconds > 0 ? static_cast<double>(result.ok) / seconds : 0;
  return result;
}

std::vector<std::vector<std::string>> BuildQueryPool(const XKSearch& system,
                                                     const Config& config) {
  QuerySampler sampler(system.index());
  Rng rng(4242);
  std::vector<std::vector<std::string>> usable;
  std::set<std::vector<std::string>> seen;
  for (int attempt = 0; attempt < 64 && usable.size() < config.pool_queries;
       ++attempt) {
    std::vector<std::vector<std::string>> batch = sampler.SampleQueries(
        &rng, config.pool_queries, {20, 400}, /*tolerance=*/0.9);
    for (auto& query : batch) {
      if (query.empty() || usable.size() >= config.pool_queries) continue;
      std::vector<std::string> canonical = query;
      std::sort(canonical.begin(), canonical.end());
      if (seen.insert(std::move(canonical)).second) {
        usable.push_back(std::move(query));
      }
    }
  }
  return usable;
}

Result<std::unique_ptr<XKSearch>> BuildSystem(const Config& config) {
  DblpOptions gen;
  gen.papers = config.papers;
  gen.seed = 1234;
  gen.zipf_exponent = 1.0;
  XKS_ASSIGN_OR_RETURN(Document doc, GenerateDblp(gen));
  return XKSearch::BuildFromDocument(std::move(doc));
}

DiskIndexOptions DiskOptions(const Config& config, bool hot) {
  DiskIndexOptions disk;
  disk.in_memory = true;  // page-identical to files, no FS noise
  disk.pool_shards = config.shards;
  // Hot: oversized pools + WarmCaches below, so everything is resident.
  disk.scan_pool_pages = hot ? 1 << 20 : config.cold_pool_pages;
  return disk;
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
    } else if (const char* v = value("--workers=")) {
      config.workers = ParseList(v);
    } else if (const char* v = value("--pool-queries=")) {
      config.pool_queries = ParseU64(v);
    } else if (const char* v = value("--duration-ms=")) {
      config.duration_ms = ParseU64(v);
    } else if (const char* v = value("--warmup-ms=")) {
      config.warmup_ms = ParseU64(v);
    } else if (const char* v = value("--cold-pool-pages=")) {
      config.cold_pool_pages = ParseU64(v);
    } else if (const char* v = value("--shards=")) {
      config.shards = ParseU64(v);
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nflags: --papers= --workers=l "
                   "--pool-queries= --duration-ms= --warmup-ms= "
                   "--cold-pool-pages= --shards=\n",
                   arg);
      return 2;
    }
  }

  std::printf("%6s %8s %10s %8s %12s %12s\n", "regime", "workers", "qps",
              "scaling", "reads/query", "hits/query");
  std::fprintf(stderr, "building index (%zu papers)...\n", config.papers);
  Result<std::unique_ptr<XKSearch>> built = BuildSystem(config);
  if (!built.ok()) {
    std::fprintf(stderr, "build: %s\n", built.status().ToString().c_str());
    return 1;
  }
  const std::vector<std::vector<std::string>> queries =
      BuildQueryPool(**built, config);
  if (queries.empty()) {
    std::fprintf(stderr, "query pool came out empty; enlarge --papers\n");
    return 1;
  }
  for (const bool hot : {true, false}) {
    std::fprintf(stderr, "building %s-cache disk index...\n",
                 hot ? "hot" : "cold");
    Result<std::unique_ptr<DiskSearcher>> disk =
        DiskSearcher::Build(**built, "", DiskOptions(config, hot));
    if (!disk.ok()) {
      std::fprintf(stderr, "build: %s\n", disk.status().ToString().c_str());
      return 1;
    }
    if (hot) {
      const Status warmed = (*disk)->index()->WarmCaches();
      if (!warmed.ok()) {
        std::fprintf(stderr, "warm: %s\n", warmed.ToString().c_str());
        return 1;
      }
    }
    const DiskSearcher& searcher = **disk;

    double base_qps = 0;
    for (const size_t workers : config.workers) {
      const RunResult r = RunOnce(searcher, queries, config, workers);
      if (base_qps == 0) base_qps = r.qps;
      const double per_query = r.ok == 0 ? 0 : 1.0 / static_cast<double>(r.ok);
      std::printf("%6s %8zu %10.0f %7.2fx %12.1f %12.1f\n",
                  hot ? "hot" : "cold", workers, r.qps,
                  base_qps > 0 ? r.qps / base_qps : 0.0,
                  static_cast<double>(r.page_reads) * per_query,
                  static_cast<double>(r.page_hits) * per_query);
      // Machine-readable row for tools/bench_to_csv.py.
      std::printf(
          "{\"bench\":\"parallel_disk\",\"regime\":\"%s\",\"workers\":%zu,"
          "\"shards\":%zu,\"qps\":%.1f,\"qps_scaling\":%.3f,"
          "\"ok\":%" PRIu64 ",\"failed\":%" PRIu64 ",\"page_reads\":%" PRIu64
          ",\"page_hits\":%" PRIu64 "}\n",
          hot ? "hot" : "cold", workers, config.shards, r.qps,
          base_qps > 0 ? r.qps / base_qps : 0.0, r.ok, r.failed, r.page_reads,
          r.page_hits);
      std::fflush(stdout);
      if (r.failed != 0) {
        std::fprintf(stderr, "%" PRIu64 " queries failed\n", r.failed);
        return 1;
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace xksearch

int main(int argc, char** argv) { return xksearch::Main(argc, argv); }
