// Closed-loop load generator for the serving layer: N client threads
// drive QueryService with Zipf-distributed queries (real keyword traffic
// is Zipf-shaped, so the result cache absorbs the head while the worker
// pool absorbs the tail) and we report throughput + tail latency as the
// worker count sweeps.
//
// Unlike the figure benches this is a standalone binary, not a
// google-benchmark harness: a load generator needs its own clients,
// warmup and per-request latency capture. Results go to stdout as a
// human-readable table plus one JSON object per configuration, which
// tools/bench_to_csv.py ingests alongside the google-benchmark output.
//
// Two regimes are swept by default:
//   io_floor_us=0    pure in-memory engine; on a single hardware thread
//                    this is CPU-bound and workers cannot help.
//   io_floor_us=200  each cache miss additionally waits 200us in the
//                    worker (QueryServiceOptions::synthetic_backend_latency),
//                    emulating a cold-cache storage tier; the pool
//                    overlaps those stalls, so throughput scales with
//                    workers even on one core.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/xksearch.h"
#include "gen/dblp_generator.h"
#include "gen/query_sampler.h"
#include "serve/query_service.h"

namespace xksearch {
namespace {

using Clock = std::chrono::steady_clock;

struct Config {
  size_t papers = 20000;
  size_t clients = 16;
  std::vector<size_t> workers = {1, 2, 4, 8};
  std::vector<uint64_t> io_floor_us = {0, 200};
  // A pool much larger than the cache budget: the Zipf head stays hot
  // (cache hits) while the tail keeps evicting, so steady state always
  // has a miss stream for the worker pool to absorb. A pool that fits
  // in cache entirely would measure nothing but the submit thread.
  size_t pool_queries = 4096;
  double zipf_s = 0.9;
  size_t duration_ms = 1500;
  // Long enough for the cache head to reach steady state even with one
  // worker, where the miss path fills the cache slowly.
  size_t warmup_ms = 1000;
  size_t queue_capacity = 4096;
  // Small enough that the Zipf tail keeps evicting at steady state (the
  // head stays resident); with the whole pool cached the run would
  // converge to 100% hits and measure only the submit thread.
  size_t cache_mb = 2;
  bool enable_cache = true;
};

/// Inverse-CDF sampler over ranks 1..n with weight 1/rank^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  size_t Sample(Rng* rng) const {
    const double u = rng->UniformDouble();
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct RunResult {
  uint64_t ok = 0;
  uint64_t rejected = 0;
  uint64_t failed = 0;
  double qps = 0;
  double hit_ratio = 0;
  uint64_t p50_us = 0;
  uint64_t p95_us = 0;
  uint64_t p99_us = 0;
};

uint64_t PercentileUs(std::vector<uint64_t>* nanos, double p) {
  if (nanos->empty()) return 0;
  const size_t idx = std::min(
      nanos->size() - 1,
      static_cast<size_t>(p * static_cast<double>(nanos->size())));
  std::nth_element(nanos->begin(), nanos->begin() + idx, nanos->end());
  return (*nanos)[idx] / 1000;
}

struct RunParams {
  size_t workers = 1;
  uint64_t io_floor_us = 0;
  size_t clients = 16;
};

RunResult RunOnce(const XKSearch& system,
                  const std::vector<std::vector<std::string>>& queries,
                  const Config& config, const RunParams& params) {
  serve::QueryServiceOptions options;
  options.pool.workers = params.workers;
  options.pool.queue_capacity = config.queue_capacity;
  options.cache.capacity_bytes = config.cache_mb << 20;
  options.enable_cache = config.enable_cache;
  options.synthetic_backend_latency =
      std::chrono::microseconds(params.io_floor_us);
  serve::QueryService service(&system, options);

  const ZipfSampler zipf(queries.size(), config.zipf_s);
  std::atomic<bool> warming{true};
  std::atomic<bool> running{true};
  struct ClientState {
    uint64_t ok = 0;
    uint64_t rejected = 0;
    uint64_t failed = 0;
    std::vector<uint64_t> latencies_ns;
  };
  std::vector<ClientState> states(params.clients);

  std::vector<std::thread> clients;
  clients.reserve(params.clients);
  for (size_t c = 0; c < params.clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(0x5eed + c * 977 + params.workers * 31 + params.io_floor_us);
      ClientState& state = states[c];
      state.latencies_ns.reserve(1 << 16);
      while (running.load(std::memory_order_relaxed)) {
        const std::vector<std::string>& query = queries[zipf.Sample(&rng)];
        const Clock::time_point start = Clock::now();
        const Result<serve::QueryResponse> response = service.Search(query);
        const Clock::time_point end = Clock::now();
        const bool measured = !warming.load(std::memory_order_relaxed);
        if (response.ok()) {
          if (measured) {
            ++state.ok;
            state.latencies_ns.push_back(static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                                     start)
                    .count()));
          }
        } else if (response.status().IsUnavailable()) {
          if (measured) ++state.rejected;
          std::this_thread::yield();  // back off instead of hammering
        } else if (measured) {
          ++state.failed;
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(config.warmup_ms));
  const auto cache_before = service.cache_stats();
  warming.store(false, std::memory_order_relaxed);
  const Clock::time_point measure_start = Clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(config.duration_ms));
  running.store(false, std::memory_order_relaxed);
  const Clock::time_point measure_end = Clock::now();
  for (std::thread& client : clients) client.join();
  const auto cache_after = service.cache_stats();

  RunResult result;
  std::vector<uint64_t> latencies;
  for (const ClientState& state : states) {
    result.ok += state.ok;
    result.rejected += state.rejected;
    result.failed += state.failed;
    latencies.insert(latencies.end(), state.latencies_ns.begin(),
                     state.latencies_ns.end());
  }
  const double seconds =
      std::chrono::duration<double>(measure_end - measure_start).count();
  result.qps = seconds > 0 ? static_cast<double>(result.ok) / seconds : 0;
  const uint64_t hits = cache_after.hits - cache_before.hits;
  const uint64_t misses = cache_after.misses - cache_before.misses;
  result.hit_ratio =
      hits + misses == 0
          ? 0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
  result.p50_us = PercentileUs(&latencies, 0.50);
  result.p95_us = PercentileUs(&latencies, 0.95);
  result.p99_us = PercentileUs(&latencies, 0.99);
  return result;
}

std::vector<std::vector<std::string>> BuildQueryPool(const XKSearch& system,
                                                     const Config& config) {
  QuerySampler sampler(system.index());
  Rng rng(4242);
  // Two-keyword queries with a skewed frequency pair, the paper's core
  // query shape; a wide tolerance keeps the pool diverse. Sample in
  // batches and dedupe (order-insensitively, matching the cache key)
  // until the pool is full of distinct queries — duplicates would alias
  // Zipf ranks and silently inflate the hit ratio.
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

uint64_t ParseU64(const char* text) {
  return static_cast<uint64_t>(std::strtoull(text, nullptr, 10));
}

std::vector<size_t> ParseList(const char* text) {
  std::vector<size_t> out;
  std::string item;
  for (const char* p = text;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!item.empty()) out.push_back(static_cast<size_t>(ParseU64(item.c_str())));
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
    } else if (const char* v = value("--clients=")) {
      config.clients = ParseU64(v);
    } else if (const char* v = value("--workers=")) {
      config.workers = ParseList(v);
    } else if (const char* v = value("--io-floor-us=")) {
      const std::vector<size_t> list = ParseList(v);
      config.io_floor_us.assign(list.begin(), list.end());
    } else if (const char* v = value("--pool-queries=")) {
      config.pool_queries = ParseU64(v);
    } else if (const char* v = value("--zipf-s=")) {
      config.zipf_s = std::atof(v);
    } else if (const char* v = value("--duration-ms=")) {
      config.duration_ms = ParseU64(v);
    } else if (const char* v = value("--warmup-ms=")) {
      config.warmup_ms = ParseU64(v);
    } else if (const char* v = value("--cache-mb=")) {
      config.cache_mb = ParseU64(v);
    } else if (const char* v = value("--queue-capacity=")) {
      config.queue_capacity = ParseU64(v);
    } else if (std::strcmp(arg, "--no-cache") == 0) {
      config.enable_cache = false;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nflags: --papers= --clients= --workers=l "
                   "--io-floor-us=l --pool-queries= --zipf-s= --duration-ms= "
                   "--warmup-ms= --cache-mb= --queue-capacity= --no-cache\n",
                   arg);
      return 2;
    }
  }

  std::fprintf(stderr, "building corpus (%zu papers)...\n", config.papers);
  DblpOptions gen;
  gen.papers = config.papers;
  gen.seed = 1234;
  gen.zipf_exponent = 1.0;
  Result<Document> doc = GenerateDblp(gen);
  if (!doc.ok()) {
    std::fprintf(stderr, "corpus: %s\n", doc.status().ToString().c_str());
    return 1;
  }
  Result<std::unique_ptr<XKSearch>> built =
      XKSearch::BuildFromDocument(std::move(*doc));
  if (!built.ok()) {
    std::fprintf(stderr, "index: %s\n", built.status().ToString().c_str());
    return 1;
  }
  const XKSearch& system = **built;
  const std::vector<std::vector<std::string>> queries =
      BuildQueryPool(system, config);
  if (queries.empty()) {
    std::fprintf(stderr, "query pool came out empty; enlarge --papers\n");
    return 1;
  }
  std::fprintf(stderr, "query pool: %zu queries, zipf_s=%.2f, %zu clients\n",
               queries.size(), config.zipf_s, config.clients);

  std::printf("%8s %12s %10s %8s %9s %9s %9s %10s\n", "workers", "io_floor_us",
              "qps", "hit", "p50_us", "p95_us", "p99_us", "rejected");
  for (const uint64_t io_floor : config.io_floor_us) {
    double base_qps = 0;
    for (const size_t workers : config.workers) {
      RunParams params;
      params.workers = workers;
      params.io_floor_us = io_floor;
      params.clients = config.clients;
      const RunResult r = RunOnce(system, queries, config, params);
      if (base_qps == 0) base_qps = r.qps;
      std::printf("%8zu %12" PRIu64 " %10.0f %7.2f%% %9" PRIu64 " %9" PRIu64
                  " %9" PRIu64 " %10" PRIu64 "  (%.2fx)\n",
                  workers, io_floor, r.qps, 100 * r.hit_ratio, r.p50_us,
                  r.p95_us, r.p99_us, r.rejected,
                  base_qps > 0 ? r.qps / base_qps : 0.0);
      // Machine-readable row for tools/bench_to_csv.py.
      std::printf(
          "{\"bench\":\"serve_throughput\",\"workers\":%zu,"
          "\"io_floor_us\":%" PRIu64 ",\"clients\":%zu,\"qps\":%.1f,"
          "\"hit_ratio\":%.4f,\"p50_us\":%" PRIu64 ",\"p95_us\":%" PRIu64
          ",\"p99_us\":%" PRIu64 ",\"ok\":%" PRIu64 ",\"rejected\":%" PRIu64
          ",\"failed\":%" PRIu64 "}\n",
          workers, io_floor, config.clients, r.qps, r.hit_ratio, r.p50_us,
          r.p95_us, r.p99_us, r.ok, r.rejected, r.failed);
      std::fflush(stdout);
    }
  }
  return 0;
}

}  // namespace
}  // namespace xksearch

int main(int argc, char** argv) { return xksearch::Main(argc, argv); }
