// xk_perfbench: runs one benchmark workload and prints one JSON line.
//
//   xk_perfbench --workload paper_hot --seed 7 --seconds 10 --trace 0
//       --workdir <scratch dir> [--trace-out <spans.jsonl>]
//
// perfbench/run.py builds this binary and turns its line into the
// benchmark's result; see perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench_util.h"
#include "dewey/decode_kernels.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Every per-layer metric; a workload that does not exercise a layer
/// reports it as 0.
const char* const kLayerMetrics[] = {
    "xml.parse_s",
    "index.build_s",
    "storage.build_s",
    "engine.prepare_us",
    "slca.compute_us",
    "engine.search_self_us",
    "dewey.decode_ns_per_posting",
    "slca.match_ops",
    "slca.dewey_comparisons",
    "slca.lca_ops",
    "slca.results",
    "dewey.postings_read",
    "storage.page_reads",
    "storage.page_hits",
    "storage.cold_penalty_us",
    "storage.add_posting_us",
    "storage.commit_ms",
    "storage.reopen_ms",
    "storage.write_bytes_per_posting",
    "storage.write_syscalls_per_batch",
    "serve.cache_hit_ratio",
    "serve.coalesced_ratio",
    "serve.hot_list_hit_ratio",
    "serve.queue_wait_p50_us",
    "serve.queue_wait_p99_us",
    "serve.rejected_ratio",
    "shard.plan_us",
    "shard.search_us",
    "shard.gather_us",
    "shard.executed_per_query",
    "shard.pruned_per_query",
    "shard.straggler_ratio",
};

std::string MapJson(const std::map<std::string, double>& values) {
  JsonObject obj;
  for (const auto& [k, v] : values) obj.Num(k, v);
  return obj.Dump();
}

std::string MapJson(const std::map<std::string, std::vector<double>>& values) {
  JsonObject obj;
  for (const auto& [k, v] : values) {
    std::string list;
    for (double x : v) list += (list.empty() ? "" : ", ") + JsonNumber(x);
    obj.Raw(k, "[" + list + "]");
  }
  return obj.Dump();
}

std::string MapJson(const std::map<std::string, std::string>& values) {
  JsonObject obj;
  for (const auto& [k, v] : values) obj.Str(k, v);
  return obj.Dump();
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "xk_perfbench: %s\nusage: xk_perfbench --workload "
               "paper_hot|paper_cold|serve_zipf|ingest --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--trace-out FILE]\n",
               why);
  std::exit(2);
}

int Main(int argc, char** argv) {
  Args args;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workdir.empty()) Usage("--workdir is required");
  if (args.seconds <= 0) Usage("--seconds must be positive");
  std::filesystem::create_directories(args.workdir);

  RunResult (*run)(const Args&, Tracer*) = nullptr;
  if (args.workload == "paper_hot") run = RunPaperHot;
  if (args.workload == "paper_cold") run = RunPaperCold;
  if (args.workload == "serve_zipf") run = RunServeZipf;
  if (args.workload == "ingest") run = RunIngest;
  if (run == nullptr) Usage("unknown workload");

  RunResult result;
  result.context["decode_kernel"] =
      xksearch::DecodeKernelName(xksearch::ActiveDecodeKernel());
  result.context["nproc"] =
      std::to_string(std::thread::hardware_concurrency());
  result.context["index_filesystem"] = FilesystemType(args.workdir);
  // Workloads that write durably (ingest) replace this.
  result.context["fsync_policy"] = "no durable writes while measuring";
  const double probe_start_ms = HostProbeMs();
  const Clock::time_point start = Clock::now();
  const double steal_start_s = HostStealSeconds();

  Tracer tracer;
  const std::map<std::string, std::string> context = result.context;
  result = run(args, args.trace ? &tracer : nullptr);
  for (const auto& [k, v] : context) result.context.emplace(k, v);

  result.samples["host_probe_start_ms"] = probe_start_ms;
  // Share of the machine's CPU time stolen by the hypervisor during the
  // run: bursts of it are what slows passes down.
  result.samples["host_steal_share"] =
      (HostStealSeconds() - steal_start_s) /
      (SecondsBetween(start, Clock::now()) *
       static_cast<double>(std::thread::hardware_concurrency()));
  // Before the end probe, whose 16 MiB buffer is not the program's.
  result.e2e["peak_rss_mb"] = PeakRssMb();
  result.samples["host_probe_end_ms"] = HostProbeMs();
  result.e2e["fail_ratio"] =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  if (args.trace) {
    // Setup layers, averaged over the setup repetitions.
    result.layers["xml.parse_s"] = tracer.MeanUs("xml.parse") / 1e6;
    result.layers["index.build_s"] = tracer.MeanUs("index.build") / 1e6;
    result.layers["storage.build_s"] = tracer.MeanUs("storage.build") / 1e6;
    for (const char* name : kLayerMetrics) result.layers.emplace(name, 0.0);
    if (!trace_out.empty()) tracer.WriteJsonl(trace_out);
  }

  const std::string line =
      JsonObject()
          .Str("workload", args.workload)
          .Int("seed", args.seed)
          .Bool("trace", args.trace)
          .Int("attempted", result.attempted)
          .Int("failed", result.failed)
          .Raw("e2e", MapJson(result.e2e))
          .Raw("layers", MapJson(result.layers))
          .Raw("traced_e2e", MapJson(result.traced_e2e))
          .Raw("samples", MapJson(result.samples))
          .Raw("series", MapJson(result.series))
          .Raw("context", MapJson(result.context))
          .Dump();
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
