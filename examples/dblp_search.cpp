// A laptop-scale stand-in for the paper's DBLP demo: generates a
// DBLP-shaped corpus with keywords planted at controlled frequencies,
// builds the two disk B+tree layouts, and answers keyword queries with
// the algorithm the frequency table recommends.
//
// Usage: dblp_search [papers] [keyword keyword ...]
//   papers   corpus size (default 20000)
//   keywords query to run (default: a skewed and a balanced query)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "engine/xksearch.h"
#include "gen/dblp_generator.h"

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void RunQuery(const xksearch::XKSearch& system,
              const std::vector<std::string>& keywords, bool use_disk) {
  xksearch::SearchOptions options;
  options.use_disk_index = use_disk;
  std::string shown;
  for (const std::string& kw : keywords) shown += kw + " ";

  const Clock::time_point start = Clock::now();
  xksearch::Result<xksearch::SearchResult> result =
      system.Search(keywords, options);
  const double elapsed = MillisSince(start);
  if (!result.ok()) {
    std::fprintf(stderr, "query '%s' failed: %s\n", shown.c_str(),
                 result.status().ToString().c_str());
    return;
  }
  std::printf("query { %s} via %s (%s): %zu answers in %.2f ms\n",
              shown.c_str(), ToString(result->algorithm).c_str(),
              use_disk ? "disk" : "memory", result->nodes.size(), elapsed);
  std::printf("  %s\n", result->stats.ToString().c_str());
  const size_t show = std::min<size_t>(result->nodes.size(), 3);
  for (size_t i = 0; i < show; ++i) {
    xksearch::Result<std::string> snippet =
        system.Snippet(result->nodes[i], 160);
    std::printf("  [%s] %s\n", result->nodes[i].ToString().c_str(),
                snippet.ok() ? snippet->c_str() : "<error>");
  }
  if (result->nodes.size() > show) {
    std::printf("  ... %zu more\n", result->nodes.size() - show);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xksearch;  // NOLINT: example brevity

  const size_t papers =
      argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 20000;

  // Plant keywords at the frequency classes the paper's experiments use.
  DblpOptions gen;
  gen.papers = papers;
  gen.plants = {
      {"xanadu", std::min<uint64_t>(10, papers)},      // rare
      {"quorum", std::min<uint64_t>(1000, papers)},    // medium
      {"zeppelin", std::min<uint64_t>(papers / 2, papers)},  // frequent
  };
  std::printf("generating DBLP-shaped corpus with %zu papers...\n", papers);
  Result<Document> doc = GenerateDblp(gen);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 1;
  }

  XKSearch::BuildOptions build;
  build.build_disk_index = true;
  build.disk.in_memory = true;  // page-level behaviour without tmp files
  const Clock::time_point start = Clock::now();
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(std::move(*doc), build);
  if (!system.ok()) {
    std::fprintf(stderr, "%s\n", system.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "indexed %zu nodes, %zu terms, %llu postings in %.0f ms "
      "(scan=%u pages)\n\n",
      (*system)->document().node_count(), (*system)->index().term_count(),
      static_cast<unsigned long long>((*system)->index().total_postings()),
      MillisSince(start), (*system)->disk_index()->scan_page_count());

  if (argc > 2) {
    std::vector<std::string> keywords(argv + 2, argv + argc);
    RunQuery(**system, keywords, /*use_disk=*/false);
    RunQuery(**system, keywords, /*use_disk=*/true);
    return 0;
  }

  // Skewed frequencies: the Indexed Lookup Eager algorithm shines.
  RunQuery(**system, {"xanadu", "zeppelin"}, /*use_disk=*/false);
  RunQuery(**system, {"xanadu", "zeppelin"}, /*use_disk=*/true);
  // Similar frequencies: the engine switches to Scan Eager.
  RunQuery(**system, {"quorum", "xanadu", "zeppelin"}, /*use_disk=*/false);
  RunQuery(**system, {"zeppelin", "quorum"}, /*use_disk=*/false);
  return 0;
}
