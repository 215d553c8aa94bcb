#include "bench_common.h"

#include <cstdio>
#include <cstdlib>

#include "common/rng.h"
#include "gen/dblp_generator.h"

namespace xksearch {
namespace bench {

namespace {

size_t PapersFromEnv() {
  const char* env = std::getenv("XKS_BENCH_PAPERS");
  if (env == nullptr) return 100000;
  const long long v = std::atoll(env);
  return v < 1000 ? 1000 : static_cast<size_t>(v);
}

// How many distinct keywords to plant per frequency class. Rare classes
// get more variants (they are cheap); the 100,000 class costs 200,000
// postings for its two variants alone.
size_t VariantsFor(uint64_t frequency) {
  if (frequency <= 100) return 10;
  if (frequency <= 1000) return 6;
  if (frequency <= 10000) return 5;
  // Figure 9 queries need up to four distinct 100,000-frequency lists.
  return 4;
}

}  // namespace

void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "benchmark setup failed (%s): %s\n", what,
                 status.ToString().c_str());
    std::abort();
  }
}

Corpus& Corpus::Get() {
  static Corpus* corpus = new Corpus();
  return *corpus;
}

Corpus::Corpus() : papers_(PapersFromEnv()) {
  DblpOptions options;
  options.papers = papers_;
  options.venues = 25;
  options.years_per_venue = 20;
  options.seed = 20050614;  // SIGMOD 2005

  for (uint64_t frequency : kFrequencies) {
    const uint64_t effective =
        std::min<uint64_t>(frequency, static_cast<uint64_t>(papers_));
    std::vector<std::string> names;
    for (size_t i = 0; i < VariantsFor(frequency); ++i) {
      std::string name =
          "kwf" + std::to_string(frequency) + "n" + std::to_string(i);
      options.plants.push_back({name, effective});
      names.push_back(std::move(name));
    }
    families_.emplace_back(frequency, std::move(names));
  }

  std::fprintf(stderr, "[bench] generating corpus (%zu papers)...\n",
               papers_);
  Result<Document> doc = GenerateDblp(options);
  CheckOk(doc.status(), "GenerateDblp");

  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(std::move(*doc));
  CheckOk(system.status(), "XKSearch::BuildFromDocument");
  system_ = std::move(*system);
  // Default: MemPageStore (page-count behaviour identical to files, no
  // tmp artifacts). XKS_BENCH_FILES=1 switches to real files so cold-run
  // timings include genuine file reads.
  DiskIndexOptions disk;
  std::string prefix;
  if (std::getenv("XKS_BENCH_FILES") != nullptr) {
    prefix = "/tmp/xks_bench_corpus";
  } else {
    disk.in_memory = true;
  }
  Result<std::unique_ptr<DiskSearcher>> searcher =
      DiskSearcher::Build(*system_, prefix, disk);
  CheckOk(searcher.status(), "DiskSearcher::Build");
  disk_ = std::move(*searcher);
  std::fprintf(
      stderr,
      "[bench] corpus ready: %zu nodes, %zu terms, %llu postings, "
      "scan=%u pages\n",
      system_->document().node_count(), system_->index().term_count(),
      static_cast<unsigned long long>(system_->index().total_postings()),
      disk_->index()->scan_page_count());
}

const std::vector<std::string>& Corpus::KeywordsFor(uint64_t frequency) const {
  for (const auto& [freq, names] : families_) {
    if (freq == frequency) return names;
  }
  std::fprintf(stderr, "no keyword family for frequency %llu\n",
               static_cast<unsigned long long>(frequency));
  std::abort();
}

std::vector<std::vector<std::string>> Corpus::Queries(
    const std::vector<uint64_t>& frequencies, size_t count) const {
  // Deterministic per-shape sampling so every benchmark repetition sees
  // the same workload.
  uint64_t shape_seed = 0x9e3779b9;
  for (uint64_t f : frequencies) shape_seed = shape_seed * 1099511628211ull + f;
  Rng rng(shape_seed);

  std::vector<std::vector<std::string>> queries;
  queries.reserve(count);
  for (size_t q = 0; q < count; ++q) {
    std::vector<std::string> query;
    std::vector<size_t> used_per_family(families_.size(), 0);
    for (uint64_t frequency : frequencies) {
      const std::vector<std::string>& family = KeywordsFor(frequency);
      // Distinct variants within one query (offset walk, random start).
      size_t family_index = 0;
      for (size_t i = 0; i < families_.size(); ++i) {
        if (families_[i].first == frequency) family_index = i;
      }
      const size_t start = rng.Uniform(family.size());
      const size_t pick =
          (start + used_per_family[family_index]) % family.size();
      ++used_per_family[family_index];
      query.push_back(family[pick]);
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

BatchResult RunBatchCold(const DiskSearcher& disk,
                         const std::vector<std::vector<std::string>>& queries,
                         const SearchOptions& options) {
  BatchResult out;
  for (const std::vector<std::string>& query : queries) {
    CheckOk(disk.index()->DropCaches(), "DropCaches");
    Result<SearchResult> result = disk.Search(query, options);
    CheckOk(result.status(), "Search");
    out.stats += result->stats;
    out.total_results += result->nodes.size();
  }
  return out;
}

void WarmUp(const DiskSearcher& disk) {
  CheckOk(disk.index()->WarmCaches(), "WarmCaches");
}

}  // namespace bench
}  // namespace xksearch
