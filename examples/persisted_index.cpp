// Persisted-index workflow: build the on-disk B+tree index once, then
// answer queries in a later "session" from the files alone — the way the
// paper's XKSearch server runs, where the B-trees live in Berkeley DB
// files and only the frequency table is loaded at startup.
//
// Usage: persisted_index [index_dir]

#include <cstdio>
#include <string>

#include "engine/disk_searcher.h"
#include "engine/xksearch.h"
#include "gen/dblp_generator.h"

int main(int argc, char** argv) {
  using namespace xksearch;  // NOLINT: example brevity

  const std::string prefix =
      std::string(argc > 1 ? argv[1] : "/tmp") + "/xks_demo_index";

  // ---- Session 1: parse, index, persist, exit. ----
  {
    DblpOptions gen;
    gen.papers = 5000;
    gen.plants = {{"needle", 5}, {"haystack", 2500}};
    Result<Document> doc = GenerateDblp(gen);
    if (!doc.ok()) {
      std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
      return 1;
    }
    XKSearch::BuildOptions build;
    build.build_disk_index = true;
    build.disk_path_prefix = prefix;
    build.persist_document = true;  // enables snippets in later sessions
    Result<std::unique_ptr<XKSearch>> system =
        XKSearch::BuildFromDocument(std::move(*doc), build);
    if (!system.ok()) {
      std::fprintf(stderr, "%s\n", system.status().ToString().c_str());
      return 1;
    }
    std::printf("session 1: indexed %zu nodes into %s.{scan,dict}\n",
                (*system)->document().node_count(), prefix.c_str());
  }  // everything in memory is gone here

  // ---- Session 2: reopen the files, query without the document. ----
  Result<std::unique_ptr<DiskSearcher>> searcher = DiskSearcher::Open(prefix);
  if (!searcher.ok()) {
    std::fprintf(stderr, "%s\n", searcher.status().ToString().c_str());
    return 1;
  }
  std::printf("session 2: reopened index (needle=%llu haystack=%llu)\n",
              static_cast<unsigned long long>((*searcher)->Frequency("needle")),
              static_cast<unsigned long long>(
                  (*searcher)->Frequency("haystack")));

  Result<SearchResult> result = (*searcher)->Search({"needle", "haystack"});
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("query {needle, haystack} via %s: %zu answers, %s\n",
              ToString(result->algorithm).c_str(), result->nodes.size(),
              result->stats.ToString().c_str());
  for (const DeweyId& node : result->nodes) {
    Result<std::string> snippet = (*searcher)->Snippet(node, 120);
    std::printf("  [%s] %s\n", node.ToString().c_str(),
                snippet.ok() ? snippet->c_str() : "<no snippet>");
  }
  searcher->reset();  // close the files before updating them

  // ---- Session 3: incremental maintenance, no rebuild. ----
  {
    Result<std::unique_ptr<DiskIndexUpdater>> updater =
        DiskIndexUpdater::Open(prefix);
    if (!updater.ok()) {
      std::fprintf(stderr, "%s\n", updater.status().ToString().c_str());
      return 1;
    }
    // A document edit added "needle" to the first venue's first paper
    // title (its text node is 0.0.1.0.0.0).
    Result<DeweyId> node = DeweyId::Parse("0.0.1.0.0.0");
    Status st = (*updater)->AddPosting("needle", *node);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    st = (*updater)->Finish();
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("session 3: added one 'needle' posting in place\n");
  }

  Result<std::unique_ptr<DiskSearcher>> again = DiskSearcher::Open(prefix);
  if (!again.ok()) {
    std::fprintf(stderr, "%s\n", again.status().ToString().c_str());
    return 1;
  }
  Result<SearchResult> updated = (*again)->Search({"needle", "haystack"});
  if (!updated.ok()) {
    std::fprintf(stderr, "%s\n", updated.status().ToString().c_str());
    return 1;
  }
  std::printf("after update: %zu answers (needle frequency now %llu)\n",
              updated->nodes.size(),
              static_cast<unsigned long long>((*again)->Frequency("needle")));
  // The persisted document makes the answers renderable too.
  if (!updated->nodes.empty()) {
    Result<std::string> snippet = (*again)->Snippet(updated->nodes[0], 160);
    std::printf("first answer: %s\n",
                snippet.ok() ? snippet->c_str() : "<no snippet>");
  }
  return 0;
}
