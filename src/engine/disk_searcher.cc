#include "engine/disk_searcher.h"

#include <algorithm>

#include "engine/query_executor.h"
#include "engine/snippet.h"
#include "xml/parser.h"

namespace xksearch {

Result<std::unique_ptr<DiskSearcher>> DiskSearcher::Open(
    const std::string& path_prefix, const DiskIndexOptions& options) {
  XKS_ASSIGN_OR_RETURN(std::unique_ptr<DiskIndex> index,
                       DiskIndex::Open(path_prefix, options));
  auto searcher = std::unique_ptr<DiskSearcher>(
      new DiskSearcher(index.get(), index->tokenizer()));
  searcher->owned_index_ = std::move(index);
  // A persisted document (written with persist_document) enables
  // snippets; its absence is not an error.
  Result<Document> doc = ParseXmlFile(path_prefix + ".xml");
  if (doc.ok()) {
    searcher->document_.emplace(doc.MoveValueUnsafe());
  } else if (!doc.status().IsIoError()) {
    return Status::Corruption("persisted document is unreadable: " +
                              doc.status().ToString());
  }
  return searcher;
}

Result<std::string> DiskSearcher::Snippet(const DeweyId& id,
                                          size_t max_bytes) const {
  if (!document_.has_value()) {
    return Status::NotSupported(
        "no persisted document; build the index with persist_document");
  }
  return RenderSnippet(*document_, id, max_bytes);
}

Result<SearchResult> DiskSearcher::Search(
    const std::vector<std::string>& keywords,
    const SearchOptions& options, const ParallelExecOptions& exec) const {
  std::vector<DeweyId> nodes;
  XKS_ASSIGN_OR_RETURN(
      SearchResult result,
      SearchStreaming(
          keywords, options,
          [&](const DeweyId& id) { nodes.push_back(id); }, exec));
  if (options.semantics != Semantics::kSlca) {
    std::sort(nodes.begin(), nodes.end());
  }
  result.nodes = std::move(nodes);
  return result;
}

Result<SearchResult> DiskSearcher::SearchStreaming(
    const std::vector<std::string>& keywords, const SearchOptions& options,
    const ResultCallback& emit, const ParallelExecOptions& exec) const {
  SearchResult result;
  // No locking: the sharded buffer pools are thread-safe, and every
  // page access below is charged to this query's own stats object.
  Result<PreparedQuery> prepared =
      PrepareQuery(*index_, keywords, tokenizer_, &result.stats);
  if (!prepared.ok()) return prepared.status();
  result.keywords = prepared->keywords;

  result.algorithm = ResolveAlgorithmChoice(options, prepared->min_frequency,
                                            prepared->max_frequency);

  Status status;
  if (!prepared->missing) {
    SlcaOptions slca_options;
    slca_options.block_size = options.block_size;
    const std::vector<KeywordList*>& lists = prepared->list_pointers();
    switch (options.semantics) {
      case Semantics::kSlca:
        status = ComputeSlcaParallel(result.algorithm, lists, slca_options,
                                     exec, &result.stats, emit);
        break;
      case Semantics::kElca:
        status = ElcaStack(lists, slca_options, &result.stats, emit);
        break;
      case Semantics::kAllLca:
        status = FindAllLca(lists, slca_options, &result.stats, emit);
        break;
    }
  }
  XKS_RETURN_NOT_OK(status);
  return result;
}

uint64_t DiskSearcher::Frequency(std::string_view keyword) const {
  const std::string normalized = NormalizeKeyword(keyword, tokenizer_);
  const DiskIndex::TermInfo* info = index_->FindTerm(normalized);
  return info == nullptr ? 0 : info->frequency;
}

}  // namespace xksearch
