#include "engine/disk_searcher.h"

#include <fstream>

#include "engine/query_executor.h"
#include "engine/snippet.h"
#include "xml/parser.h"

namespace xksearch {

Result<std::unique_ptr<DiskSearcher>> DiskSearcher::Build(
    const XKSearch& engine, const std::string& path_prefix,
    const DiskIndexOptions& options, bool persist_document) {
  if (!options.in_memory && path_prefix.empty()) {
    return Status::InvalidArgument(
        "path_prefix required for a file-backed disk index");
  }
  if (persist_document && options.in_memory) {
    return Status::InvalidArgument(
        "persist_document requires a file-backed disk index");
  }
  XKS_ASSIGN_OR_RETURN(std::unique_ptr<DiskIndex> index,
                       DiskIndex::Build(engine.index(), path_prefix, options));
  auto searcher =
      std::unique_ptr<DiskSearcher>(new DiskSearcher(std::move(index)));
  if (persist_document) {
    std::ofstream out(path_prefix + ".xml", std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot write " + path_prefix + ".xml");
    out << SerializeXml(engine.document());
    if (!out.good()) {
      return Status::IoError("error writing persisted document");
    }
  }
  return searcher;
}

Result<std::unique_ptr<DiskSearcher>> DiskSearcher::Open(
    const std::string& path_prefix, const DiskIndexOptions& options) {
  XKS_ASSIGN_OR_RETURN(std::unique_ptr<DiskIndex> index,
                       DiskIndex::Open(path_prefix, options));
  auto searcher =
      std::unique_ptr<DiskSearcher>(new DiskSearcher(std::move(index)));
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
  SearchResult result;
  // No locking: the sharded buffer pools are thread-safe, and every
  // page access is charged to this query's own stats object.
  XKS_ASSIGN_OR_RETURN(
      const PreparedQuery prepared,
      PrepareQuery(*index_, keywords, tokenizer(), &result.stats));
  XKS_RETURN_NOT_OK(CollectPreparedQuery(prepared, options, exec, &result));
  return result;
}

Result<SearchResult> DiskSearcher::SearchStreaming(
    const std::vector<std::string>& keywords, const SearchOptions& options,
    const ResultCallback& emit, const ParallelExecOptions& exec) const {
  SearchResult result;
  XKS_ASSIGN_OR_RETURN(
      const PreparedQuery prepared,
      PrepareQuery(*index_, keywords, tokenizer(), &result.stats));
  XKS_RETURN_NOT_OK(
      ExecutePreparedQuery(prepared, options, exec, emit, &result));
  return result;
}

uint64_t DiskSearcher::Frequency(std::string_view keyword) const {
  const std::string normalized = NormalizeKeyword(keyword, tokenizer());
  const DiskIndex::TermInfo* info = index_->FindTerm(normalized);
  return info == nullptr ? 0 : info->frequency;
}

}  // namespace xksearch
