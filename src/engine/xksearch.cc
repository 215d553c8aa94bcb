#include "engine/xksearch.h"

#include <algorithm>
#include <fstream>

#include "engine/query_executor.h"
#include "engine/snippet.h"
#include "index/tokenizer.h"

namespace xksearch {

Result<std::unique_ptr<XKSearch>> XKSearch::BuildFromXml(
    std::string_view xml, const BuildOptions& options) {
  XKS_ASSIGN_OR_RETURN(Document doc, ParseXml(xml));
  return BuildFromDocument(std::move(doc), options);
}

Result<std::unique_ptr<XKSearch>> XKSearch::BuildFromFile(
    const std::string& path, const BuildOptions& options) {
  XKS_ASSIGN_OR_RETURN(Document doc, ParseXmlFile(path));
  return BuildFromDocument(std::move(doc), options);
}

Result<std::unique_ptr<XKSearch>> XKSearch::BuildFromDocument(
    Document doc, const BuildOptions& options) {
  InvertedIndex index = InvertedIndex::Build(doc, options.index);
  std::unique_ptr<XKSearch> system(
      new XKSearch(std::move(doc), std::move(index), options.index));
  if (options.build_disk_index) {
    if (!options.disk.in_memory && options.disk_path_prefix.empty()) {
      return Status::InvalidArgument(
          "disk_path_prefix required for a file-backed disk index");
    }
    XKS_ASSIGN_OR_RETURN(
        system->disk_,
        DiskIndex::Build(system->index_, options.disk_path_prefix,
                         options.disk));
    if (options.persist_document) {
      if (options.disk.in_memory) {
        return Status::InvalidArgument(
            "persist_document requires a file-backed disk index");
      }
      std::ofstream out(options.disk_path_prefix + ".xml",
                        std::ios::binary | std::ios::trunc);
      if (!out) {
        return Status::IoError("cannot write " + options.disk_path_prefix +
                               ".xml");
      }
      out << SerializeXml(system->doc_);
      if (!out.good()) {
        return Status::IoError("error writing persisted document");
      }
    }
  }
  return system;
}

uint64_t XKSearch::Frequency(std::string_view keyword) const {
  const std::string normalized =
      NormalizeKeyword(keyword, index_options_.tokenizer);
  return index_.Frequency(normalized);
}

Result<SearchResult> XKSearch::Search(const std::vector<std::string>& keywords,
                                      const SearchOptions& options,
                                      const ParallelExecOptions& exec) const {
  std::vector<DeweyId> nodes;
  XKS_ASSIGN_OR_RETURN(
      SearchResult result,
      SearchStreaming(
          keywords, options,
          [&](const DeweyId& id) { nodes.push_back(id); }, exec));
  if (options.semantics != Semantics::kSlca) {
    // ELCA and All-LCA emission is not in document order; normalize.
    std::sort(nodes.begin(), nodes.end());
  }
  result.nodes = std::move(nodes);
  return result;
}

Result<SearchResult> XKSearch::SearchStreaming(
    const std::vector<std::string>& keywords, const SearchOptions& options,
    const ResultCallback& emit, const ParallelExecOptions& exec) const {
  if (options.use_disk_index && disk_ == nullptr) {
    return Status::InvalidArgument(
        "disk index not built; pass build_disk_index at build time");
  }

  SearchResult result;
  PreparedQuery prepared;
  // Both paths are lock-free per query: the in-memory structures are
  // immutable, and the disk path's sharded buffer pool charges each
  // page access to this query's stats object.
  if (options.use_disk_index) {
    XKS_ASSIGN_OR_RETURN(prepared,
                         PrepareQuery(*disk_, keywords,
                                      index_options_.tokenizer,
                                      &result.stats));
  } else {
    XKS_ASSIGN_OR_RETURN(prepared,
                         PrepareQuery(index_, keywords,
                                      index_options_.tokenizer,
                                      &result.stats));
  }

  result.keywords = prepared.keywords;
  result.algorithm = ResolveAlgorithmChoice(options, prepared.min_frequency,
                                            prepared.max_frequency);
  Status status;
  if (!prepared.missing) {
    // A keyword that occurs nowhere makes the result trivially empty.
    SlcaOptions slca_options;
    slca_options.block_size = options.block_size;
    const std::vector<KeywordList*>& lists = prepared.list_pointers();
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

Result<std::string> XKSearch::Snippet(const DeweyId& id,
                                      size_t max_bytes) const {
  return RenderSnippet(doc_, id, max_bytes);
}

}  // namespace xksearch
