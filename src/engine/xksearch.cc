#include "engine/xksearch.h"

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
  return std::unique_ptr<XKSearch>(
      new XKSearch(std::move(doc), std::move(index), options.index));
}

uint64_t XKSearch::Frequency(std::string_view keyword) const {
  const std::string normalized =
      NormalizeKeyword(keyword, index_options_.tokenizer);
  return index_.Frequency(normalized);
}

Result<SearchResult> XKSearch::Search(const std::vector<std::string>& keywords,
                                      const SearchOptions& options,
                                      const ParallelExecOptions& exec) const {
  SearchResult result;
  XKS_ASSIGN_OR_RETURN(const PreparedQuery prepared,
                       PrepareQuery(index_, keywords,
                                    index_options_.tokenizer, &result.stats));
  XKS_RETURN_NOT_OK(CollectPreparedQuery(prepared, options, exec, &result));
  return result;
}

Result<SearchResult> XKSearch::SearchStreaming(
    const std::vector<std::string>& keywords, const SearchOptions& options,
    const ResultCallback& emit, const ParallelExecOptions& exec) const {
  SearchResult result;
  XKS_ASSIGN_OR_RETURN(const PreparedQuery prepared,
                       PrepareQuery(index_, keywords,
                                    index_options_.tokenizer, &result.stats));
  XKS_RETURN_NOT_OK(
      ExecutePreparedQuery(prepared, options, exec, emit, &result));
  return result;
}

Result<std::string> XKSearch::Snippet(const DeweyId& id,
                                      size_t max_bytes) const {
  return RenderSnippet(doc_, id, max_bytes);
}

}  // namespace xksearch
