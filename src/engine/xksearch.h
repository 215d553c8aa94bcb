#ifndef XKSEARCH_ENGINE_XKSEARCH_H_
#define XKSEARCH_ENGINE_XKSEARCH_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "dewey/dewey_id.h"
#include "index/inverted_index.h"
#include "engine/search_types.h"
#include "slca/parallel.h"
#include "xml/document.h"
#include "xml/parser.h"

namespace xksearch {

/// \brief The XKSearch system (paper Figure 6) over in-memory lists:
/// document + level table + inverted keyword lists + frequency table +
/// query engine. DiskSearcher::Build writes the disk B+tree for the same
/// index and answers from it; both engines run one execution body.
///
/// Concurrency contract: after Build*, the in-memory structures are
/// immutable and every const member is safe to call from any number of
/// threads without external locking (all per-query scratch state lives in
/// the PreparedQuery built per call).
class XKSearch {
 public:
  struct BuildOptions {
    IndexOptions index;
  };

  /// Parses `xml` and builds the index structures over it.
  static Result<std::unique_ptr<XKSearch>> BuildFromXml(
      std::string_view xml, const BuildOptions& options);
  static Result<std::unique_ptr<XKSearch>> BuildFromXml(std::string_view xml) {
    return BuildFromXml(xml, BuildOptions());
  }

  /// Reads and indexes an XML file.
  static Result<std::unique_ptr<XKSearch>> BuildFromFile(
      const std::string& path, const BuildOptions& options);
  static Result<std::unique_ptr<XKSearch>> BuildFromFile(
      const std::string& path) {
    return BuildFromFile(path, BuildOptions());
  }

  /// Indexes an already-parsed document (takes ownership).
  static Result<std::unique_ptr<XKSearch>> BuildFromDocument(
      Document doc, const BuildOptions& options);
  static Result<std::unique_ptr<XKSearch>> BuildFromDocument(Document doc) {
    return BuildFromDocument(std::move(doc), BuildOptions());
  }

  XKSearch(const XKSearch&) = delete;
  XKSearch& operator=(const XKSearch&) = delete;

  /// Runs a keyword search. Keywords are normalized like document tokens;
  /// a keyword absent from the document yields an empty result. `exec`
  /// splits eager SLCA queries into chunks on its pool; it changes no
  /// answer and no `match_ops` or `results` count.
  Result<SearchResult> Search(const std::vector<std::string>& keywords,
                              const SearchOptions& options = {},
                              const ParallelExecOptions& exec = {}) const;

  /// Streaming variant: results are delivered through `emit` as soon as
  /// they are confirmed (pipelined, per the paper's eager algorithms).
  Result<SearchResult> SearchStreaming(
      const std::vector<std::string>& keywords, const SearchOptions& options,
      const ResultCallback& emit, const ParallelExecOptions& exec = {}) const;

  /// Keyword frequency (0 when absent) from the frequency table.
  uint64_t Frequency(std::string_view keyword) const;

  /// Runs the query and renders a human-readable execution report: the
  /// frequency-ordered keyword lists, the algorithm chosen and why, the
  /// paper's Table 1 analytic cost predictions for this query shape, and
  /// the measured operation counters side by side.
  Result<std::string> Explain(const std::vector<std::string>& keywords,
                              const SearchOptions& options = {}) const;

  /// Serializes the answer subtree rooted at `id`, truncated to at most
  /// `max_bytes` of XML (0 = unlimited). NotFound if no such node.
  Result<std::string> Snippet(const DeweyId& id, size_t max_bytes = 0) const;

  const Document& document() const { return doc_; }
  const InvertedIndex& index() const { return index_; }
  /// The options the index was built with (tokenizer normalization etc.);
  /// callers that pre-normalize keywords (e.g. cache keys) must use these.
  const IndexOptions& index_options() const { return index_options_; }

 private:
  XKSearch(Document doc, InvertedIndex index, IndexOptions index_options)
      : doc_(std::move(doc)),
        index_(std::move(index)),
        index_options_(std::move(index_options)) {}

  Document doc_;
  InvertedIndex index_;
  IndexOptions index_options_;
};

}  // namespace xksearch

#endif  // XKSEARCH_ENGINE_XKSEARCH_H_
