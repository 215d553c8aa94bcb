#include "engine/query_executor.h"

#include <algorithm>
#include <limits>

#include "slca/all_lca.h"
#include "slca/elca.h"
#include "slca/packed_list.h"

namespace xksearch {

namespace {

struct Term {
  std::string keyword;
  uint64_t frequency;
  std::unique_ptr<KeywordList> list;
};

Result<std::vector<std::string>> Normalize(
    const std::vector<std::string>& keywords,
    const TokenizerOptions& tokenizer) {
  if (keywords.empty()) {
    return Status::InvalidArgument("query needs at least one keyword");
  }
  std::vector<std::string> out;
  out.reserve(keywords.size());
  for (const std::string& raw : keywords) {
    std::string kw = NormalizeKeyword(raw, tokenizer);
    if (kw.empty()) {
      return Status::InvalidArgument("keyword '" + raw +
                                     "' has no indexable characters");
    }
    out.push_back(std::move(kw));
  }
  return out;
}

PreparedQuery Assemble(std::vector<Term> terms) {
  std::stable_sort(terms.begin(), terms.end(),
                   [](const Term& a, const Term& b) {
                     return a.frequency < b.frequency;
                   });
  PreparedQuery query;
  query.min_frequency = std::numeric_limits<uint64_t>::max();
  for (Term& term : terms) {
    query.min_frequency = std::min(query.min_frequency, term.frequency);
    query.max_frequency = std::max(query.max_frequency, term.frequency);
    if (term.frequency == 0) query.missing = true;
    query.keywords.push_back(std::move(term.keyword));
    query.lists.push_back(std::move(term.list));
  }
  query.pointers.reserve(query.lists.size());
  for (const auto& list : query.lists) query.pointers.push_back(list.get());
  return query;
}

}  // namespace

Result<PreparedQuery> PrepareQuery(const InvertedIndex& index,
                                   const std::vector<std::string>& keywords,
                                   const TokenizerOptions& tokenizer,
                                   QueryStats* stats) {
  XKS_ASSIGN_OR_RETURN(std::vector<std::string> normalized,
                       Normalize(keywords, tokenizer));
  std::vector<Term> terms;
  for (std::string& kw : normalized) {
    const PackedDeweyList* list = index.Find(kw);
    Term term;
    term.frequency = list == nullptr ? 0 : list->size();
    term.list = list == nullptr
                    ? std::unique_ptr<KeywordList>(new EmptyKeywordList())
                    : std::unique_ptr<KeywordList>(
                          new PackedKeywordList(list, stats));
    term.keyword = std::move(kw);
    terms.push_back(std::move(term));
  }
  return Assemble(std::move(terms));
}

Result<PreparedQuery> PrepareQuery(const DiskIndex& index,
                                   const std::vector<std::string>& keywords,
                                   const TokenizerOptions& tokenizer,
                                   QueryStats* stats) {
  XKS_ASSIGN_OR_RETURN(std::vector<std::string> normalized,
                       Normalize(keywords, tokenizer));
  std::vector<Term> terms;
  for (std::string& kw : normalized) {
    const DiskIndex::TermInfo* info = index.FindTerm(kw);
    Term term;
    term.frequency = info == nullptr ? 0 : info->frequency;
    term.list = info == nullptr
                    ? std::unique_ptr<KeywordList>(new EmptyKeywordList())
                    : std::unique_ptr<KeywordList>(new DiskKeywordList(
                          &index, info->id, info->frequency, stats));
    term.keyword = std::move(kw);
    terms.push_back(std::move(term));
  }
  return Assemble(std::move(terms));
}

Status ExecutePreparedQuery(const PreparedQuery& prepared,
                            const SearchOptions& options,
                            const ParallelExecOptions& exec,
                            const ResultCallback& emit, SearchResult* result) {
  result->keywords = prepared.keywords;
  result->algorithm = ResolveAlgorithmChoice(options, prepared.min_frequency,
                                             prepared.max_frequency);
  // A keyword that occurs nowhere makes the result trivially empty.
  if (prepared.missing) return Status::OK();
  SlcaOptions slca_options;
  slca_options.block_size = options.block_size;
  const std::vector<KeywordList*>& lists = prepared.list_pointers();
  switch (options.semantics) {
    case Semantics::kSlca:
      return ComputeSlcaParallel(result->algorithm, lists, slca_options, exec,
                                 &result->stats, emit);
    case Semantics::kElca:
      return ElcaStack(lists, slca_options, &result->stats, emit);
    case Semantics::kAllLca:
      return FindAllLca(lists, slca_options, &result->stats, emit);
  }
  return Status::OK();
}

Status CollectPreparedQuery(const PreparedQuery& prepared,
                            const SearchOptions& options,
                            const ParallelExecOptions& exec,
                            SearchResult* result) {
  std::vector<DeweyId> nodes;
  XKS_RETURN_NOT_OK(ExecutePreparedQuery(
      prepared, options, exec,
      [&](const DeweyId& id) { nodes.push_back(id); }, result));
  if (options.semantics != Semantics::kSlca) {
    std::sort(nodes.begin(), nodes.end());
  }
  result->nodes = std::move(nodes);
  return Status::OK();
}

}  // namespace xksearch
