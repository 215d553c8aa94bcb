#include "engine/query_executor.h"

#include <algorithm>
#include <limits>

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

}  // namespace xksearch
