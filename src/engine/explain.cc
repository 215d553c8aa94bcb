#include <sstream>

#include "engine/query_executor.h"
#include "engine/xksearch.h"

namespace xksearch {

Result<std::string> XKSearch::Explain(const std::vector<std::string>& keywords,
                                      const SearchOptions& options) const {
  XKS_ASSIGN_OR_RETURN(const SearchResult result, Search(keywords, options));

  // Re-derive the ordered frequencies for the report.
  std::vector<uint64_t> freqs;
  for (const std::string& kw : result.keywords) {
    freqs.push_back(index_.Frequency(kw));
  }
  const size_t k = freqs.size();
  const uint64_t s1 = freqs.empty() ? 0 : freqs.front();
  const uint64_t smax = freqs.empty() ? 0 : freqs.back();
  uint64_t sum = 0;
  for (uint64_t f : freqs) sum += f;
  const size_t depth = index_.level_table().depth();

  std::ostringstream os;
  os << "query:";
  for (size_t i = 0; i < result.keywords.size(); ++i) {
    os << " " << result.keywords[i] << "(|S" << i + 1 << "|=" << freqs[i]
       << ")";
  }
  os << "\nsemantics: "
     << (options.semantics == Semantics::kSlca
             ? "SLCA"
             : options.semantics == Semantics::kElca ? "ELCA (XRANK)"
                                                     : "All-LCA (Section 5)")
     << "\nstorage: memory (packed lists)"
     << "\nalgorithm: " << ToString(result.algorithm);
  if (options.algorithm == AlgorithmChoice::kAuto) {
    os << " (auto: max/min frequency ratio "
       << (s1 == 0 ? 0.0
                   : static_cast<double>(smax) / static_cast<double>(s1))
       << (result.algorithm == SlcaAlgorithm::kIndexedLookupEager ? " >= "
                                                                  : " < ")
       << options.auto_ratio_threshold << ")";
  }
  os << "\nmax tree depth d: " << depth;

  // Table 1 predictions for the chosen algorithm and this query shape.
  os << "\npredicted (Table 1):";
  if (result.algorithm == SlcaAlgorithm::kStack) {
    os << " merge of all lists, postings = sum|Si| = " << sum;
  } else {
    os << " match_ops = 2(k-1)|S1| = " << 2 * (k > 0 ? k - 1 : 0) * s1;
    if (result.algorithm == SlcaAlgorithm::kScanEager) {
      os << ", postings <= |S1| + sum|Si| = " << s1 + sum;
    } else {
      os << ", postings <= |S1| + match_ops = "
         << s1 + 2 * (k > 0 ? k - 1 : 0) * s1;
    }
  }
  os << "\nmeasured: " << result.stats.ToString();
  os << "\nresults: " << result.nodes.size() << "\n";
  return os.str();
}

}  // namespace xksearch
