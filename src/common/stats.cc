#include "common/stats.h"

#include <sstream>

namespace xksearch {

std::string QueryStats::ToString() const {
  std::ostringstream os;
  os << "match_ops=" << match_ops << " dewey_cmp=" << dewey_comparisons
     << " lca_ops=" << lca_ops << " postings=" << postings_read
     << " page_reads=" << page_reads << " page_hits=" << page_hits
     << " io_errors=" << io_errors << " results=" << results;
  return os.str();
}

}  // namespace xksearch
