// expect-lint: ownership
// Seeded violation: the result stripes belong to the search job, which
// copies each CTA's list into its stripe. A host worker filling the block
// through its iterators is a second writer.
#define ALGAS_OWNED_BY(...)

#include <algorithm>
#include <vector>

struct SearchJob {
  std::vector<int> results_ ALGAS_OWNED_BY(SearchJob);
  void finish(const std::vector<int>& list) {
    std::copy(list.begin(), list.end(), results_.begin());  // the owner
  }
};

struct HostWorker {
  SearchJob* job_ = nullptr;
  void clear() { std::fill(job_->results_.begin(), job_->results_.end(), 0); }
};
