// expect-lint: ownership
// Seeded violation: the visited set belongs to the search job, which hands
// its address to each CTA's search. A host worker that hands the address
// out grants a second writer.
#define ALGAS_OWNED_BY(...)

struct StampedSet {};
struct Search {
  void reset(int entry, StampedSet* visited);
};

struct SearchJob {
  StampedSet visited_ ALGAS_OWNED_BY(SearchJob);
  Search cta_;
  void begin() { cta_.reset(0, &visited_); }  // the declared owner
};

struct HostWorker {
  SearchJob* job_ = nullptr;
  Search probe_;
  void peek() { probe_.reset(1, &job_->visited_); }
};
