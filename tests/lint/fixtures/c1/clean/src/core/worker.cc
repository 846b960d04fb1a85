#include "util/mutex.h"

namespace subdex {

// Prose may name std::mutex and std::lock_guard; only code is checked.
struct Worker {
  Mutex mu_{"worker.state", lock_rank::kWorker};
  subdex::Mutex aux_{"worker.aux", lock_rank::kWorker};
  bool done_ = false;
};

const char* Describe() { return "guarded by a std::mutex underneath"; }

void WaitForDone(Worker& w, std::condition_variable& cv) {
  MutexLock lock(w.mu_);
  while (!w.done_) lock.WaitOnce(cv);
}

}  // namespace subdex
