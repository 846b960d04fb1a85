#ifndef FIXTURE_STATE_H_
#define FIXTURE_STATE_H_

#include "util/mutex.h"

namespace subdex {

struct State {
  Mutex mu_{"state.main", lock_rank::kState};
  Mutex wide_{"state.wide",
              lock_rank::kState};
  subdex::Mutex qualified_{"state.qualified", lock_rank::kState};
};

void Inspect(Mutex& mu, const Mutex* maybe);

}  // namespace subdex

#endif
