#ifndef FIXTURE_STATE_H_
#define FIXTURE_STATE_H_

#include "util/mutex.h"

namespace subdex {

struct State {
  Mutex mu_;
  Mutex other_{lock_rank::kState};
  Mutex split_
      {"state.split", lock_rank::kState};
  subdex::Mutex qualified_{kStateLockName, lock_rank::kState};
};

}  // namespace subdex

#endif
