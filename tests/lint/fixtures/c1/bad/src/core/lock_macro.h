#ifndef FIXTURE_LOCK_MACRO_H_
#define FIXTURE_LOCK_MACRO_H_

#include <mutex>

// A macro body is code too: the guard it expands to is a raw primitive.
#define FIXTURE_SCOPED_LOCK(mu) \
  std::unique_lock<std::mutex> fixture_lock_(mu)

#endif
