#include "util/mutex.h"

namespace subdex {

struct Outbox {
  static void send(const char* data);
};

void Answer(Mutex& mu, int fd) {
  {
    MutexLock lock(mu);
    // A method named like a syscall is not one.
    Outbox::send(nullptr);
  }
  ::send(fd, "ok", 2, 0);
}

}  // namespace subdex
