#include "util/mutex.h"

namespace subdex {

void Answer(Mutex& mu, int fd) {
  MutexLock lock(mu);
  ::send(fd, "ok", 2, 0);
}

void Drain(Mutex& mu, int fd) {
  MutexLock lock(mu);
  char c;
  ::read(fd, &c, 1);
}

}  // namespace subdex
