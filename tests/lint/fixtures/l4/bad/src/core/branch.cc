#include "util/status.h"

namespace subdex {

int Compute();

#define FIXTURE_DROP(x) (void)(x)

void Branch(bool c) {
  if (c) (void)Compute();
}

int Comma() {
  int x = ((void)Compute(), 1);
  return x;
}

}  // namespace subdex
