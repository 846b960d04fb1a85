#include "util/status.h"

namespace subdex {

int Compute();
int Legacy(void);

struct Probe {
  int Get(void) const;
};

int One() {
  auto f = [](void) { return 1; };
  return f();
}

// Keeps the operand parsed without evaluating it (compiled-out check).
#define FIXTURE_DROP(x) (void)(x)

void Branch(bool c) {
  if (c) (void)Compute();  // warm-up call; the value is recomputed later
  // Sequencing only: the first operand runs for its side effect.
  int x = ((void)Compute(), One());
  (void)x;  // read for the debugger
}

}  // namespace subdex
