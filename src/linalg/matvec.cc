#include "linalg/matvec.h"

#include <cstddef>

namespace ctbus::linalg {

void MatVec::ApplyBlock(const double* x, int lanes, double* y) const {
  const int n = dim();
  std::vector<double> in(n);
  std::vector<double> out(n);
  for (int b = 0; b < lanes; ++b) {
    for (int i = 0; i < n; ++i) {
      in[i] = x[static_cast<std::size_t>(i) * lanes + b];
    }
    Apply(in, &out);
    for (int i = 0; i < n; ++i) {
      y[static_cast<std::size_t>(i) * lanes + b] = out[i];
    }
  }
}

}  // namespace ctbus::linalg
