#include "linalg/sparse_matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace ctbus::linalg {
namespace {

// Always-on precondition check of Set. It used to be an assert, which
// compiles out under NDEBUG: a release-mode Set(u, u, w) stored a diagonal
// entry exactly once (breaking the store-twice invariant) and num_entries()
// drifted — silent corruption that ends up inside cached Precompute
// tables. The io/parse layers already throw on malformed input; matrix
// mutation follows the same discipline.
void ValidateOffDiagonal(int u, int v, int dim) {
  if (u == v) {
    throw std::invalid_argument(
        "SymmetricSparseMatrix::Set: diagonal entry (" + std::to_string(u) +
        ", " + std::to_string(v) + ") violates the zero-diagonal invariant");
  }
  if (u < 0 || u >= dim || v < 0 || v >= dim) {
    throw std::out_of_range("SymmetricSparseMatrix::Set: index (" +
                            std::to_string(u) + ", " + std::to_string(v) +
                            ") outside [0, " + std::to_string(dim) + ")");
  }
}

}  // namespace

int SymmetricSparseMatrix::FindInRow(int row, int col) const {
  const auto& entries = rows_[row];
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].col == col) return static_cast<int>(i);
  }
  return -1;
}

void SymmetricSparseMatrix::Set(int u, int v, double value) {
  ValidateOffDiagonal(u, v, dim());
  const int iu = FindInRow(u, v);
  if (iu >= 0) {
    rows_[u][iu].value = value;
    rows_[v][FindInRow(v, u)].value = value;
    return;
  }
  rows_[u].push_back({v, value});
  rows_[v].push_back({u, value});
  ++num_entries_;
}

double SymmetricSparseMatrix::At(int u, int v) const {
  const int iu = FindInRow(u, v);
  return iu < 0 ? 0.0 : rows_[u][iu].value;
}

bool SymmetricSparseMatrix::Contains(int u, int v) const {
  return FindInRow(u, v) >= 0;
}

template <int L>
void SymmetricSparseMatrix::ApplyLanes(const double* x, double* y) const {
  const int n = dim();
  for (int i = 0; i < n; ++i) {
    double acc[L] = {};
    for (const Entry& e : rows_[i]) {
      const double* xc = x + static_cast<std::size_t>(e.col) * L;
      for (int b = 0; b < L; ++b) acc[b] += e.value * xc[b];
    }
    double* yi = y + static_cast<std::size_t>(i) * L;
    for (int b = 0; b < L; ++b) yi[b] = acc[b];
  }
}

void SymmetricSparseMatrix::Apply(const std::vector<double>& x,
                                  std::vector<double>* y) const {
  assert(static_cast<int>(x.size()) == dim());
  assert(static_cast<int>(y->size()) == dim());
  ApplyLanes<1>(x.data(), y->data());
}

void SymmetricSparseMatrix::ApplyBlock(const double* x, int lanes,
                                       double* y) const {
  if (lanes == kLanes) {
    ApplyLanes<kLanes>(x, y);
  } else if (lanes == 1) {
    ApplyLanes<1>(x, y);
  } else {
    MatVec::ApplyBlock(x, lanes, y);
  }
}

double SymmetricSparseMatrix::SpectralNormUpperBound() const {
  double best = 0.0;
  for (const auto& row : rows_) {
    double sum = 0.0;
    for (const Entry& e : row) sum += std::abs(e.value);
    best = std::max(best, sum);
  }
  return best;
}

}  // namespace ctbus::linalg
