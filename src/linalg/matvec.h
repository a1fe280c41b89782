// Abstract matrix-vector product, the only interface the iterative methods
// (Lanczos, Hutchinson) need. Implemented by SymmetricSparseMatrix and
// DenseMatrix. All operators in this library are symmetric.
//
// Besides the single-vector Apply, operators expose ApplyBlock over a
// lane-interleaved block of vectors: element i of lane b lives at
// [i * lanes + b]. The Lanczos quadrature pushes kLanes Hutchinson probes
// through one pass over the matrix this way. Each lane must accumulate in
// the same order as Apply does, so a block product is bit-identical to
// `lanes` single products; the gain is that the per-element work of the
// lanes forms independent dependency chains instead of one serial chain.
#ifndef CTBUS_LINALG_MATVEC_H_
#define CTBUS_LINALG_MATVEC_H_

#include <vector>

namespace ctbus::linalg {

/// Lanes per interleaved block. Four is the measured sweet spot for the
/// transit adjacency (nnz in the low thousands, resident in cache): enough
/// independent accumulator chains to hide FP-add latency, few enough that
/// a block row still fits one or two cache lines.
inline constexpr int kLanes = 4;

/// A symmetric linear operator R^n -> R^n exposed through y = A x.
class MatVec {
 public:
  virtual ~MatVec() = default;

  /// Dimension n of the operator.
  virtual int dim() const = 0;

  /// Computes y = A x. Requires x.size() == y->size() == dim().
  virtual void Apply(const std::vector<double>& x,
                     std::vector<double>* y) const = 0;

  /// Computes Y = A X for `lanes` vectors stored lane-interleaved (element
  /// i of lane b at [i * lanes + b]); x and y hold dim() * lanes doubles
  /// and must not alias. Every lane of y is bit-identical to Apply on that
  /// lane alone. The default gathers each lane, calls Apply and scatters
  /// the result back — the bitwise reference overrides are tested against.
  virtual void ApplyBlock(const double* x, int lanes, double* y) const;
};

}  // namespace ctbus::linalg

#endif  // CTBUS_LINALG_MATVEC_H_
