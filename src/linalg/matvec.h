// Abstract matrix-vector product, the only interface the iterative methods
// (Lanczos, Hutchinson) need. Implemented by SymmetricSparseMatrix and
// DenseMatrix. All operators in this library are symmetric.
#ifndef CTBUS_LINALG_MATVEC_H_
#define CTBUS_LINALG_MATVEC_H_

#include <vector>

namespace ctbus::linalg {

/// A symmetric linear operator R^n -> R^n exposed through y = A x.
class MatVec {
 public:
  virtual ~MatVec() = default;

  /// Dimension n of the operator.
  virtual int dim() const = 0;

  /// Computes y = A x. Requires x.size() == y->size() == dim().
  virtual void Apply(const std::vector<double>& x,
                     std::vector<double>* y) const = 0;
};

}  // namespace ctbus::linalg

#endif  // CTBUS_LINALG_MATVEC_H_
