#include "connectivity/edge_increment.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>

#include "linalg/lanczos.h"
#include "linalg/matvec.h"

namespace ctbus::connectivity {

namespace {

static_assert(2 * kEdgeTraceNodes == linalg::kLanes,
              "one quadrature lane per (node, polarization probe)");

// A + s_b E restricted to the hop ball of {u, v}, one operator per lane:
// the ball's CSR is shared, and the candidate edge is a tail entry of
// rows u and v whose value depends on the lane. Lane b of ApplyBlock
// accumulates row i's entries in the full matrix's row order and then the
// tail entry, the order SymmetricSparseMatrix::ApplyLanes uses after
// Set(u, v, s_b) appended it; the columns it drops lie outside the ball,
// where every Lanczos vector is exactly zero. Apply is lane 0's operator.
class EdgeBallOperator final : public linalg::MatVec {
 public:
  EdgeBallOperator(const linalg::SymmetricSparseMatrix& a, int u, int v) {
    // Breadth-first search from {u, v}, kEdgeTraceBallHops levels deep.
    std::vector<int> local(a.dim(), -1);
    nodes_ = {u, v};
    local[u] = local[v] = 0;
    std::size_t level_begin = 0;
    for (int hop = 0; hop < kEdgeTraceBallHops; ++hop) {
      const std::size_t level_end = nodes_.size();
      for (std::size_t i = level_begin; i < level_end; ++i) {
        for (const auto& entry : a.Row(nodes_[i])) {
          if (local[entry.col] < 0) {
            local[entry.col] = 0;
            nodes_.push_back(entry.col);
          }
        }
      }
      level_begin = level_end;
    }
    std::sort(nodes_.begin(), nodes_.end());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      local[nodes_[i]] = static_cast<int>(i);
    }
    u_ = local[u];
    v_ = local[v];
    // Only ball nodes carry a local id; entries leaving the ball drop out.
    row_begin_.reserve(nodes_.size() + 1);
    row_begin_.push_back(0);
    for (const int node : nodes_) {
      for (const auto& entry : a.Row(node)) {
        if (local[entry.col] < 0) continue;
        cols_.push_back(local[entry.col]);
        values_.push_back(entry.value);
      }
      row_begin_.push_back(static_cast<int>(cols_.size()));
    }
  }

  int dim() const override { return static_cast<int>(nodes_.size()); }

  // Local ids of the candidate's endpoints.
  int local_u() const { return u_; }
  int local_v() const { return v_; }

  void SetTail(int lane, double value) { tail_[lane] = value; }

  void Apply(const std::vector<double>& x,
             std::vector<double>* y) const override {
    ApplyLanes<1>(x.data(), y->data());
  }

  void ApplyBlock(const double* x, int lanes, double* y) const override {
    assert(lanes == linalg::kLanes);
    (void)lanes;
    ApplyLanes<linalg::kLanes>(x, y);
  }

 private:
  template <int L>
  void ApplyLanes(const double* x, double* y) const {
    const int n = dim();
    for (int i = 0; i < n; ++i) {
      double acc[L] = {};
      for (int k = row_begin_[i]; k < row_begin_[i + 1]; ++k) {
        const double value = values_[k];
        const double* xc = x + static_cast<std::size_t>(cols_[k]) * L;
        for (int b = 0; b < L; ++b) acc[b] += value * xc[b];
      }
      const int other = i == u_ ? v_ : i == v_ ? u_ : -1;
      if (other >= 0) {
        const double* xc = x + static_cast<std::size_t>(other) * L;
        for (int b = 0; b < L; ++b) acc[b] += tail_[b] * xc[b];
      }
      double* yi = y + static_cast<std::size_t>(i) * L;
      for (int b = 0; b < L; ++b) yi[b] = acc[b];
    }
  }

  std::vector<int> nodes_;  // ball members, ascending global id
  std::vector<int> row_begin_;
  std::vector<int> cols_;  // local ids
  std::vector<double> values_;
  int u_ = 0;
  int v_ = 0;
  double tail_[linalg::kLanes] = {};
};

}  // namespace

void EdgeTraceQuadratures(const linalg::SymmetricSparseMatrix& a, int u,
                          int v, double out[2 * kEdgeTraceNodes]) {
  assert(u != v && !a.Contains(u, v));
  EdgeBallOperator ball(a, u, v);
  std::vector<double> probes[linalg::kLanes];
  const int lu = ball.local_u();
  const int lv = ball.local_v();
  for (int i = 0; i < kEdgeTraceNodes; ++i) {
    for (int sign = 0; sign < 2; ++sign) {
      const int lane = 2 * i + sign;
      ball.SetTail(lane, kEdgeTraceNode[i]);
      probes[lane].assign(ball.dim(), 0.0);
      probes[lane][lu] = 1.0;
      probes[lane][lv] = sign == 0 ? 1.0 : -1.0;
    }
  }
  linalg::LanczosExpQuadratureLanes(ball, probes, linalg::kLanes,
                                    kEdgeTraceLanczosSteps, out);
}

double EdgeTraceIncrement(const linalg::SymmetricSparseMatrix& a, int u,
                          int v) {
  if (a.Contains(u, v)) return 0.0;
  double quad[2 * kEdgeTraceNodes];
  EdgeTraceQuadratures(a, u, v, quad);
  double trace_increment = 0.0;
  for (int i = 0; i < kEdgeTraceNodes; ++i) {
    trace_increment += 0.25 * (quad[2 * i] - quad[2 * i + 1]);
  }
  return trace_increment;
}

double IncrementFromTrace(double trace_increment, double base_trace) {
  return std::max(0.0, std::log1p(trace_increment / base_trace));
}

double RebaseIncrement(double increment, double from_trace,
                       double to_trace) {
  return std::max(0.0,
                  std::log1p(std::expm1(increment) * from_trace / to_trace));
}

double EdgeIncrement(linalg::SymmetricSparseMatrix* base, double base_lambda,
                     const ConnectivityEstimator& estimator, int u, int v) {
  if (base->Contains(u, v)) return 0.0;
  base->Set(u, v, 1.0);
  const double lambda_after = estimator.Estimate(*base);
  base->Remove(u, v);
  return lambda_after - base_lambda;
}

std::vector<double> ComputeEdgeIncrements(
    linalg::SymmetricSparseMatrix* base,
    const ConnectivityEstimator& estimator,
    const std::vector<std::pair<int, int>>& stop_pairs) {
  const double base_lambda = estimator.Estimate(*base);
  std::vector<double> increments;
  increments.reserve(stop_pairs.size());
  for (const auto& [u, v] : stop_pairs) {
    increments.push_back(EdgeIncrement(base, base_lambda, estimator, u, v));
  }
  return increments;
}

double EdgeSetIncrement(linalg::SymmetricSparseMatrix* base,
                        double base_lambda,
                        const ConnectivityEstimator& estimator,
                        const std::vector<std::pair<int, int>>& stop_pairs) {
  std::vector<std::pair<int, int>> added;
  added.reserve(stop_pairs.size());
  for (const auto& [u, v] : stop_pairs) {
    if (!base->Contains(u, v)) {
      base->Set(u, v, 1.0);
      added.emplace_back(u, v);
    }
  }
  const double lambda_after = estimator.Estimate(*base);
  for (const auto& [u, v] : added) base->Remove(u, v);
  return lambda_after - base_lambda;
}

}  // namespace ctbus::connectivity
