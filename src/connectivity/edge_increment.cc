#include "connectivity/edge_increment.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>

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

// `base` plus unit-weight edges staged at the tails of their rows, without
// writing `base`. SymmetricSparseMatrix sums each row in stored order, and
// Set appends a new entry at its row's tail, so adding the staged pairs'
// terms after base's own product, in staging order, gives the bits of
// Set-then-ApplyBlock for every lane count (the gather/scatter default
// included). Apply is the one-lane case.
class StagedEdgeView final : public linalg::MatVec {
 public:
  explicit StagedEdgeView(const linalg::SymmetricSparseMatrix& base)
      : base_(base) {}

  // Stages {u, v} unless `base` stores it or it is staged already, in
  // either orientation — the pairs Set-then-Contains would skip. Rejects
  // the pairs Set rejects, with the same exceptions.
  void Stage(int u, int v) {
    if (u == v) {
      throw std::invalid_argument("EdgeSetIncrement: diagonal pair (" +
                                  std::to_string(u) + ", " +
                                  std::to_string(v) + ")");
    }
    if (u < 0 || u >= dim() || v < 0 || v >= dim()) {
      throw std::out_of_range("EdgeSetIncrement: pair (" + std::to_string(u) +
                              ", " + std::to_string(v) + ") outside [0, " +
                              std::to_string(dim()) + ")");
    }
    if (base_.Contains(u, v)) return;
    for (const auto& [a, b] : staged_) {
      if ((a == u && b == v) || (a == v && b == u)) return;
    }
    staged_.emplace_back(u, v);
  }

  bool empty() const { return staged_.empty(); }

  int dim() const override { return base_.dim(); }

  void Apply(const std::vector<double>& x,
             std::vector<double>* y) const override {
    ApplyBlock(x.data(), 1, y->data());
  }

  void ApplyBlock(const double* x, int lanes, double* y) const override {
    base_.ApplyBlock(x, lanes, y);
    for (const auto& [u, v] : staged_) {
      const std::size_t ru = static_cast<std::size_t>(u) * lanes;
      const std::size_t rv = static_cast<std::size_t>(v) * lanes;
      for (int b = 0; b < lanes; ++b) {
        y[ru + b] += x[rv + b];
        y[rv + b] += x[ru + b];
      }
    }
  }

 private:
  const linalg::SymmetricSparseMatrix& base_;
  std::vector<std::pair<int, int>> staged_;
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

double EdgeSetIncrement(const linalg::SymmetricSparseMatrix* base,
                        double base_lambda,
                        const ConnectivityEstimator& estimator,
                        const std::vector<std::pair<int, int>>& stop_pairs) {
  StagedEdgeView view(*base);
  for (const auto& [u, v] : stop_pairs) view.Stage(u, v);
  if (view.empty()) return 0.0;
  return estimator.Estimate(view) - base_lambda;
}

double EdgeIncrement(const linalg::SymmetricSparseMatrix* base,
                     double base_lambda, const ConnectivityEstimator& estimator,
                     int u, int v) {
  return EdgeSetIncrement(base, base_lambda, estimator, {{u, v}});
}

}  // namespace ctbus::connectivity
