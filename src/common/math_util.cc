#include "common/math_util.h"

#include <cassert>

#include "common/vec_math.h"

namespace pme {

double SafeExp(double x) {
  if (x > 708.0) x = 708.0;
  if (x < -708.0) x = -708.0;
  return std::exp(x);
}

double XLogX(double x) {
  if (x <= 0.0) return 0.0;
  return x * std::log(x);
}

double Entropy(const std::vector<double>& p) {
  return kernels::NegXLogXSum(p);
}

double KlDivergence(const std::vector<double>& p, const std::vector<double>& q,
                    double q_floor) {
  assert(p.size() == q.size());
  return KlDivergence(p.data(), q.data(), p.size(), q_floor);
}

double KlDivergence(const double* p, const double* q, size_t n,
                    double q_floor) {
  // Fused vector pass: p/max(q, floor), batched ln, masked accumulate —
  // one sweep instead of n scalar std::log calls.
  return kernels::KlDivergence(kernels::ConstSpan(p, n),
                               kernels::ConstSpan(q, n), q_floor);
}

}  // namespace pme
