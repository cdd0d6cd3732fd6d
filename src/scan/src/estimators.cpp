#include "scan/core/estimators.hpp"

#include <stdexcept>

namespace scan::core {

QueueTimeEstimator::QueueTimeEstimator(std::size_t stages, double alpha) {
  if (stages == 0) {
    throw std::invalid_argument("QueueTimeEstimator: zero stages");
  }
  if (alpha <= 0.0 || alpha > 1.0) {
    throw std::invalid_argument("QueueTimeEstimator: alpha outside (0, 1]");
  }
  ewmas_.assign(stages, Ewma(alpha));
}

void QueueTimeEstimator::Observe(std::size_t stage, SimTime wait) {
  if (stage >= ewmas_.size()) {
    throw std::out_of_range("QueueTimeEstimator::Observe: bad stage");
  }
  ewmas_[stage].Add(wait.value());
}

SimTime QueueTimeEstimator::Estimate(std::size_t stage) const {
  if (stage >= ewmas_.size()) {
    throw std::out_of_range("QueueTimeEstimator::Estimate: bad stage");
  }
  return SimTime{ewmas_[stage].value_or(0.0)};
}

}  // namespace scan::core
