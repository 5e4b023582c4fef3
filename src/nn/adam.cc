#include "nn/adam.h"

#include <cmath>

#include "util/check.h"

namespace lmkg::nn {

Adam::Adam(std::vector<ParamRef> params, float lr, float beta1, float beta2,
           float epsilon)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {
  for (const ParamRef& p : params_) {
    LMKG_CHECK(p.value != nullptr && p.grad != nullptr);
    LMKG_CHECK_EQ(p.value->size(), p.grad->size());
  }
}

void Adam::Step() {
  // The moments start at zero on the first step, so a model that is only
  // loaded and served (a replica) never allocates them.
  if (m_.empty()) {
    m_.reserve(params_.size());
    v_.reserve(params_.size());
    for (const ParamRef& p : params_) {
      m_.emplace_back(p.value->size(), 0.0f);
      v_.emplace_back(p.value->size(), 0.0f);
    }
  }
  ++t_;
  const float bias1 =
      1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bias2 =
      1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    float* w = params_[i].value->data();
    const float* g = params_[i].grad->data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const size_t n = params_[i].value->size();
    for (size_t j = 0; j < n; ++j) {
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * g[j];
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * g[j] * g[j];
      float mhat = m[j] / bias1;
      float vhat = v[j] / bias2;
      w[j] -= lr_ * mhat / (std::sqrt(vhat) + epsilon_);
    }
  }
}

double ClipGradientNorm(const std::vector<ParamRef>& params,
                        double max_norm) {
  LMKG_CHECK_GT(max_norm, 0.0);
  double sq = 0.0;
  for (const ParamRef& p : params) {
    const float* g = p.grad->data();
    for (size_t j = 0; j < p.grad->size(); ++j)
      sq += static_cast<double>(g[j]) * g[j];
  }
  double norm = std::sqrt(sq);
  if (norm > max_norm) {
    float scale = static_cast<float>(max_norm / norm);
    for (const ParamRef& p : params) {
      float* g = p.grad->data();
      for (size_t j = 0; j < p.grad->size(); ++j) g[j] *= scale;
    }
  }
  return norm;
}

}  // namespace lmkg::nn
