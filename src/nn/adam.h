#ifndef LMKG_NN_ADAM_H_
#define LMKG_NN_ADAM_H_

#include <vector>

#include "nn/layer.h"

namespace lmkg::nn {

/// Adam optimizer (Kingma & Ba, 2015) over a fixed set of parameters.
/// Gradients are accumulated by the layers; call Step() once per batch,
/// then zero the grads before the next batch.
class Adam {
 public:
  explicit Adam(std::vector<ParamRef> params, float lr = 1e-3f,
                float beta1 = 0.9f, float beta2 = 0.999f,
                float epsilon = 1e-8f);

  void Step();

  void set_learning_rate(float lr) { lr_ = lr; }
  float learning_rate() const { return lr_; }
  int64_t steps() const { return t_; }

 private:
  std::vector<ParamRef> params_;
  // First and second moments, per param; allocated by the first Step.
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
  float lr_, beta1_, beta2_, epsilon_;
  int64_t t_ = 0;
};

/// Scales all gradients so the global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm. Stabilizes the q-error objective, whose
/// gradient is proportional to the (unbounded) q-error itself.
double ClipGradientNorm(const std::vector<ParamRef>& params,
                        double max_norm);

}  // namespace lmkg::nn

#endif  // LMKG_NN_ADAM_H_
