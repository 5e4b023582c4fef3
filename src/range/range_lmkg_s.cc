#include "range/range_lmkg_s.h"

#include <algorithm>
#include <numeric>

#include "nn/loss.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace lmkg::range {

RangeLmkgS::RangeLmkgS(std::unique_ptr<RangeQueryEncoder> encoder,
                       const core::LmkgSConfig& config)
    : encoder_(std::move(encoder)), config_(config) {
  LMKG_CHECK(encoder_ != nullptr);
  LMKG_CHECK_GE(config_.num_hidden_layers, 1);
  BuildNetwork();
}

void RangeLmkgS::BuildNetwork() {
  util::Pcg32 rng(config_.seed, /*stream=*/0x57f);
  size_t in_dim = encoder_->width();
  for (int layer = 0; layer < config_.num_hidden_layers; ++layer) {
    net_.Add(std::make_unique<nn::Dense>(in_dim, config_.hidden_dim, rng));
    net_.Add(std::make_unique<nn::Relu>());
    if (config_.dropout > 0.0)
      net_.Add(std::make_unique<nn::Dropout>(config_.dropout,
                                             config_.seed + layer + 1));
    in_dim = config_.hidden_dim;
  }
  net_.Add(std::make_unique<nn::Dense>(in_dim, 1, rng));
  net_.Add(std::make_unique<nn::Sigmoid>());
  optimizer_ = std::make_unique<nn::Adam>(net_.Params(),
                                          config_.learning_rate);
}

RangeLmkgS::TrainStats RangeLmkgS::Train(
    const std::vector<LabeledRangeQuery>& data,
    const EpochCallback& callback) {
  LMKG_CHECK(!data.empty()) << "LMKG-S-R requires training data";
  util::Stopwatch timer;

  if (!scaler_.fitted()) {
    std::vector<double> cards;
    cards.reserve(data.size());
    for (const auto& lq : data) cards.push_back(lq.cardinality);
    scaler_.Fit(cards);
  }
  const double log_range = scaler_.log_max() - scaler_.log_min();

  const size_t width = encoder_->width();
  nn::Matrix features(data.size(), width);
  std::vector<float> labels(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    LMKG_CHECK(encoder_->CanEncode(data[i].query))
        << "training query not encodable: "
        << RangeQueryToString(data[i].query);
    encoder_->Encode(data[i].query, features.row(i));
    labels[i] = static_cast<float>(scaler_.Scale(data[i].cardinality));
  }

  std::vector<size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  util::Pcg32 shuffle_rng(config_.seed, /*stream=*/0x5b);

  TrainStats stats;
  stats.examples = data.size();
  nn::Matrix batch_x, dpred;
  std::vector<float> batch_y;
  auto params = net_.Params();
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    shuffle_rng.Shuffle(&order);
    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t start = 0; start < data.size();
         start += config_.batch_size) {
      size_t end = std::min(start + config_.batch_size, data.size());
      size_t bs = end - start;
      batch_x.Resize(bs, width);
      batch_y.resize(bs);
      for (size_t i = 0; i < bs; ++i) {
        const float* src = features.row(order[start + i]);
        std::copy(src, src + width, batch_x.row(i));
        batch_y[i] = labels[order[start + i]];
      }
      const nn::Matrix& pred = net_.Forward(batch_x, /*training=*/true);
      double loss =
          config_.loss == core::LossKind::kQError
              ? nn::QErrorLoss(pred, batch_y, log_range, &dpred)
              : nn::MseLoss(pred, batch_y, &dpred);
      net_.ZeroGrad();
      net_.Backward(dpred);
      nn::ClipGradientNorm(params, config_.grad_clip_norm);
      optimizer_->Step();
      epoch_loss += loss;
      ++batches;
    }
    double mean_loss = epoch_loss / std::max<size_t>(batches, 1);
    stats.epoch_losses.push_back(mean_loss);
    trained_ = true;
    if (callback) callback(epoch + 1, mean_loss);
  }
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

double RangeLmkgS::EstimateCardinality(const RangeQuery& q) {
  LMKG_CHECK(trained_) << "LMKG-S-R estimate before Train";
  LMKG_CHECK(CanEstimate(q)) << RangeQueryToString(q);
  input_buffer_.Resize(1, encoder_->width());
  encoder_->Encode(q, input_buffer_.row(0));
  const nn::Matrix& out = net_.Forward(input_buffer_, /*training=*/false);
  return scaler_.Unscale(out.at(0, 0));
}

bool RangeLmkgS::CanEstimate(const RangeQuery& q) const {
  return encoder_->CanEncode(q);
}

size_t RangeLmkgS::MemoryBytes() const {
  return net_.ParamBytes() + sizeof(util::LogMinMaxScaler);
}

}  // namespace lmkg::range
