#include "core/lmkg_s.h"

#include <algorithm>
#include <numeric>
#include <ostream>

#include "nn/loss.h"
#include "nn/serialize.h"
#include "util/check.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace lmkg::core {

LmkgS::LmkgS(std::unique_ptr<encoding::QueryEncoder> encoder,
             const LmkgSConfig& config)
    : LmkgS(std::move(encoder), config, /*mapped=*/false) {}

LmkgS::LmkgS(std::unique_ptr<encoding::QueryEncoder> encoder,
             const LmkgSConfig& config, bool mapped)
    : encoder_(std::move(encoder)), config_(config), mapped_(mapped) {
  LMKG_CHECK(encoder_ != nullptr);
  LMKG_CHECK_GE(config_.num_hidden_layers, 1);
  BuildNetwork();
}

std::unique_ptr<LmkgS> LmkgS::CreateMapped(
    std::unique_ptr<encoding::QueryEncoder> encoder,
    const LmkgSConfig& config) {
  return std::unique_ptr<LmkgS>(
      new LmkgS(std::move(encoder), config, /*mapped=*/true));
}

void LmkgS::BuildNetwork() {
  // The mapped stack keeps the exact layer sequence of the trained one
  // (including Dropout, identity at inference) so the forward pass — and
  // therefore every estimate — is bit-identical to the model the segment
  // was written from.
  util::Pcg32 rng(config_.seed, /*stream=*/0x57f);
  size_t in_dim = encoder_->width();
  for (int layer = 0; layer < config_.num_hidden_layers; ++layer) {
    net_.Add(mapped_ ? std::make_unique<nn::Dense>(nn::kNoInit)
                     : std::make_unique<nn::Dense>(in_dim,
                                                   config_.hidden_dim, rng));
    net_.Add(std::make_unique<nn::Relu>());
    if (config_.dropout > 0.0)
      net_.Add(std::make_unique<nn::Dropout>(config_.dropout,
                                             config_.seed + layer + 1));
    in_dim = config_.hidden_dim;
  }
  net_.Add(mapped_ ? std::make_unique<nn::Dense>(nn::kNoInit)
                   : std::make_unique<nn::Dense>(in_dim, 1, rng));
  net_.Add(std::make_unique<nn::Sigmoid>());
  if (!mapped_)
    optimizer_ = std::make_unique<nn::Adam>(net_.Params(),
                                            config_.learning_rate);
}

std::vector<nn::ConstMatrixView> LmkgS::ParamViews() {
  LMKG_CHECK(trained_) << "LMKG-S ParamViews before weights exist";
  std::vector<nn::ConstMatrixView> views;
  for (const nn::ParamRef& p : net_.Params()) {
    const nn::Matrix& m = *p.value;
    views.push_back({m.data(), m.rows(), m.cols()});
  }
  return views;
}

std::vector<std::pair<size_t, size_t>> LmkgS::ExpectedParamShapes() const {
  std::vector<std::pair<size_t, size_t>> shapes;
  size_t in_dim = encoder_->width();
  for (int layer = 0; layer < config_.num_hidden_layers; ++layer) {
    shapes.emplace_back(in_dim, config_.hidden_dim);  // W
    shapes.emplace_back(size_t{1}, config_.hidden_dim);  // b
    in_dim = config_.hidden_dim;
  }
  shapes.emplace_back(in_dim, size_t{1});
  shapes.emplace_back(size_t{1}, size_t{1});
  return shapes;
}

util::Status LmkgS::AttachWeights(
    std::span<const nn::ConstMatrixView> views, double log_min,
    double log_max) {
  LMKG_CHECK(mapped_) << "AttachWeights on a trained LMKG-S";
  const auto shapes = ExpectedParamShapes();
  if (views.size() != shapes.size())
    return util::Status::Error(util::StrFormat(
        "lmkg-s attach: tensor count mismatch (segment %zu, model %zu)",
        views.size(), shapes.size()));
  for (size_t i = 0; i < views.size(); ++i) {
    if (views[i].rows != shapes[i].first ||
        views[i].cols != shapes[i].second)
      return util::Status::Error(util::StrFormat(
          "lmkg-s attach: tensor %zu shape mismatch (segment %zux%zu, "
          "model %zux%zu)",
          i, views[i].rows, views[i].cols, shapes[i].first,
          shapes[i].second));
  }
  auto params = net_.Params();
  LMKG_CHECK_EQ(params.size(), views.size());
  for (size_t i = 0; i < views.size(); ++i)
    params[i].value->BorrowConst(views[i]);
  scaler_.Restore(log_min, log_max);
  trained_ = true;
  return util::Status::Ok();
}

void LmkgS::WarmUp() {
  LMKG_CHECK(trained_) << "LMKG-S WarmUp before weights exist";
  input_buffer_.ResizeZeroed(1, encoder_->width());
  net_.Forward(input_buffer_, /*training=*/false);
  sparse_input_buffer_.Clear(encoder_->width());
  sparse_input_buffer_.row_begin.push_back(0);  // one all-zero row
  net_.ForwardSparseInput(sparse_input_buffer_);
}

LmkgS::TrainStats LmkgS::Train(
    const std::vector<sampling::LabeledQuery>& data,
    const EpochCallback& callback) {
  LMKG_CHECK(!data.empty()) << "LMKG-S requires training data";
  LMKG_CHECK(optimizer_ != nullptr)
      << "LMKG-S Train on a mapped (serve-only) model";
  util::Stopwatch timer;

  // Fit the label scaler once, on the first training call.
  if (!scaler_.fitted()) {
    std::vector<double> cards;
    cards.reserve(data.size());
    for (const auto& lq : data) cards.push_back(lq.cardinality);
    scaler_.Fit(cards);
  }
  const double log_range = scaler_.log_max() - scaler_.log_min();

  // Queries are encoded batch by batch, so training memory does not grow
  // with the training set (a pre-encoded set is data.size() x width).
  const size_t width = encoder_->width();
  std::vector<float> labels(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    LMKG_CHECK(encoder_->CanEncode(data[i].query))
        << "training query not encodable: "
        << query::QueryToString(data[i].query);
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
        encoder_->Encode(data[order[start + i]].query, batch_x.row(i));
        batch_y[i] = labels[order[start + i]];
      }
      const nn::Matrix& pred = net_.Forward(batch_x, /*training=*/true);
      double loss =
          config_.loss == LossKind::kQError
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

double LmkgS::EstimateCardinality(const query::Query& q) {
  double estimate = 0.0;
  EstimateCardinalityBatch({&q, 1}, {&estimate, 1});
  return estimate;
}

void LmkgS::EstimateCardinalityBatch(std::span<const query::Query> queries,
                                     std::span<double> out) {
  LMKG_CHECK_EQ(queries.size(), out.size());
  if (queries.empty()) return;
  LMKG_CHECK(trained_) << "LMKG-S estimate before Train";
  // Prefer the sparse input path: the 0/1 encodings hand their nonzero
  // columns straight to the first Dense layer — no dense zero-fill, no
  // per-row zero scan — with bit-identical results (see nn::SparseRows).
  auto encode = [&] {
    const bool sparse =
        encoder_->EncodeBatchSparse(queries, &sparse_input_buffer_);
    if (!sparse) encoder_->EncodeBatch(queries, &input_buffer_);
    return sparse;
  };
  auto forward = [&](bool sparse) -> const nn::Matrix& {
    return sparse ? net_.ForwardSparseInput(sparse_input_buffer_)
                  : net_.Forward(input_buffer_, /*training=*/false);
  };
  const nn::Matrix* pred;
  if (collect_stage_stats_) {
    util::Stopwatch timer;
    const bool sparse = encode();
    stage_stats_.encode_seconds += timer.ElapsedSeconds();
    timer.Restart();
    pred = &forward(sparse);
    stage_stats_.forward_seconds += timer.ElapsedSeconds();
    stage_stats_.batches += 1;
    stage_stats_.queries += queries.size();
  } else {
    // No stopwatch here: the clock reads are measurable at batch 1.
    pred = &forward(encode());
  }
  for (size_t i = 0; i < queries.size(); ++i)
    out[i] = scaler_.Unscale(pred->at(i, 0));
}

bool LmkgS::CanEstimate(const query::Query& q) const {
  return encoder_->CanEncode(q);
}

std::string LmkgS::name() const { return "LMKG-S"; }

util::Status LmkgS::Save(std::ostream& out) {
  LMKG_CHECK(trained_) << "LMKG-S Save before Train";
  double header[2] = {scaler_.log_min(), scaler_.log_max()};
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  return nn::SaveParams(net_.Params(), out);
}

util::Status LmkgS::Load(std::istream& in) {
  LMKG_CHECK(!mapped_)
      << "LMKG-S Load on a mapped model (weights are read-only borrows)";
  double header[2] = {0.0, 0.0};
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (!in) return util::Status::Error("lmkg-s: truncated scaler header");
  util::Status status = nn::LoadParams(net_.Params(), in);
  if (!status.ok()) return status;
  scaler_.Restore(header[0], header[1]);
  trained_ = true;
  return util::Status::Ok();
}

size_t LmkgS::MemoryBytes() const {
  // Model parameters dominate; the scaler adds two doubles.
  return net_.ParamBytes() + sizeof(util::LogMinMaxScaler);
}

}  // namespace lmkg::core
