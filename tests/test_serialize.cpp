#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <sstream>

#include "util/rng.h"

namespace figret::nn {
namespace {

Mlp make_model(OutputActivation act = OutputActivation::kSigmoid) {
  MlpConfig cfg;
  cfg.layer_sizes = {5, 16, 8, 3};
  cfg.output = act;
  cfg.seed = 77;
  return Mlp(cfg);
}

TEST(Serialize, RoundTripPreservesOutputs) {
  const Mlp original = make_model();
  std::stringstream buffer;
  save_mlp(original, buffer);
  const Mlp loaded = load_mlp(buffer);

  EXPECT_EQ(loaded.input_size(), original.input_size());
  EXPECT_EQ(loaded.output_size(), original.output_size());
  EXPECT_EQ(loaded.num_layers(), original.num_layers());
  EXPECT_EQ(loaded.output_activation(), original.output_activation());

  util::Rng rng(3);
  MlpWorkspace ws1, ws2;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> x(original.input_size());
    for (auto& v : x) v = rng.uniform(-2.0, 2.0);
    const auto ya = original.forward(x, ws1);
    const auto yb = loaded.forward(x, ws2);
    for (std::size_t i = 0; i < ya.size(); ++i)
      EXPECT_DOUBLE_EQ(ya[i], yb[i]);
  }
}

TEST(Serialize, RoundTripIdentityActivation) {
  const Mlp original = make_model(OutputActivation::kIdentity);
  std::stringstream buffer;
  save_mlp(original, buffer);
  const Mlp loaded = load_mlp(buffer);
  EXPECT_EQ(loaded.output_activation(), OutputActivation::kIdentity);
}

TEST(Serialize, BadMagicRejected) {
  std::stringstream buffer;
  buffer << "NOPE garbage";
  EXPECT_THROW(load_mlp(buffer), std::runtime_error);
}

TEST(Serialize, TruncatedInputRejected) {
  const Mlp original = make_model();
  std::stringstream buffer;
  save_mlp(original, buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_mlp(truncated), std::runtime_error);
}

TEST(Serialize, EmptyInputRejected) {
  std::stringstream buffer;
  EXPECT_THROW(load_mlp(buffer), std::runtime_error);
}

}  // namespace
}  // namespace figret::nn
