#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "util/rng.h"

namespace figret::nn {
namespace {

Mlp make_model() {
  MlpConfig cfg;
  cfg.layer_sizes = {5, 16, 8, 3};
  cfg.seed = 77;
  return Mlp(cfg);
}

template <typename T>
void put(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

TEST(Serialize, RoundTripPreservesOutputs) {
  const Mlp original = make_model();
  std::stringstream buffer;
  save_mlp(original, buffer);
  const Mlp loaded = load_mlp(buffer);

  EXPECT_EQ(loaded.input_size(), original.input_size());
  EXPECT_EQ(loaded.output_size(), original.output_size());
  EXPECT_EQ(loaded.num_layers(), original.num_layers());
  std::stringstream again;
  save_mlp(loaded, again);
  EXPECT_EQ(again.str(), buffer.str());

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

TEST(Serialize, ActivationTagIsTheSigmoidHeadOnly) {
  std::stringstream buffer;
  save_mlp(make_model(), buffer);
  std::string bytes = buffer.str();
  // magic, version, size count, four u64 sizes, then the u32 tag.
  const std::size_t tag_at = 4 + 4 + 4 + 4 * 8;
  std::uint32_t tag = 1;
  bytes.copy(reinterpret_cast<char*>(&tag), sizeof tag, tag_at);
  EXPECT_EQ(tag, 0u);
  bytes[tag_at] = 1;
  std::stringstream other(bytes);
  EXPECT_THROW(load_mlp(other), std::runtime_error);
}

TEST(Serialize, ClaimedShapeBeyondTheStreamRejectedBeforeAllocation) {
  // A header alone claiming a 2^24 x 2^24 layer: 2 PiB of weights, which no
  // host can allocate, so only a check before the allocation can reject it
  // with the documented error.
  std::string header("FGNN");
  put<std::uint32_t>(header, 1);
  put<std::uint32_t>(header, 3);
  put<std::uint64_t>(header, std::uint64_t{1} << 24);
  put<std::uint64_t>(header, std::uint64_t{1} << 24);
  put<std::uint64_t>(header, 1);
  put<std::uint32_t>(header, 0);
  ASSERT_EQ(header.size(), 40u);
  std::stringstream buffer(header);
  EXPECT_THROW(load_mlp(buffer), std::runtime_error);
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
