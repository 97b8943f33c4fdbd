#include "nn/serialize.h"

#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

namespace figret::nn {
namespace {

constexpr char kMagic[4] = {'F', 'G', 'N', 'N'};
constexpr std::uint32_t kVersion = 1;
/// The output-activation field: 0 names the sigmoid head, the only one.
constexpr std::uint32_t kSigmoidHead = 0;
constexpr std::uint32_t kMaxSizes = 64;
constexpr std::uint64_t kMaxWidth = std::uint64_t{1} << 24;
// A claimed shape's parameter bytes cannot overflow the count below.
static_assert((kMaxSizes - 1) * (kMaxWidth * kMaxWidth + kMaxWidth) <=
              std::numeric_limits<std::uint64_t>::max() / sizeof(double));

void write_u32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void write_doubles(std::ostream& os, std::span<const double> xs) {
  os.write(reinterpret_cast<const char*>(xs.data()),
           static_cast<std::streamsize>(xs.size() * sizeof(double)));
}

std::uint32_t read_u32(std::istream& is) {
  std::uint32_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!is) throw std::runtime_error("load_mlp: truncated input");
  return v;
}
std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!is) throw std::runtime_error("load_mlp: truncated input");
  return v;
}
void read_doubles(std::istream& is, std::span<double> xs) {
  is.read(reinterpret_cast<char*>(xs.data()),
          static_cast<std::streamsize>(xs.size() * sizeof(double)));
  if (!is) throw std::runtime_error("load_mlp: truncated parameters");
}

}  // namespace

void save_mlp(const Mlp& model, std::ostream& os) {
  os.write(kMagic, sizeof kMagic);
  write_u32(os, kVersion);
  const std::size_t layers = model.num_layers();
  write_u32(os, static_cast<std::uint32_t>(layers + 1));
  write_u64(os, model.input_size());
  for (std::size_t l = 0; l < layers; ++l)
    write_u64(os, model.weights()[l].rows());
  write_u32(os, kSigmoidHead);
  for (std::size_t l = 0; l < layers; ++l) {
    write_doubles(os, model.weights()[l].flat());
    write_doubles(os, model.biases()[l]);
  }
  if (!os) throw std::runtime_error("save_mlp: write failure");
}

Mlp load_mlp(std::istream& is) {
  char magic[4] = {};
  is.read(magic, sizeof magic);
  if (!is || std::string(magic, 4) != std::string(kMagic, 4))
    throw std::runtime_error("load_mlp: bad magic");
  const std::uint32_t version = read_u32(is);
  if (version != kVersion)
    throw std::runtime_error("load_mlp: unsupported version");

  const std::uint32_t n_sizes = read_u32(is);
  if (n_sizes < 2 || n_sizes > kMaxSizes)
    throw std::runtime_error("load_mlp: implausible layer count");
  std::uint64_t sizes[kMaxSizes] = {};
  std::uint64_t params = 0;
  for (std::uint32_t i = 0; i < n_sizes; ++i) {
    sizes[i] = read_u64(is);
    if (sizes[i] == 0 || sizes[i] > kMaxWidth)
      throw std::runtime_error("load_mlp: implausible layer size");
    if (i > 0) params += sizes[i] * sizes[i - 1] + sizes[i];
  }
  if (read_u32(is) != kSigmoidHead)
    throw std::runtime_error("load_mlp: bad activation tag");
  // A stream that knows its length must hold every parameter before the
  // model is built: a header alone may claim more than the host can map.
  if (const std::streampos at = is.tellg(); at != std::streampos(-1)) {
    is.seekg(0, std::ios::end);
    const std::streamoff left = is.tellg() - at;
    is.seekg(at);
    if (!is || static_cast<std::uint64_t>(left) < params * sizeof(double))
      throw std::runtime_error("load_mlp: truncated parameters");
  }

  MlpConfig cfg;
  cfg.layer_sizes.assign(sizes, sizes + n_sizes);

  Mlp model(cfg);
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    read_doubles(is, model.weights()[l].flat());
    read_doubles(is, model.biases()[l]);
  }
  return model;
}

}  // namespace figret::nn
