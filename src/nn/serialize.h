// Model persistence: save/load trained MLPs to a simple versioned binary
// format, so a FIGRET model trained once (paper §6: retraining "does not
// necessarily need to be especially frequent") can be shipped to the TE
// controller without retraining at startup.
//
// Format (little-endian, doubles as IEEE-754):
//   magic "FGNN" | u32 version | u32 num_layers+1 | u64 layer sizes...
//   | u32 output activation (always 0: sigmoid)
//   | per layer: weights (row-major), biases
#pragma once

#include <iosfwd>

#include "nn/mlp.h"

namespace figret::nn {

/// Writes the model's architecture and parameters. Throws std::runtime_error
/// on I/O failure.
void save_mlp(const Mlp& model, std::ostream& os);

/// Reads a model previously written by save_mlp. Throws std::runtime_error
/// on malformed input (bad magic, version or activation tag, or truncation).
/// A stream that can report its length (files, string streams) is checked
/// for every claimed parameter byte before the model is allocated.
Mlp load_mlp(std::istream& is);

}  // namespace figret::nn
