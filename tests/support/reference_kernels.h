// Pre-optimization kernels: the plain triple loops the tiled/SIMD matrix
// kernels of linalg/matrix.h replaced, the single-sample MLP backward the
// minibatch backward replaced, the path-major edge-load loop the pair-major
// te::edge_loads_into replaced, and the dense serial training loop
// FigretScheme::fit replaced. They are the differential oracles of
// tests/test_kernels.cpp, tests/test_mlp.cpp, tests/test_sparse_demand.cpp
// and tests/test_fit_oracle.cpp and the baseline columns of
// bench_fabric_scale, and are deliberately compiled without ISA clones.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "nn/mlp.h"
#include "te/figret.h"
#include "te/pathset.h"
#include "traffic/demand.h"

namespace figret::linalg {

/// a * b (i-k-j order, skipping zero entries of a).
Matrix matmul_reference(const Matrix& a, const Matrix& b);
/// transpose(a) * b (skipping zero entries of a).
Matrix t_matmul_reference(const Matrix& a, const Matrix& b);
/// a * transpose(b), one single-accumulator dot per element.
Matrix matmul_t_reference(const Matrix& a, const Matrix& b);

}  // namespace figret::linalg

namespace figret::nn {

/// Backpropagates dL/d(output) through the single-row Mlp::forward pass
/// recorded in `ws`, *accumulating* into `grads`: one sample's share of the
/// summed gradients Mlp::backward_batch computes.
void backward_reference(const Mlp& net, std::span<const double> x,
                        const MlpWorkspace& ws,
                        std::span<const double> dl_doutput,
                        MlpGradients& grads);

}  // namespace figret::nn

namespace figret::te {

/// Path-major edge loads: every global path id in order, reading the demand
/// of its pair. Bit-identical to te::edge_loads_into.
void edge_loads_reference_into(const PathSet& ps,
                               const traffic::DemandMatrix& demand,
                               const TeConfig& config,
                               std::vector<double>& out);

}  // namespace figret::te

namespace figret::te {

/// The state a FIGRET, DOTE or TEAL-like fit trains.
struct ReferenceFit {
  double input_scale;
  std::vector<double> pair_weights;
  nn::Mlp model;
  double final_epoch_loss;
};

/// FigretScheme::fit as a dense serial oracle: the same scale, pair weights,
/// initialisation, minibatch order and loss, but every sample's full-width
/// input row, one whole-matrix product per layer (linalg::matmul_t_into,
/// t_matmul_accum and matmul_into over all of their outputs), and an Adam
/// step over every parameter, all on the calling thread — the training loop as it was before
/// the first layer was restricted to active inputs and the minibatch kernels
/// and Adam moved onto the pool.
ReferenceFit figret_fit_reference(const PathSet& ps, const FigretOptions& opt,
                                  const traffic::TrafficTrace& train);

}  // namespace figret::te
