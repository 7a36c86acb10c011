// Seeded inputs of the benchmark. Everything stochastic comes from the
// --seed argument; the services under test only ever see what is generated
// here. Generation runs before any service starts and is not part of
// setup_s.
#pragma once

#include <cstdint>
#include <vector>

#include "viz/image.hpp"

namespace steerbench {

/// Edge of the LBM lattice whose order-parameter snapshots feed the field
/// samples (steer_session) and the rendered frames (media_relay).
constexpr int kFieldEdge = 32;
/// Distinct field snapshots / rendered frames.
constexpr int kFieldCount = 4;
constexpr int kFrameCount = 8;
/// CIF, the vic video size of the Access Grid era.
constexpr int kFrameWidth = 352;
constexpr int kFrameHeight = 288;
/// Edge of the lattice the steered LBM runs on in steer_rpc.
constexpr int kRpcLatticeEdge = 16;

/// Order-parameter snapshots of a demixing two-fluid LBM seeded by `seed`.
std::vector<std::vector<float>> lbm_fields(std::uint64_t seed);

/// CIF renderings of the isosurfaces of `fields`, each from a seeded view.
std::vector<cs::viz::Image> render_frames(
    std::uint64_t seed, const std::vector<std::vector<float>>& fields);

/// `count` steering values, three decimals, no two consecutive alike.
std::vector<double> steer_values(std::uint64_t seed, std::size_t count,
                                 double lo, double hi);

}  // namespace steerbench
