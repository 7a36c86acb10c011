#include "inputs.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "sim/lbm/lbm.hpp"
#include "viz/camera.hpp"
#include "viz/isosurface.hpp"
#include "viz/render.hpp"

namespace steerbench {

std::vector<std::vector<float>> lbm_fields(std::uint64_t seed) {
  cs::lbm::LbmConfig config;
  config.nx = config.ny = config.nz = kFieldEdge;
  config.coupling = 1.6;  // past the demixing threshold: domains form
  config.noise = 0.05;
  config.seed = seed;
  cs::lbm::TwoFluidLbm sim(config);
  std::vector<std::vector<float>> fields;
  for (int i = 0; i < kFieldCount; ++i) {
    for (int s = 0; s < 6; ++s) sim.step();
    fields.push_back(sim.order_parameter());
  }
  return fields;
}

std::vector<cs::viz::Image> render_frames(
    std::uint64_t seed, const std::vector<std::vector<float>>& fields) {
  // The views orbit the lattice at even spacing from a seeded start, so
  // every seed renders the same mix of view angles.
  cs::common::Rng rng(seed ^ 0x6672616d65ULL);
  const double phase = rng.uniform(0.0, 6.283185307179586);
  std::vector<cs::viz::Image> frames;
  for (int i = 0; i < kFrameCount; ++i) {
    const auto& values = fields[static_cast<std::size_t>(i) % fields.size()];
    cs::viz::ScalarField field{kFieldEdge, kFieldEdge, kFieldEdge, values,
                               {-1, -1, -1}, 2.0 / (kFieldEdge - 1)};
    const auto mesh = cs::viz::extract_isosurface(field, 0.0f);
    const double yaw = phase + 6.283185307179586 * i / kFrameCount;
    cs::viz::Camera camera;
    camera.look_at({3.2 * std::cos(yaw), 1.8, 3.2 * std::sin(yaw)}, {0, 0, 0},
                   {0, 1, 0});
    cs::viz::Renderer renderer(kFrameWidth, kFrameHeight);
    renderer.clear();
    renderer.draw_mesh(mesh, camera, {90, 170, 255});
    frames.push_back(renderer.frame());
  }
  return frames;
}

std::vector<double> steer_values(std::uint64_t seed, std::size_t count,
                                 double lo, double hi) {
  cs::common::Rng rng(seed ^ 0x7374656572ULL);
  std::vector<double> out;
  while (out.size() < count) {
    const double v = std::round(rng.uniform(lo, hi) * 1000.0) / 1000.0;
    if (!out.empty() && v == out.back()) continue;
    out.push_back(v);
  }
  return out;
}

}  // namespace steerbench
