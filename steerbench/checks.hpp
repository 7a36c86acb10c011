// Output checks of the benchmark. Each one either recomputes the expected
// answer apart from the program (payload words from the seed, step and
// value; pixels from the rendered source) or tests a property the method
// must have (steering order, mass conservation, counter reconciliation).
// Every check returns an empty string when the output is right and the
// reason otherwise; self_test() feeds each one a corrupted output and
// confirms it is rejected.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "viz/image.hpp"

namespace steerbench {

/// Words of the steer_session monitor sample: step, applied value, and six
/// words derived from (seed, step, value).
constexpr std::size_t kMonitorWords = 8;
std::array<double, kMonitorWords> monitor_payload(std::uint64_t seed,
                                                  std::uint64_t step,
                                                  double value);
std::string check_monitor(std::uint64_t seed, std::uint64_t step,
                          const std::vector<double>& got);

/// Field samples carry the step in word 0 and the source field after it.
std::string check_field(std::uint64_t step, const std::vector<float>& source,
                        const std::vector<float>& got);

/// Steering order: every applied value is one the master steered, the new
/// value replaces the old one for good, and it appears within two steps of
/// the step that steered it.
class SteerOrder {
 public:
  explicit SteerOrder(double initial) : current_(initial) {}
  void steered(std::uint64_t step, double value);
  /// The value the simulation applied at `step` (steps arrive in order).
  /// Sets `first_seen` when this step is the first to carry a new value.
  std::string applied(std::uint64_t step, double value, bool& first_seen);
  /// Every steer has appeared.
  std::string finish() const;
  std::uint64_t pending_step() const noexcept { return pending_step_; }

 private:
  double current_;
  bool has_pending_ = false;
  double pending_ = 0.0;
  std::uint64_t pending_step_ = 0;
};

/// Multiplexer counters against what the benchmark sent: every published
/// frame reached every viewer, every steer was accepted, nothing dropped.
struct MuxCounters {
  std::uint64_t frames_published = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t steers_accepted = 0;
  std::uint64_t steers_rejected = 0;
  std::uint64_t queue_drops = 0;
};
std::string check_mux_counters(const MuxCounters& got,
                               std::uint64_t samples_sent,
                               std::uint64_t viewers,
                               std::uint64_t steers_sent);

/// A get-param after a set-param reads back the written value.
std::string check_readback(double written, const std::string& got);

/// Applied couplings are set values, in the order they were set (a value
/// overwritten before the simulation synced may be skipped), and the last
/// set value is reached.
std::string check_coupling(const std::vector<double>& set_values,
                           const std::vector<double>& applied_values);

/// Both LBM component masses are conserved to rounding.
std::string check_mass(double a_before, double b_before, double a_after,
                       double b_after);

/// Frames carry their sequence number in the first three pixels.
void stamp_frame(cs::viz::Image& frame, std::uint64_t index);
/// A decoded frame is pixel-exact to its source with the stamp applied.
std::string check_frame(const cs::viz::Image& source, std::uint64_t index,
                        const cs::viz::Image& got);

/// Relay drop counters of one bridge are all zero.
std::string check_zero_drops(std::uint64_t relay_dropped,
                             std::uint64_t host_dropped);

/// Runs every check on one good and one corrupted output. Returns the
/// number of checks exercised, or -1 with `why` set when a check accepted
/// a corrupted output or rejected a good one.
int self_test(std::string& why);

}  // namespace steerbench
