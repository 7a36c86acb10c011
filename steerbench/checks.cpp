#include "checks.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>

namespace steerbench {

namespace {
/// splitmix64's finalizer: derives the monitor words from (seed, step, value).
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t bits_of(double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

std::string describe_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}
}  // namespace

std::array<double, kMonitorWords> monitor_payload(std::uint64_t seed,
                                                  std::uint64_t step,
                                                  double value) {
  std::array<double, kMonitorWords> words{};
  words[0] = static_cast<double>(step);
  words[1] = value;
  std::uint64_t h = mix64(seed ^ mix64(step) ^ bits_of(value));
  for (std::size_t i = 2; i < kMonitorWords; ++i) {
    h = mix64(h + i);
    words[i] = static_cast<double>(h >> 11) * 0x1.0p-53;
  }
  return words;
}

std::string check_monitor(std::uint64_t seed, std::uint64_t step,
                          const std::vector<double>& got) {
  if (got.size() != kMonitorWords) {
    return "monitor sample has " + std::to_string(got.size()) + " words";
  }
  if (got[0] != static_cast<double>(step)) {
    return "monitor sample for step " + describe_value(got[0]) +
           " arrived where step " + std::to_string(step) + " was due";
  }
  const auto want = monitor_payload(seed, step, got[1]);
  for (std::size_t i = 0; i < kMonitorWords; ++i) {
    if (got[i] != want[i]) {
      return "monitor sample of step " + std::to_string(step) + " word " +
             std::to_string(i) + " differs from its recomputation";
    }
  }
  return {};
}

std::string check_field(std::uint64_t step, const std::vector<float>& source,
                        const std::vector<float>& got) {
  if (got.size() != source.size()) {
    return "field sample of step " + std::to_string(step) + " has " +
           std::to_string(got.size()) + " values, source has " +
           std::to_string(source.size());
  }
  if (got.empty() || got[0] != static_cast<float>(step)) {
    return "field sample does not carry step " + std::to_string(step);
  }
  if (std::memcmp(got.data() + 1, source.data() + 1,
                  (source.size() - 1) * sizeof(float)) != 0) {
    return "field sample of step " + std::to_string(step) +
           " differs from the source field";
  }
  return {};
}

void SteerOrder::steered(std::uint64_t step, double value) {
  has_pending_ = true;
  pending_ = value;
  pending_step_ = step;
}

std::string SteerOrder::applied(std::uint64_t step, double value,
                                bool& first_seen) {
  first_seen = false;
  if (has_pending_ && value == pending_) {
    if (step > pending_step_ + 2) {
      return "value steered at step " + std::to_string(pending_step_) +
             " first applied at step " + std::to_string(step);
    }
    current_ = pending_;
    has_pending_ = false;
    first_seen = true;
    return {};
  }
  if (value != current_) {
    return "step " + std::to_string(step) + " applied " +
           describe_value(value) + ", which the master never steered then";
  }
  if (has_pending_ && step >= pending_step_ + 2) {
    return "value steered at step " + std::to_string(pending_step_) +
           " still not applied at step " + std::to_string(step);
  }
  return {};
}

std::string SteerOrder::finish() const {
  if (has_pending_) {
    return "value steered at step " + std::to_string(pending_step_) +
           " never applied";
  }
  return {};
}

std::string check_mux_counters(const MuxCounters& got,
                               std::uint64_t samples_sent,
                               std::uint64_t viewers,
                               std::uint64_t steers_sent) {
  if (got.frames_published != samples_sent) {
    return "frames_published " + std::to_string(got.frames_published) +
           " != samples sent " + std::to_string(samples_sent);
  }
  if (got.frames_delivered != samples_sent * viewers) {
    return "frames_delivered " + std::to_string(got.frames_delivered) +
           " != " + std::to_string(samples_sent) + " samples x " +
           std::to_string(viewers) + " viewers";
  }
  if (got.steers_accepted != steers_sent || got.steers_rejected != 0) {
    return "mux_steers_accepted " + std::to_string(got.steers_accepted) +
           " (rejected " + std::to_string(got.steers_rejected) +
           ") != steers sent " + std::to_string(steers_sent);
  }
  if (got.queue_drops != 0) {
    return "queue_drops " + std::to_string(got.queue_drops) + " != 0";
  }
  return {};
}

std::string check_readback(double written, const std::string& got) {
  char* end = nullptr;
  const double value = std::strtod(got.c_str(), &end);
  if (end == got.c_str() || std::fabs(value - written) > 5e-7) {
    return "get-param read '" + got + "' after set-param wrote " +
           describe_value(written);
  }
  return {};
}

std::string check_coupling(const std::vector<double>& set_values,
                           const std::vector<double>& applied_values) {
  std::size_t next = 0;  // first set value the next applied one may match
  for (double applied : applied_values) {
    while (next < set_values.size() && set_values[next] != applied) ++next;
    if (next == set_values.size()) {
      return "simulation applied coupling " + describe_value(applied) +
             ", never set (or set before a later applied value)";
    }
    ++next;
  }
  if (!set_values.empty() &&
      (applied_values.empty() || applied_values.back() != set_values.back())) {
    return "simulation never reached the last set coupling " +
           describe_value(set_values.back());
  }
  return {};
}

std::string check_mass(double a_before, double b_before, double a_after,
                       double b_after) {
  const auto drift = [](double before, double after) {
    return std::fabs(after - before) / std::fabs(before);
  };
  if (!(drift(a_before, a_after) < 1e-9) || !(drift(b_before, b_after) < 1e-9)) {
    return "LBM mass not conserved: a " + describe_value(a_before) + " -> " +
           describe_value(a_after) + ", b " + describe_value(b_before) +
           " -> " + describe_value(b_after);
  }
  return {};
}

void stamp_frame(cs::viz::Image& frame, std::uint64_t index) {
  auto& px = frame.pixels();
  for (int p = 0; p < 3; ++p) {
    auto byte = [&](int i) {
      return i < 8 ? static_cast<std::uint8_t>(index >> (8 * (7 - i)))
                   : std::uint8_t{0xa5};
    };
    px[static_cast<std::size_t>(p)] =
        cs::viz::Color{byte(3 * p), byte(3 * p + 1), byte(3 * p + 2)};
  }
}

std::string check_frame(const cs::viz::Image& source, std::uint64_t index,
                        const cs::viz::Image& got) {
  if (got.width() != source.width() || got.height() != source.height()) {
    return "frame " + std::to_string(index) + " decoded as " +
           std::to_string(got.width()) + "x" + std::to_string(got.height());
  }
  cs::viz::Image want = source;
  stamp_frame(want, index);
  if (std::memcmp(got.pixels().data(), want.pixels().data(),
                  want.pixels().size() * sizeof(cs::viz::Color)) != 0) {
    return "frame " + std::to_string(index) +
           " is not pixel-exact to its source";
  }
  return {};
}

std::string check_zero_drops(std::uint64_t relay_dropped,
                             std::uint64_t host_dropped) {
  if (relay_dropped != 0 || host_dropped != 0) {
    return "bridge dropped frames: relay " + std::to_string(relay_dropped) +
           ", hosted " + std::to_string(host_dropped);
  }
  return {};
}

int self_test(std::string& why) {
  int checks = 0;
  const auto expect = [&](const char* name, const std::string& good,
                          const std::string& bad) {
    ++checks;
    if (!good.empty()) {
      why = std::string(name) + " rejected a good output: " + good;
      return false;
    }
    if (bad.empty()) {
      why = std::string(name) + " accepted a corrupted output";
      return false;
    }
    return true;
  };

  const auto words = monitor_payload(7, 42, 3.25);
  std::vector<double> monitor(words.begin(), words.end());
  std::vector<double> bad_monitor = monitor;
  bad_monitor[5] += 1e-12;
  if (!expect("check_monitor", check_monitor(7, 42, monitor),
              check_monitor(7, 42, bad_monitor))) {
    return -1;
  }

  std::vector<float> source{9.f, 0.5f, -0.25f, 0.125f};
  std::vector<float> field = source;
  field[0] = 16.f;
  std::vector<float> bad_field = field;
  bad_field[2] = 0.f;
  if (!expect("check_field", check_field(16, source, field),
              check_field(16, source, bad_field))) {
    return -1;
  }

  bool first = false;
  SteerOrder order(1.0);
  order.steered(4, 2.0);
  std::string good = order.applied(5, 1.0, first);
  if (good.empty()) good = order.applied(6, 2.0, first);
  if (good.empty()) good = order.finish();
  SteerOrder late(1.0);
  late.steered(4, 2.0);
  std::string bad = late.applied(5, 1.0, first);
  if (bad.empty()) bad = late.applied(6, 1.0, first);
  if (bad.empty()) bad = late.applied(7, 2.0, first);
  if (!expect("SteerOrder", good, bad)) return -1;
  SteerOrder stray(1.0);
  if (!expect("SteerOrder(unsteered value)", SteerOrder(1.0).finish(),
              stray.applied(1, 1.5, first))) {
    return -1;
  }

  const MuxCounters counters{10, 30, 3, 0, 0};
  MuxCounters lost = counters;
  lost.frames_delivered = 29;
  if (!expect("check_mux_counters", check_mux_counters(counters, 10, 3, 3),
              check_mux_counters(lost, 10, 3, 3))) {
    return -1;
  }

  if (!expect("check_readback", check_readback(0.4375, "0.437500"),
              check_readback(0.4375, "0.437400"))) {
    return -1;
  }

  if (!expect("check_coupling",
              check_coupling({0.1, 0.2, 0.3}, {0.1, 0.3}),
              check_coupling({0.1, 0.2, 0.3}, {0.2, 0.1, 0.3}))) {
    return -1;
  }

  if (!expect("check_mass", check_mass(100.0, 50.0, 100.0, 50.0),
              check_mass(100.0, 50.0, 100.0 + 1e-6, 50.0))) {
    return -1;
  }

  cs::viz::Image image(8, 4, cs::viz::Color{10, 20, 30});
  image.at(5, 2) = cs::viz::Color{200, 0, 0};
  cs::viz::Image sent = image;
  stamp_frame(sent, 77);
  cs::viz::Image bad_image = sent;
  bad_image.at(6, 3).g ^= 1;
  if (!expect("check_frame", check_frame(image, 77, sent),
              check_frame(image, 77, bad_image))) {
    return -1;
  }

  if (!expect("check_zero_drops", check_zero_drops(0, 0),
              check_zero_drops(0, 1))) {
    return -1;
  }
  return checks;
}

}  // namespace steerbench
