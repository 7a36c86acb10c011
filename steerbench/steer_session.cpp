// steer_session: the VISIT collaborative loop over TCP loopback.
//
// One visit::Multiplexer, one SimClient and three ViewerClients; viewer 0
// holds the master role. One driver thread keeps one step in flight: the
// simulation pulls the steered value, emits a monitor sample carrying the
// step and that value (plus a precomputed LBM field every 16th step), the
// master steers a new value every 8th step, and every viewer drains each
// sample before the next step starts.
#include <array>
#include <memory>

#include "bench.hpp"
#include "checks.hpp"
#include "common/clock.hpp"
#include "inputs.hpp"
#include "net/tcp.hpp"
#include "obs/registry.hpp"
#include "visit/client.hpp"
#include "visit/multiplexer.hpp"
#include "visit/viewer.hpp"
#include "wire/message.hpp"

namespace steerbench {

namespace {
using namespace std::chrono_literals;
using cs::common::Deadline;

constexpr std::uint32_t kTagParam = 1;
constexpr std::uint32_t kTagMonitor = 2;
constexpr std::uint32_t kTagField = 3;
constexpr std::size_t kViewers = 3;
constexpr std::uint64_t kRoundSteps = 16;  // a field every 16th step
constexpr std::uint64_t kSteerEvery = 8;   // a steer every 8th step
constexpr std::uint64_t kSteerPhase = 4;   // ... at step 8k+4
constexpr int kSetupCycles = 15;
constexpr auto kOpTimeout = 2s;
const char* const kPassword = "steerbench";

struct Session {
  std::unique_ptr<cs::visit::Multiplexer> mux;
  cs::visit::SimClient sim;
  std::vector<cs::visit::ViewerClient> viewers;

  void close() {
    sim.disconnect();
    for (auto& viewer : viewers) viewer.disconnect();
    viewers.clear();
    if (mux) mux->stop();
    mux.reset();
  }
};

std::uint64_t counter(const cs::obs::Snapshot& snap, const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

const cs::common::Histogram* timer(const cs::obs::Snapshot& snap,
                                   const std::string& name) {
  for (const auto& t : snap.timers) {
    if (t.name == name) return &t.hist;
  }
  return nullptr;
}

/// Mean of a registry timer in microseconds. The mean, not a bucketed
/// percentile: the registry's histogram buckets are ~1.6 % wide, so its
/// p50 repeats digit for digit from run to run.
double timer_mean_us(const cs::obs::Snapshot& snap, const std::string& name) {
  const auto* hist = timer(snap, name);
  return hist ? hist->mean() / 1000.0 : 0.0;
}

double gauge(const cs::obs::Snapshot& snap, const std::string& name) {
  for (const auto& g : snap.gauges) {
    if (g.name == name) return g.value;
  }
  return 0.0;
}

/// Next event of `viewer`, which must be a data sample tagged `tag`,
/// decoded into the viewer's representation.
template <typename T>
cs::common::Result<std::vector<T>> receive(cs::visit::ViewerClient& viewer,
                                           std::uint32_t tag) {
  auto event = viewer.poll(Deadline::after(kOpTimeout));
  if (!event.is_ok()) return event.status();
  if (event.value().kind != cs::visit::ViewerClient::Event::Kind::kData ||
      event.value().tag != tag) {
    return cs::common::Status{cs::common::StatusCode::kProtocolError,
                              "unexpected viewer event, tag " +
                                  std::to_string(event.value().tag)};
  }
  return viewer.extract<T>(event.value());
}

std::uint64_t client_bytes(const Session& s) {
  std::uint64_t total = 0;
  const auto add = [&](const cs::net::ConnStats& st) {
    total += st.bytes_sent + st.bytes_received;
  };
  add(s.sim.stats());
  for (const auto& viewer : s.viewers) add(viewer.stats());
  return total;
}
}  // namespace

RunResult run_steer_session(const Args& args) {
  RunResult result;
  const auto fields = lbm_fields(args.seed);
  const auto values = steer_values(args.seed, 1 << 18, 0.5, 4.0);
  // Field samples go out from these buffers; word 0 is overwritten with the
  // step before each send, the rest is the source field.
  auto field_bufs = fields;

  cs::net::TcpNetwork tcp;
  Session session;
  std::uint64_t samples_sent = 0;
  std::uint64_t steers_sent = 0;

  const auto setup = [&]() -> double {
    samples_sent = 0;
    steers_sent = 0;
    const std::uint64_t t0 = now_ns();
    cs::visit::Multiplexer::Options options;
    options.sim_address = "0";
    options.viewer_address = "0";
    options.password = kPassword;
    auto mux = cs::visit::Multiplexer::start(tcp, options);
    if (!mux.is_ok()) return -1.0;
    session.mux = std::move(mux).value();
    for (std::size_t i = 0; i < kViewers; ++i) {
      auto viewer = cs::visit::ViewerClient::connect(
          tcp, {session.mux->viewer_address(), kPassword, kOpTimeout},
          Deadline::after(kOpTimeout));
      if (!viewer.is_ok()) return -1.0;
      session.viewers.push_back(std::move(viewer).value());
      // Readiness: the role notice. Viewer 0 is the first in, the master.
      auto role = session.viewers.back().poll(Deadline::after(kOpTimeout));
      const char* want = i == 0 ? "master" : "viewer";
      if (!role.is_ok() ||
          role.value().kind != cs::visit::ViewerClient::Event::Kind::kRole ||
          role.value().role != want) {
        return -1.0;
      }
    }
    if (!wait_until(
            [&] {
              return session.mux->stats().event_host.hosted == kViewers;
            },
            2000ms)) {
      return -1.0;
    }
    auto sim = cs::visit::SimClient::connect(
        tcp, {session.mux->sim_address(), kPassword, kOpTimeout},
        Deadline::after(kOpTimeout));
    if (!sim.is_ok()) return -1.0;
    session.sim = std::move(sim).value();
    if (!session.viewers[0]
             .steer(kTagParam, std::vector<double>{values[0]})
             .is_ok()) {
      return -1.0;
    }
    ++steers_sent;
    // First op at every participant: the simulation reads the master's
    // value, and every viewer holds the step-0 sample carrying it.
    bool applied = false;
    if (!wait_until(
            [&] {
              auto v = session.sim.request<double>(kTagParam);
              applied = v.is_ok() && v.value().size() == 1 &&
                        v.value()[0] == values[0];
              return applied;
            },
            2000ms)) {
      return -1.0;
    }
    const auto words = monitor_payload(args.seed, 0, values[0]);
    if (!session.sim.send(kTagMonitor, words.data(), words.size()).is_ok()) {
      return -1.0;
    }
    ++samples_sent;
    for (auto& viewer : session.viewers) {
      auto got = receive<double>(viewer, kTagMonitor);
      if (!got.is_ok() || !check_monitor(args.seed, 0, got.value()).empty()) {
        return -1.0;
      }
    }
    return static_cast<double>(now_ns() - t0) / 1e9;
  };
  const double setup_s =
      median_setup_s(kSetupCycles, setup, [&] { session.close(); }, result);
  if (setup_s < 0.0) {
    session.close();
    return result;
  }

  Tracer tracer(args.trace);
  Samples steer_latency;
  std::vector<double> steps_to_visible;
  SteerOrder order(values[0]);
  std::size_t next_value = 1;
  std::uint64_t pending_steer_ns = 0;
  std::uint64_t field_bytes_delivered = 0;
  std::vector<std::vector<double>> monitor_words(kViewers);
  std::vector<std::vector<float>> field_words(kViewers);

  cs::net::reset_tcp_wire_stats();
  const auto host_before = session.mux->stats().event_host;
  const std::uint64_t bytes_before = client_bytes(session);
  Window window(args.seconds, process_cpu_ns);

  const auto fail = [&](std::uint64_t step, const std::string& what) {
    ++result.failed;
    std::fprintf(stderr, "steer_session: step %llu failed: %s\n",
                 static_cast<unsigned long long>(step), what.c_str());
  };

  bool aborted = false;
  for (std::uint64_t step = 1; !aborted; ++step) {
    if (step % kRoundSteps == 1 && !window.open()) break;
    const bool steers = step % kSteerEvery == kSteerPhase;
    if (steers && next_value >= values.size()) break;
    ++result.attempted;
    const std::uint64_t t0 = now_ns();
    const std::uint32_t step_span = tracer.open("step", step);
    double value = 0.0;
    {
      Scope span(tracer, "visit.sim_request_us", step, step_span);
      auto got = session.sim.request<double>(kTagParam,
                                             Deadline::after(kOpTimeout));
      if (!got.is_ok() || got.value().size() != 1) {
        fail(step, got.is_ok() ? "empty parameter reply"
                               : got.status().to_string());
        aborted = true;
        break;
      }
      value = got.value()[0];
    }
    const auto words = monitor_payload(args.seed, step, value);
    {
      Scope span(tracer, "visit.sim_send_us", step, step_span);
      if (auto s = session.sim.send(kTagMonitor, words.data(), words.size());
          !s.is_ok()) {
        fail(step, s.to_string());
        aborted = true;
        break;
      }
    }
    ++samples_sent;
    const bool has_field = step % kRoundSteps == 0;
    const std::size_t field_index =
        static_cast<std::size_t>(step / kRoundSteps) % fields.size();
    if (has_field) {
      auto& buf = field_bufs[field_index];
      buf[0] = static_cast<float>(step);
      Scope span(tracer, "visit.field_send_us", step, step_span);
      if (auto s = session.sim.send(kTagField, buf); !s.is_ok()) {
        fail(step, s.to_string());
        aborted = true;
        break;
      }
      ++samples_sent;
    }
    if (steers) {
      const double steered = values[next_value++];
      pending_steer_ns = now_ns();
      Scope span(tracer, "visit.steer_send_us", step, step_span);
      if (auto s = session.viewers[0].steer(kTagParam,
                                            std::vector<double>{steered});
          !s.is_ok()) {
        fail(step, s.to_string());
        aborted = true;
        break;
      }
      ++steers_sent;
      order.steered(step, steered);
    }
    for (std::size_t i = 0; i < kViewers && !aborted; ++i) {
      auto& viewer = session.viewers[i];
      Scope span(tracer, "visit.viewer_wait_us", step, step_span);
      auto got = receive<double>(viewer, kTagMonitor);
      if (!got.is_ok()) {
        fail(step, "viewer " + std::to_string(i) + ": " +
                       got.status().to_string());
        aborted = true;
        break;
      }
      monitor_words[i] = std::move(got).value();
      if (has_field) {
        auto fgot = receive<float>(viewer, kTagField);
        if (!fgot.is_ok()) {
          fail(step, "viewer " + std::to_string(i) + " field: " +
                         fgot.status().to_string());
          aborted = true;
          break;
        }
        field_words[i] = std::move(fgot).value();
      }
    }
    if (aborted) break;
    const std::uint64_t t_end = now_ns();
    tracer.close(step_span);
    window.record(t_end - t0, t_end);

    // Checks run outside the timed step and are excluded from busy time.
    for (std::size_t i = 0; i < kViewers; ++i) {
      if (auto why = check_monitor(args.seed, step, monitor_words[i]);
          !why.empty()) {
        result.reject("viewer " + std::to_string(i) + ": " + why);
      } else if (monitor_words[i][1] != value) {
        result.reject("viewer " + std::to_string(i) + " saw value " +
                      std::to_string(monitor_words[i][1]) + " at step " +
                      std::to_string(step) + ", simulation applied " +
                      std::to_string(value));
      }
      if (has_field) {
        if (auto why = check_field(step, fields[field_index], field_words[i]);
            !why.empty()) {
          result.reject("viewer " + std::to_string(i) + ": " + why);
        }
        field_bytes_delivered += field_words[i].size() * sizeof(float);
      }
    }
    const std::uint64_t pending_step = order.pending_step();
    bool first_seen = false;
    if (auto why = order.applied(step, value, first_seen); !why.empty()) {
      result.reject(why);
    }
    if (first_seen) {
      steer_latency.add(t_end - pending_steer_ns, t_end);
      steps_to_visible.push_back(static_cast<double>(step - pending_step));
    }
  }
  window.close();
  const std::uint64_t bytes_moved = client_bytes(session) - bytes_before;
  const auto wire = cs::net::tcp_wire_stats();

  // Exactly once: nothing beyond the last step is waiting at any viewer.
  if (!aborted) {
    for (std::size_t i = 0; i < kViewers; ++i) {
      auto extra = session.viewers[i].poll(Deadline::after(20ms));
      if (extra.is_ok()) {
        result.reject("viewer " + std::to_string(i) +
                      " received a sample beyond the last step");
      }
    }
    if (auto why = order.finish(); !why.empty()) result.reject(why);
    const auto reconcile = [&] {
      const auto snap = session.mux->metrics().snapshot();
      return MuxCounters{counter(snap, "frames_published"),
                         counter(snap, "frames_delivered"),
                         counter(snap, "mux_steers_accepted"),
                         counter(snap, "mux_steers_rejected"),
                         counter(snap, "queue_drops")};
    };
    // The delivery counter is bumped after the write returns, which can be
    // just after the viewer already read the bytes.
    (void)wait_until(
        [&] {
          return check_mux_counters(reconcile(), samples_sent, kViewers,
                                    steers_sent)
              .empty();
        },
        2000ms);
    if (auto why = check_mux_counters(reconcile(), samples_sent, kViewers,
                                      steers_sent);
        !why.empty()) {
      result.reject(why);
    }
  }

  add_end_to_end(result, setup_s, window.latency(), window, steer_latency);
  const double n = static_cast<double>(window.ops());
  result.note(window.latency().describe("step"));
  result.note(steer_latency.describe("steer (steer() -> every viewer holds it)"));
  result.note("steps_per_s " + std::to_string(window.ops_per_s()) +
              ", field_mib_per_s " +
              std::to_string(static_cast<double>(field_bytes_delivered) /
                             1048576.0 / window.busy_s()));

  const auto snap = session.mux->metrics().snapshot();
  const auto host_after = session.mux->stats().event_host;
  const double per_op = n > 0 ? 1.0 / n : 0.0;
  result.per_layer = {
      {"visit.sim_request_us", tracer.p50_self_us("visit.sim_request_us"), "us"},
      {"visit.sim_send_us", tracer.p50_self_us("visit.sim_send_us"), "us"},
      {"visit.viewer_wait_us", tracer.p50_self_us("visit.viewer_wait_us"), "us"},
      {"visit.field_send_us", tracer.p50_self_us("visit.field_send_us"), "us"},
      {"visit.steer_send_us", tracer.p50_self_us("visit.steer_send_us"), "us"},
      {"visit.steps_per_steer", mean(steps_to_visible), "steps"},
      {"visit.stage_ingress_to_encode_us",
       timer_mean_us(snap, "stage_ingress_to_encode"), "us"},
      {"visit.stage_encode_to_enqueue_us",
       timer_mean_us(snap, "stage_encode_to_enqueue"), "us"},
      {"visit.stage_enqueue_to_write_us",
       timer_mean_us(snap, "stage_enqueue_to_write"), "us"},
      {"net.poller_wakeups_per_op",
       static_cast<double>(host_after.wakeups - host_before.wakeups) * per_op,
       "count"},
      {"net.tcp_send_batches_per_op",
       static_cast<double>(wire.send_batches) * per_op, "count"},
      {"net.bytes_sent_per_op", static_cast<double>(bytes_moved) * per_op,
       "bytes"},
      {"net.poll_latency_us", host_after.poll_latency.mean() / 1000.0, "us"},
      // The registry row is a frame count whatever its name suggests.
      {"net.queue_depth_high_water", gauge(snap, "queue_depth_high_water"),
       "frames"},
      // tcp_batch_messages is exported with an _ns suffix but holds
      // messages per wire batch.
      {"net.tcp_batch_messages_p50",
       timer(snap, "tcp_batch_messages")
           ? static_cast<double>(timer(snap, "tcp_batch_messages")->p50())
           : 0.0,
       "messages"},
  };

  if (tracer.enabled()) {
    // wire layer, measured on the workload's own samples in the mix one
    // round sends: 16 monitor samples and one field sample.
    std::vector<cs::wire::Message> round;
    for (std::uint64_t s = 1; s <= kRoundSteps; ++s) {
      const auto words = monitor_payload(args.seed, s, values[0]);
      round.push_back(
          cs::wire::make_data_message(kTagMonitor, words.data(), words.size()));
    }
    round.push_back(cs::wire::make_data_message(
        kTagField, field_bufs[0].data(), field_bufs[0].size()));
    std::vector<cs::common::Bytes> encoded(round.size());
    std::uint64_t bytes = 0;
    constexpr int kReps = 16;
    for (int rep = 0; rep < kReps; ++rep) {
      Scope span(tracer, "wire.encode_round", static_cast<std::uint64_t>(rep));
      for (std::size_t i = 0; i < round.size(); ++i) {
        encoded[i] = round[i].encode();
      }
    }
    for (const auto& e : encoded) bytes += e.size();
    std::vector<cs::common::Result<cs::wire::Message>> decoded;
    for (int rep = 0; rep < kReps; ++rep) {
      decoded.clear();
      Scope span(tracer, "wire.decode_round", static_cast<std::uint64_t>(rep));
      for (const auto& e : encoded) {
        decoded.push_back(cs::wire::Message::decode(e));
      }
    }
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      if (!decoded[i].is_ok() ||
          decoded[i].value().payload != round[i].payload) {
        result.reject("wire decode of a workload sample failed");
      }
    }
    const double mib = static_cast<double>(bytes) / 1048576.0;
    result.per_layer.push_back(
        {"wire.encode_us_per_mib",
         tracer.p50_self_us("wire.encode_round") / mib, "us/MiB"});
    result.per_layer.push_back(
        {"wire.decode_us_per_mib",
         tracer.p50_self_us("wire.decode_round") / mib, "us/MiB"});
    if (!args.trace_file.empty() && !tracer.write_csv(args.trace_file)) {
      std::fprintf(stderr, "steer_session: could not write %s\n",
                   args.trace_file.c_str());
    }
  }
  session.close();
  return result;
}

}  // namespace steerbench
