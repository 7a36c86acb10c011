// steer_rpc: the RealityGrid wiring of examples/realitygrid_lbm.cpp.
//
// A two-fluid LBM thread calls steer::SteeringControl::sync() once per
// step; the control is published as an ogsa::SteeringService in one
// ogsa::Registry, which two ogsa::ServiceHosts serve, one over TCP and one
// over the in-process network. One client thread interleaves seeded reads
// (find, list-params, get-param, status) and writes (set-param of the
// coupling, each read back by a later get-param) over both transports, one
// RPC in flight.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "checks.hpp"
#include "common/rng.hpp"
#include "inputs.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "ogsa/host.hpp"
#include "ogsa/registry.hpp"
#include "ogsa/steering_service.hpp"
#include "sim/lbm/lbm.hpp"
#include "steer/control.hpp"

namespace steerbench {

namespace {
using namespace std::chrono_literals;
using cs::common::Deadline;

constexpr int kSetupCycles = 15;
constexpr auto kOpTimeout = 2s;
const char* const kHandle = "ogsi://realitygrid/steering/lb3d";
const char* const kInprocAddress = "realitygrid:ogsi";

enum Op { kFind, kListParams, kStatus, kGetMonitored, kSetParam, kGetParam };
constexpr int kOps = 6;
/// Span names per operation and transport (0 = tcp, 1 = inproc).
const char* const kSpanNames[kOps][2] = {
    {"ogsa.find_us.tcp", "ogsa.find_us.inproc"},
    {"ogsa.list_params_us.tcp", "ogsa.list_params_us.inproc"},
    {"ogsa.status_us.tcp", "ogsa.status_us.inproc"},
    {"ogsa.get_param_us.tcp", "ogsa.get_param_us.inproc"},
    {"ogsa.set_param_us.tcp", "ogsa.set_param_us.inproc"},
    {"ogsa.get_param_us.tcp", "ogsa.get_param_us.inproc"},
};

struct Slot {
  Op op;
  int transport;  // 0 = tcp, 1 = inproc
};

/// One round: a block of 8 RPCs over TCP, then a block of 8 in-process.
/// Each block opens with a get-param of the coupling (reading back the
/// value the other transport's block set last), closes with a set-param of
/// it, and holds find, list-params, status, get-param of a monitored value
/// and a set-param/get-param pair in a seeded order. Blocks, not strict
/// alternation: a TCP request that always follows a ~1 ms in-process wait
/// meets an idle poller, and on a virtualised host the cost of waking it
/// swings from run to run.
std::vector<Slot> plan_round(cs::common::Rng& rng) {
  std::vector<Slot> slots;
  for (int transport = 0; transport < 2; ++transport) {
    std::vector<Op> units{kFind, kListParams, kStatus, kGetMonitored,
                          kSetParam};
    for (std::size_t i = units.size() - 1; i > 0; --i) {
      std::swap(units[i], units[rng.next_below(i + 1)]);
    }
    slots.push_back({kGetParam, transport});
    for (Op op : units) {
      slots.push_back({op, transport});
      if (op == kSetParam) slots.push_back({kGetParam, transport});
    }
    slots.push_back({kSetParam, transport});
  }
  return slots;
}

/// The steered simulation: owns the LBM thread of one set-up cycle.
class LbmRunner {
 public:
  LbmRunner(cs::lbm::TwoFluidLbm& sim, bool trace) : sim_(sim), tracer_(trace) {
    coupling_ = sim.coupling();
    control_ = std::make_shared<cs::steer::SteeringControl>();
    control_->register_steerable("coupling", &coupling_, 0.0, 2.5);
    control_->register_monitored("segregation",
                                 [this] { return sim_.segregation(); });
    control_->register_monitored(
        "step", [this] { return static_cast<double>(sim_.steps_done()); });
  }
  ~LbmRunner() { stop(); }
  LbmRunner(const LbmRunner&) = delete;
  LbmRunner& operator=(const LbmRunner&) = delete;

  std::shared_ptr<cs::steer::SteeringControl> control() const {
    return control_;
  }
  void start() {
    thread_ = std::thread([this] { loop(); });
  }
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  std::uint64_t steps() const { return steps_.load(); }
  double applied() const { return applied_.load(); }
  std::uint64_t cpu_ns() {
    return thread_.joinable() ? thread_cpu_ns(thread_.native_handle()) : 0;
  }
  // Read after stop():
  const std::vector<double>& changes() const { return changes_; }
  const std::vector<std::uint64_t>& change_steps() const {
    return change_steps_;
  }
  double mass_a_start() const { return mass_start_[0]; }
  double mass_b_start() const { return mass_start_[1]; }
  double mass_a_end() const { return mass_end_[0]; }
  double mass_b_end() const { return mass_end_[1]; }
  const Tracer& tracer() const { return tracer_; }

 private:
  void loop() {
    mass_start_[0] = sim_.mass_a();
    mass_start_[1] = sim_.mass_b();
    std::uint64_t k = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      {
        Scope span(tracer_, "steer.sync_us", k);
        control_->sync();
      }
      if (coupling_ != sim_.coupling()) {
        sim_.set_coupling(coupling_);
        changes_.push_back(coupling_);
        change_steps_.push_back(k);
        applied_.store(coupling_);
      }
      {
        Scope span(tracer_, "sim.lbm_step_us", k);
        sim_.step();
      }
      steps_.store(++k);
    }
    mass_end_[0] = sim_.mass_a();
    mass_end_[1] = sim_.mass_b();
  }

  cs::lbm::TwoFluidLbm& sim_;
  Tracer tracer_;
  double coupling_ = 0.0;  // written only inside control_->sync()
  std::shared_ptr<cs::steer::SteeringControl> control_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> steps_{0};
  std::atomic<double> applied_{0.0};
  std::vector<double> changes_;
  std::vector<std::uint64_t> change_steps_;
  double mass_start_[2] = {0, 0};
  double mass_end_[2] = {0, 0};
  std::thread thread_;
};

/// Network decorator that keeps every connection it dials: ServiceClient
/// does not expose its connection, and the traffic counters live there.
class RecordingNetwork : public cs::net::Network {
 public:
  explicit RecordingNetwork(cs::net::Network& inner) : inner_(inner) {}
  cs::common::Result<cs::net::ListenerPtr> listen(
      const std::string& address) override {
    return inner_.listen(address);
  }
  cs::common::Result<cs::net::ConnectionPtr> connect(
      const std::string& address, Deadline deadline) override {
    auto conn = inner_.connect(address, deadline);
    if (conn.is_ok()) conns_.push_back(conn.value());
    return conn;
  }
  /// Bytes sent plus bytes received over every dialed connection.
  std::uint64_t bytes_moved() const {
    std::uint64_t total = 0;
    for (const auto& conn : conns_) {
      const auto stats = conn->stats();
      total += stats.bytes_sent + stats.bytes_received;
    }
    return total;
  }

 private:
  cs::net::Network& inner_;
  std::vector<cs::net::ConnectionPtr> conns_;
};

struct Deployment {
  std::shared_ptr<cs::ogsa::Registry> registry;
  std::unique_ptr<LbmRunner> lbm;
  std::unique_ptr<cs::ogsa::ServiceHost> tcp_host;
  std::unique_ptr<cs::ogsa::ServiceHost> inproc_host;
  std::unique_ptr<RecordingNetwork> tcp_dial;
  std::unique_ptr<RecordingNetwork> inproc_dial;
  cs::ogsa::ServiceClient clients[2];

  void close() {
    for (auto& client : clients) client.disconnect();
    if (lbm) lbm->stop();
    if (tcp_host) tcp_host->stop();
    if (inproc_host) inproc_host->stop();
    tcp_host.reset();
    inproc_host.reset();
    lbm.reset();
    registry.reset();
  }
};
}  // namespace

RunResult run_steer_rpc(const Args& args) {
  RunResult result;
  cs::lbm::LbmConfig config;
  config.nx = config.ny = config.nz = kRpcLatticeEdge;
  config.coupling = 0.0;  // start miscible; every set value is above it
  config.seed = args.seed;
  cs::lbm::TwoFluidLbm sim(config);
  const auto values = steer_values(args.seed, 1 << 18, 0.05, 1.0);
  cs::common::Rng plan_rng(args.seed ^ 0x727063ULL);

  cs::net::TcpNetwork tcp;
  cs::net::InProcNetwork inproc;
  Deployment d;

  const auto setup = [&]() -> double {
    const std::uint64_t t0 = now_ns();
    d.registry = std::make_shared<cs::ogsa::Registry>();
    d.lbm = std::make_unique<LbmRunner>(sim, args.trace);
    if (!d.registry
             ->publish(std::make_shared<cs::ogsa::SteeringService>(
                 kHandle, "application", d.lbm->control()))
             .is_ok()) {
      return -1.0;
    }
    auto tcp_host = cs::ogsa::ServiceHost::start(tcp, d.registry, {"0"});
    auto inproc_host =
        cs::ogsa::ServiceHost::start(inproc, d.registry, {kInprocAddress});
    if (!tcp_host.is_ok() || !inproc_host.is_ok()) return -1.0;
    d.tcp_host = std::move(tcp_host).value();
    d.inproc_host = std::move(inproc_host).value();
    d.lbm->start();
    d.tcp_dial = std::make_unique<RecordingNetwork>(tcp);
    d.inproc_dial = std::make_unique<RecordingNetwork>(inproc);
    auto tcp_client = cs::ogsa::ServiceClient::connect(
        *d.tcp_dial, d.tcp_host->address(), Deadline::after(kOpTimeout));
    auto inproc_client = cs::ogsa::ServiceClient::connect(
        *d.inproc_dial, kInprocAddress, Deadline::after(kOpTimeout));
    if (!tcp_client.is_ok() || !inproc_client.is_ok()) return -1.0;
    d.clients[0] = std::move(tcp_client).value();
    d.clients[1] = std::move(inproc_client).value();
    // First op at every participant: a discovery over each transport and
    // one steered LBM step.
    for (auto& client : d.clients) {
      auto found = client.find(kHandle, Deadline::after(kOpTimeout));
      if (!found.is_ok() || found.value().size() != 1) return -1.0;
    }
    if (!wait_until([&] { return d.lbm->steps() >= 1; }, 5000ms)) return -1.0;
    return static_cast<double>(now_ns() - t0) / 1e9;
  };
  const double setup_s =
      median_setup_s(kSetupCycles, setup, [&] { d.close(); }, result);
  if (setup_s < 0.0) {
    d.close();
    return result;
  }

  Tracer tracer(args.trace);
  Samples rpc[2];
  std::vector<double> set_values;
  std::vector<std::uint64_t> set_steps;
  std::size_t next_value = 0;
  double last_set = 0.0;
  std::uint64_t ops = 0;

  cs::net::reset_tcp_wire_stats();
  const std::uint64_t bytes_before =
      d.tcp_dial->bytes_moved() + d.inproc_dial->bytes_moved();
  const std::uint64_t lbm_steps_before = d.lbm->steps();
  // The LBM thread's own CPU time is not charged to the RPCs.
  Window window(args.seconds,
                [&] { return process_cpu_ns() - d.lbm->cpu_ns(); });
  const std::uint64_t window_start = now_ns();

  bool aborted = false;
  while (!aborted && window.open() && next_value + 8 < values.size()) {
    const auto round = plan_round(plan_rng);
    for (const Slot& slot : round) {
      const std::uint64_t id = ++ops;
      ++result.attempted;
      auto& client = d.clients[slot.transport];
      const auto deadline = Deadline::after(kOpTimeout);
      cs::common::Result<std::string> reply{std::string{}};
      std::size_t found = 0;
      double written = 0.0;
      const std::uint64_t t0 = now_ns();
      {
        Scope span(tracer, kSpanNames[slot.op][slot.transport], id);
        switch (slot.op) {
          case kFind: {
            auto handles = client.find(kHandle, deadline);
            if (handles.is_ok()) {
              found = handles.value().size();
            } else {
              reply = handles.status();
            }
            break;
          }
          case kListParams:
            reply = client.invoke(kHandle, "list-params", {}, deadline);
            break;
          case kStatus:
            reply = client.invoke(kHandle, "status", {}, deadline);
            break;
          case kGetMonitored:
            reply = client.invoke(kHandle, "get-param", {"segregation"},
                                  deadline);
            break;
          case kSetParam:
            written = values[next_value++];
            reply = client.invoke(kHandle, "set-param",
                                  {"coupling", std::to_string(written)},
                                  deadline);
            break;
          case kGetParam:
            reply = client.invoke(kHandle, "get-param", {"coupling"},
                                  deadline);
            break;
        }
      }
      const std::uint64_t t_end = now_ns();
      if (!reply.is_ok()) {
        ++result.failed;
        std::fprintf(stderr, "steer_rpc: rpc %llu failed: %s\n",
                     static_cast<unsigned long long>(id),
                     reply.status().to_string().c_str());
        aborted = true;
        break;
      }
      rpc[slot.transport].add(t_end - t0, t_end);
      window.record(t_end - t0, t_end);
      const std::string& body = reply.value();
      switch (slot.op) {
        case kFind:
          if (found != 1) result.reject("find returned " +
                                        std::to_string(found) + " handles");
          break;
        case kListParams:
          if (body.find("coupling=") == std::string::npos ||
              body.find("segregation=") == std::string::npos) {
            result.reject("list-params lacks coupling/segregation: " + body);
          }
          break;
        case kStatus:
          if (body.empty()) result.reject("empty status");
          break;
        case kGetMonitored: {
          char* end = nullptr;
          const double seg = std::strtod(body.c_str(), &end);
          if (end == body.c_str() || !(seg >= 0.0 && seg <= 1.0)) {
            result.reject("segregation out of [0, 1]: " + body);
          }
          break;
        }
        case kSetParam:
          if (body != "ok") result.reject("set-param replied " + body);
          last_set = written;
          set_values.push_back(written);
          set_steps.push_back(d.lbm->steps());
          break;
        case kGetParam:
          if (auto why = check_readback(last_set, body); !why.empty()) {
            result.reject(why);
          }
          break;
      }
    }
  }
  window.close();
  const std::uint64_t window_ns = now_ns() - window_start;
  const std::uint64_t lbm_steps = d.lbm->steps() - lbm_steps_before;
  const std::uint64_t bytes_moved = d.tcp_dial->bytes_moved() +
                                    d.inproc_dial->bytes_moved() -
                                    bytes_before;
  const auto wire = cs::net::tcp_wire_stats();

  // The simulation reaches the last value set.
  if (!set_values.empty() &&
      !wait_until([&] { return d.lbm->applied() == last_set; }, 5000ms)) {
    result.reject("coupling never reached the last set value");
  }
  d.lbm->stop();
  if (auto why = check_coupling(set_values, d.lbm->changes()); !why.empty()) {
    result.reject(why);
  }
  if (auto why = check_mass(d.lbm->mass_a_start(), d.lbm->mass_b_start(),
                            d.lbm->mass_a_end(), d.lbm->mass_b_end());
      !why.empty()) {
    result.reject(why);
  }
  if (sim.coupling() != last_set) {
    result.reject("simulation coupling " + std::to_string(sim.coupling()) +
                  " != last set " + std::to_string(last_set));
  }

  // Steps from a set-param reply to the sync that applied it (matched in
  // order; values overwritten before a sync are skipped).
  std::vector<double> set_to_applied;
  {
    const auto& changes = d.lbm->changes();
    const auto& change_steps = d.lbm->change_steps();
    std::size_t s = 0;
    for (std::size_t c = 0; c < changes.size(); ++c) {
      while (s < set_values.size() && set_values[s] != changes[c]) ++s;
      if (s == set_values.size()) break;
      set_to_applied.push_back(
          change_steps[c] > set_steps[s]
              ? static_cast<double>(change_steps[c] - set_steps[s])
              : 0.0);
      ++s;
    }
  }

  // op = one TCP RPC, the second path = one in-process RPC; ops_per_s and
  // cpu_us_per_op count the RPCs of both transports.
  add_end_to_end(result, setup_s, rpc[0], window, rpc[1]);
  const double n = static_cast<double>(window.ops());
  result.note(rpc[0].describe("rpc_tcp"));
  result.note(rpc[1].describe("rpc_inproc"));
  result.note("sim_steps_per_s " +
              std::to_string(static_cast<double>(lbm_steps) /
                             (static_cast<double>(window_ns) / 1e9)) +
              " (" + std::to_string(kRpcLatticeEdge) + "^3 lattice)");

  tracer.absorb(d.lbm->tracer());
  const double per_op = n > 0 ? 1.0 / n : 0.0;
  result.per_layer = {
      {"ogsa.get_param_us.tcp", tracer.p50_self_us("ogsa.get_param_us.tcp"), "us"},
      {"ogsa.get_param_us.inproc", tracer.p50_self_us("ogsa.get_param_us.inproc"), "us"},
      {"ogsa.set_param_us.tcp", tracer.p50_self_us("ogsa.set_param_us.tcp"), "us"},
      {"ogsa.set_param_us.inproc", tracer.p50_self_us("ogsa.set_param_us.inproc"), "us"},
      {"ogsa.list_params_us.tcp", tracer.p50_self_us("ogsa.list_params_us.tcp"), "us"},
      {"ogsa.list_params_us.inproc", tracer.p50_self_us("ogsa.list_params_us.inproc"), "us"},
      {"ogsa.find_us.tcp", tracer.p50_self_us("ogsa.find_us.tcp"), "us"},
      {"ogsa.find_us.inproc", tracer.p50_self_us("ogsa.find_us.inproc"), "us"},
      {"steer.sync_us", tracer.p50_self_us("steer.sync_us"), "us"},
      {"sim.lbm_step_us", tracer.p50_self_us("sim.lbm_step_us"), "us"},
      {"steer.set_to_applied_steps", mean(set_to_applied), "steps"},
      {"net.tcp_send_batches_per_op",
       static_cast<double>(wire.send_batches) * per_op, "count"},
      {"net.bytes_sent_per_op", static_cast<double>(bytes_moved) * per_op,
       "bytes"},
  };
  if (tracer.enabled() && !args.trace_file.empty() &&
      !tracer.write_csv(args.trace_file)) {
    std::fprintf(stderr, "steer_rpc: could not write %s\n",
                 args.trace_file.c_str());
  }
  d.close();
  return result;
}

}  // namespace steerbench
