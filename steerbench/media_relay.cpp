// media_relay: vic-style video on an in-process multicast group.
//
// An ag::MediaStream sender sends to three receivers: one direct group
// member and two ag::UnicastBridges, one per firewalled site. One bridge
// serves its client over TCP (the EventHost path), the other in-process
// (the pump + ShardedFanout path). Frames are CIF renderings of the LBM
// isosurfaces, precomputed from the seed. One driver thread keeps one frame
// in flight and decodes it at every receiver before sending the next.
#include <algorithm>
#include <memory>
#include <optional>

#include "ag/media.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "inputs.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "viz/compress.hpp"

namespace steerbench {

namespace {
using namespace std::chrono_literals;
using cs::common::Deadline;

constexpr int kSetupCycles = 15;
constexpr auto kOpTimeout = 2s;
const char* const kGroup = "venue:video";
const char* const kInprocBridge = "site-b:bridge";

struct Venue {
  std::optional<cs::ag::MediaStream> sender;
  std::optional<cs::ag::MediaStream> direct;
  std::unique_ptr<cs::ag::UnicastBridge> tcp_bridge;
  std::unique_ptr<cs::ag::UnicastBridge> inproc_bridge;
  cs::net::ConnectionPtr tcp_client;
  cs::net::ConnectionPtr inproc_client;

  void close() {
    if (tcp_client) tcp_client->close();
    if (inproc_client) inproc_client->close();
    tcp_client.reset();
    inproc_client.reset();
    if (tcp_bridge) tcp_bridge->stop();
    if (inproc_bridge) inproc_bridge->stop();
    tcp_bridge.reset();
    inproc_bridge.reset();
    if (sender) sender->leave();
    if (direct) direct->leave();
    sender.reset();
    direct.reset();
  }

  std::uint64_t bytes_moved() const {
    std::uint64_t total = 0;
    for (const auto* conn : {&tcp_client, &inproc_client}) {
      const auto st = (*conn)->stats();
      total += st.bytes_sent + st.bytes_received;
    }
    return total + sender->stats().bytes_sent + direct->stats().bytes_received;
  }
};

/// One frame decoded at all three receivers, in drain order: the
/// in-process bridged site, the direct member, the TCP bridged site.
struct Received {
  cs::viz::Image inproc, direct, tcp;
};
}  // namespace

RunResult run_media_relay(const Args& args) {
  RunResult result;
  const auto pristine = render_frames(args.seed, lbm_fields(args.seed));
  auto frames = pristine;  // stamped with the frame number before each send

  cs::net::InProcNetwork inproc;
  cs::net::TcpNetwork tcp;
  Venue v;
  Tracer tracer(args.trace);

  // Sends frame `index` and decodes it at every receiver; spans and the
  // in-process site's arrival time are recorded on the way.
  const auto relay = [&](Tracer& tracer, std::uint64_t index, Received& out,
                         std::uint64_t& inproc_done_ns) -> cs::common::Status {
    auto& frame = frames[index % frames.size()];
    stamp_frame(frame, index);
    Scope root(tracer, "frame", index);
    {
      Scope span(tracer, "ag.send_frame_us", index, root.handle());
      if (auto s = v.sender->send_frame(frame); !s.is_ok()) return s;
    }
    const auto bridged = [&](cs::net::Connection& conn, const char* wait_name,
                             cs::viz::Image& image) -> cs::common::Status {
      cs::common::Result<cs::common::Bytes> raw{cs::common::Bytes{}};
      {
        Scope span(tracer, wait_name, index, root.handle());
        raw = conn.recv(Deadline::after(kOpTimeout));
      }
      if (!raw.is_ok()) return raw.status();
      Scope span(tracer, "viz.decompress_us", index, root.handle());
      auto decoded = cs::viz::decompress_frame(raw.value());
      if (!decoded.is_ok()) return decoded.status();
      image = std::move(decoded).value();
      return cs::common::Status::ok();
    };
    if (auto s = bridged(*v.inproc_client, "ag.bridged_inproc_wait_us",
                         out.inproc);
        !s.is_ok()) {
      return s;
    }
    inproc_done_ns = now_ns();
    {
      Scope span(tracer, "ag.direct_receive_us", index, root.handle());
      auto decoded = v.direct->receive_frame(Deadline::after(kOpTimeout));
      if (!decoded.is_ok()) return decoded.status();
      out.direct = std::move(decoded).value();
    }
    return bridged(*v.tcp_client, "ag.bridged_tcp_wait_us", out.tcp);
  };
  const auto check = [&](std::uint64_t index, const Received& got) {
    const auto& source = pristine[index % pristine.size()];
    for (const auto* image : {&got.inproc, &got.direct, &got.tcp}) {
      if (auto why = check_frame(source, index, *image); !why.empty()) {
        result.reject(why);
        return false;
      }
    }
    return true;
  };

  Received received;
  const auto setup = [&]() -> double {
    const std::uint64_t t0 = now_ns();
    auto sender = cs::ag::MediaStream::join(inproc, kGroup);
    auto direct = cs::ag::MediaStream::join(inproc, kGroup);
    if (!sender.is_ok() || !direct.is_ok()) return -1.0;
    v.sender.emplace(std::move(sender).value());
    v.direct.emplace(std::move(direct).value());
    auto tcp_bridge =
        cs::ag::UnicastBridge::start(inproc, tcp, {.group = kGroup,
                                                   .address = "0"});
    auto inproc_bridge = cs::ag::UnicastBridge::start(
        inproc, {.group = kGroup, .address = kInprocBridge});
    if (!tcp_bridge.is_ok() || !inproc_bridge.is_ok()) return -1.0;
    v.tcp_bridge = std::move(tcp_bridge).value();
    v.inproc_bridge = std::move(inproc_bridge).value();
    auto tcp_client =
        tcp.connect(v.tcp_bridge->address(), Deadline::after(kOpTimeout));
    auto inproc_client =
        inproc.connect(kInprocBridge, Deadline::after(kOpTimeout));
    if (!tcp_client.is_ok() || !inproc_client.is_ok()) return -1.0;
    v.tcp_client = std::move(tcp_client).value();
    v.inproc_client = std::move(inproc_client).value();
    // Readiness: each bridge has admitted its client (the TCP one onto the
    // event host), then the first frame reaches every receiver.
    if (!wait_until(
            [&] {
              return v.tcp_bridge->client_count() == 1 &&
                     v.inproc_bridge->client_count() == 1 &&
                     v.tcp_bridge->host_stats().hosted == 1;
            },
            2000ms)) {
      return -1.0;
    }
    // Set-up frames are not traced: the trace covers the window only.
    Tracer off(false);
    std::uint64_t ignored = 0;
    if (!relay(off, 0, received, ignored).is_ok() || !check(0, received)) {
      return -1.0;
    }
    return static_cast<double>(now_ns() - t0) / 1e9;
  };
  const double setup_s =
      median_setup_s(kSetupCycles, setup, [&] { v.close(); }, result);
  if (setup_s < 0.0) {
    v.close();
    return result;
  }

  Samples inproc_latency;
  cs::net::reset_tcp_wire_stats();
  const auto host_before = v.tcp_bridge->host_stats();
  const std::uint64_t relay_before =
      v.tcp_bridge->relay_stats().data_delivered +
      v.inproc_bridge->relay_stats().data_delivered;
  const std::uint64_t bytes_before = v.bytes_moved();
  const std::uint64_t sent_bytes_before = v.sender->bytes_sent();
  const std::uint64_t sent_frames_before = v.sender->frames_sent();
  Window window(args.seconds, process_cpu_ns);

  std::uint64_t index = 1;
  bool aborted = false;
  while (!aborted) {
    // Whole rounds: every distinct frame once per round.
    if (index % frames.size() == 1 && !window.open()) break;
    ++result.attempted;
    std::uint64_t inproc_done = 0;
    const std::uint64_t t0 = now_ns();
    if (auto s = relay(tracer, index, received, inproc_done); !s.is_ok()) {
      ++result.failed;
      std::fprintf(stderr, "media_relay: frame %llu failed: %s\n",
                   static_cast<unsigned long long>(index),
                   s.to_string().c_str());
      aborted = true;
      break;
    }
    const std::uint64_t t_end = now_ns();
    window.record(t_end - t0, t_end);
    inproc_latency.add(inproc_done - t0, inproc_done);
    (void)check(index, received);
    ++index;
  }
  window.close();
  const std::uint64_t bytes_moved = v.bytes_moved() - bytes_before;
  const auto wire = cs::net::tcp_wire_stats();
  const double frame_bytes =
      static_cast<double>(v.sender->bytes_sent() - sent_bytes_before) /
      static_cast<double>(std::max<std::uint64_t>(
          1, v.sender->frames_sent() - sent_frames_before));

  if (!aborted) {
    // Exactly once: nothing beyond the last frame waits at any receiver.
    if (v.inproc_client->recv(Deadline::after(20ms)).is_ok() ||
        v.tcp_client->recv(Deadline::after(20ms)).is_ok() ||
        v.direct->receive_frame(Deadline::after(20ms)).is_ok()) {
      result.reject("a receiver got a frame beyond the last one sent");
    }
    for (const auto* bridge : {v.tcp_bridge.get(), v.inproc_bridge.get()}) {
      if (auto why = check_zero_drops(bridge->relay_stats().data_dropped,
                                      bridge->host_stats().data_dropped);
          !why.empty()) {
        result.reject(why);
      }
    }
  }

  add_end_to_end(result, setup_s, window.latency(), window, inproc_latency);
  const double n = static_cast<double>(window.ops());
  result.note(window.latency().describe("frame (send -> decoded at all three)"));
  result.note(inproc_latency.describe("in-process bridged site"));
  result.note("frames_per_s " + std::to_string(window.ops_per_s()) +
              ", " + std::to_string(frame_bytes) + " bytes per CIF frame");

  const auto host_after = v.tcp_bridge->host_stats();
  const auto relay_tcp = v.tcp_bridge->relay_stats();
  const auto relay_inproc = v.inproc_bridge->relay_stats();
  std::size_t relay_high_water = 0;
  for (const auto* stats : {&relay_tcp, &relay_inproc}) {
    for (const auto& shard : stats->shards) {
      relay_high_water = std::max(relay_high_water, shard.queue_high_water);
    }
  }
  const double per_op = n > 0 ? 1.0 / n : 0.0;
  result.per_layer = {
      {"ag.send_frame_us", tracer.p50_self_us("ag.send_frame_us"), "us"},
      {"ag.direct_receive_us", tracer.p50_self_us("ag.direct_receive_us"), "us"},
      {"ag.bridged_tcp_wait_us", tracer.p50_self_us("ag.bridged_tcp_wait_us"), "us"},
      {"ag.bridged_inproc_wait_us",
       tracer.p50_self_us("ag.bridged_inproc_wait_us"), "us"},
      {"ag.frame_bytes", frame_bytes, "bytes"},
      {"viz.decompress_us", tracer.p50_self_us("viz.decompress_us"), "us"},
      {"common.relay_deliveries_per_frame",
       static_cast<double>(relay_tcp.data_delivered +
                           relay_inproc.data_delivered - relay_before) *
           per_op,
       "count"},
      {"common.relay_queue_high_water", static_cast<double>(relay_high_water),
       "frames"},
      {"net.poller_wakeups_per_op",
       static_cast<double>(host_after.wakeups - host_before.wakeups) * per_op,
       "count"},
      {"net.tcp_send_batches_per_op",
       static_cast<double>(wire.send_batches) * per_op, "count"},
      {"net.bytes_sent_per_op", static_cast<double>(bytes_moved) * per_op,
       "bytes"},
      {"net.poll_latency_us", host_after.poll_latency.mean() / 1000.0, "us"},
      {"net.queue_depth_high_water",
       static_cast<double>(host_after.queue_high_water), "frames"},
  };
  if (tracer.enabled()) {
    // The sender compresses inside send_frame(); the codec's own cost is
    // measured on the workload's frames after the window.
    std::uint64_t rep = 0;
    for (int pass = 0; pass < 4; ++pass) {
      for (const auto& frame : pristine) {
        Scope span(tracer, "viz.compress_us", ++rep);
        const auto bytes = cs::viz::compress_frame(frame);
        if (bytes.empty()) result.reject("compress_frame produced nothing");
      }
    }
    result.per_layer.push_back(
        {"viz.compress_us", tracer.p50_self_us("viz.compress_us"), "us"});
    if (!args.trace_file.empty() && !tracer.write_csv(args.trace_file)) {
      std::fprintf(stderr, "media_relay: could not write %s\n",
                   args.trace_file.c_str());
    }
  }
  v.close();
  return result;
}

}  // namespace steerbench
