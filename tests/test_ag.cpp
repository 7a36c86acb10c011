// Tests for the Access Grid substrate: venue server (rooms, participants,
// shared-app registry), vic-style media streams over multicast with
// unicast bridging, and vnc-style desktop sharing.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "ag/desktop.hpp"
#include "ag/media.hpp"
#include "ag/venue.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "util.hpp"

namespace cs::ag {
namespace {

using namespace std::chrono_literals;
using common::Deadline;
using common::StatusCode;

// ----------------------------------------------------------------- venue --

struct VenueFixture {
  net::InProcNetwork net;
  std::unique_ptr<VenueServer> server;

  VenueFixture() {
    auto s = VenueServer::start(net, {"ag:venue"});
    EXPECT_TRUE(s.is_ok());
    server = std::move(s).value();
    EXPECT_TRUE(server
                    ->create_venue("sc03-showcase",
                                   {"mcast/sc03/video", "mcast/sc03/audio"})
                    .is_ok());
  }

  VenueClient join(const std::string& name, bool mc = true) {
    auto c = VenueClient::connect(net, "ag:venue", Deadline::after(2s));
    EXPECT_TRUE(c.is_ok());
    EXPECT_TRUE(c.value()
                    .enter("sc03-showcase", name, mc, Deadline::after(2s))
                    .is_ok());
    return std::move(c).value();
  }
};

TEST(Venue, EnterListLeave) {
  VenueFixture f;
  auto manchester = f.join("manchester");
  auto juelich = f.join("juelich");
  auto phoenix = f.join("phoenix-floor", /*mc=*/false);

  auto listing = manchester.list_participants(Deadline::after(2s));
  ASSERT_TRUE(listing.is_ok());
  EXPECT_EQ(listing.value().size(), 3u);
  int unicast_only = 0;
  for (const auto& p : listing.value()) {
    if (!p.multicast_capable) ++unicast_only;
  }
  EXPECT_EQ(unicast_only, 1);

  ASSERT_TRUE(juelich.leave(Deadline::after(2s)).is_ok());
  listing = manchester.list_participants(Deadline::after(2s));
  ASSERT_TRUE(listing.is_ok());
  EXPECT_EQ(listing.value().size(), 2u);
}

TEST(Venue, EnterUnknownVenueFails) {
  VenueFixture f;
  auto c = VenueClient::connect(f.net, "ag:venue", Deadline::after(2s));
  ASSERT_TRUE(c.is_ok());
  auto s = c.value().enter("atlantis", "nobody", true, Deadline::after(2s));
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(Venue, StreamsPublished) {
  VenueFixture f;
  auto c = f.join("site");
  auto streams = c.streams(Deadline::after(2s));
  ASSERT_TRUE(streams.is_ok());
  EXPECT_EQ(streams.value().video_group, "mcast/sc03/video");
  EXPECT_EQ(streams.value().audio_group, "mcast/sc03/audio");
}

TEST(Venue, SharedAppRegistryPerRoom) {
  VenueFixture f;
  ASSERT_TRUE(
      f.server->create_venue("hlrs-room", {"mcast/hlrs/v", "mcast/hlrs/a"})
          .is_ok());
  auto hlrs = f.join("hlrs");
  ASSERT_TRUE(hlrs.register_app({"covise", "sync=covise:hub pw=s3cret"},
                                Deadline::after(2s))
                  .is_ok());
  // Another participant of the same venue finds it...
  auto guest = f.join("guest");
  auto app = guest.find_app("covise", Deadline::after(2s));
  ASSERT_TRUE(app.is_ok());
  EXPECT_EQ(app.value().connect_info, "sync=covise:hub pw=s3cret");
  // ...but a participant of a different room does not.
  auto c = VenueClient::connect(f.net, "ag:venue", Deadline::after(2s));
  ASSERT_TRUE(c.is_ok());
  ASSERT_TRUE(
      c.value().enter("hlrs-room", "elsewhere", true, Deadline::after(2s)).is_ok());
  auto miss = c.value().find_app("covise", Deadline::after(2s));
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound);
}

TEST(Venue, DisconnectImpliesLeave) {
  VenueFixture f;
  {
    auto temp = f.join("fleeting");
    EXPECT_EQ(f.server->participants("sc03-showcase").size(), 1u);
    temp.disconnect();
  }
  const auto deadline = Deadline::after(2s);
  while (!f.server->participants("sc03-showcase").empty() &&
         !deadline.has_expired()) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(f.server->participants("sc03-showcase").empty());
}

// ----------------------------------------------------------------- media --

viz::Image test_frame(int w, int h, std::uint8_t tone) {
  viz::Image img(w, h, {tone, static_cast<std::uint8_t>(tone / 2), 30});
  img.at(w / 2, h / 2) = {255, 255, 255};
  return img;
}

TEST(Media, MulticastFrameReachesAllReceivers) {
  net::InProcNetwork net;
  auto sender = MediaStream::join(net, "mcast/video");
  auto rx1 = MediaStream::join(net, "mcast/video");
  auto rx2 = MediaStream::join(net, "mcast/video");
  ASSERT_TRUE(sender.is_ok() && rx1.is_ok() && rx2.is_ok());
  const viz::Image frame = test_frame(64, 48, 100);
  ASSERT_TRUE(sender.value().send_frame(frame).is_ok());
  auto got1 = rx1.value().receive_frame(Deadline::after(2s));
  auto got2 = rx2.value().receive_frame(Deadline::after(2s));
  ASSERT_TRUE(got1.is_ok() && got2.is_ok());
  EXPECT_EQ(got1.value(), frame);
  EXPECT_EQ(got2.value(), frame);
  EXPECT_EQ(sender.value().frames_sent(), 1u);
  EXPECT_LT(sender.value().bytes_sent(), frame.byte_size());
}

TEST(Media, FramesAreIndependentlyDecodable) {
  // vic-style loss tolerance: a receiver that joins late (missing earlier
  // frames) can still decode the next one.
  net::InProcNetwork net;
  auto sender = MediaStream::join(net, "mcast/v2");
  ASSERT_TRUE(sender.is_ok());
  ASSERT_TRUE(sender.value().send_frame(test_frame(32, 32, 10)).is_ok());
  auto late = MediaStream::join(net, "mcast/v2");
  ASSERT_TRUE(late.is_ok());
  const viz::Image second = test_frame(32, 32, 200);
  ASSERT_TRUE(sender.value().send_frame(second).is_ok());
  auto got = late.value().receive_frame(Deadline::after(2s));
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), second);
}

TEST(Media, BridgeRelaysToUnicastClients) {
  net::InProcNetwork net;
  auto bridge = UnicastBridge::start(net, {"mcast/v3", "bridge:1"});
  ASSERT_TRUE(bridge.is_ok());
  auto sender = MediaStream::join(net, "mcast/v3");
  ASSERT_TRUE(sender.is_ok());
  // A firewalled site connects to the bridge instead of the group.
  auto conn = net.connect("bridge:1", Deadline::after(2s));
  ASSERT_TRUE(conn.is_ok());
  const viz::Image frame = test_frame(24, 24, 80);
  ASSERT_TRUE(sender.value().send_frame(frame).is_ok());
  auto raw = conn.value()->recv(Deadline::after(2s));
  ASSERT_TRUE(raw.is_ok());
  auto decoded = viz::decompress_frame(raw.value());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), frame);
}

// One wedged unicast client (receive window smaller than a single frame,
// never drained) must not stall the relay for its healthy sibling: every
// frame still reaches the healthy client intact, the wedged client's
// frames are shed by its bounded queue (kDropOldest), and shedding is
// not a teardown. `relay_shards` 0 keeps the ShardedFanout default.
void expect_bridge_isolates_slow_client(std::size_t relay_shards) {
  net::InProcNetwork net;
  UnicastBridge::Options options;
  options.group = "mcast/v5";
  options.address = "bridge:slow";
  options.relay_shards = relay_shards;
  options.send_deadline = std::chrono::milliseconds(50);
  auto bridge = UnicastBridge::start(net, options);
  ASSERT_TRUE(bridge.is_ok());
  auto sender = MediaStream::join(net, "mcast/v5");
  ASSERT_TRUE(sender.is_ok());

  auto healthy = net.connect("bridge:slow", Deadline::after(2s));
  ASSERT_TRUE(healthy.is_ok());
  net::ConnectOptions wedge;
  wedge.recv_capacity_bytes = 16;  // smaller than any compressed frame
  auto wedged = net.connect("bridge:slow", Deadline::after(2s), wedge);
  ASSERT_TRUE(wedged.is_ok());

  constexpr int kFrames = 10;
  for (int i = 0; i < kFrames; ++i) {
    const viz::Image frame = test_frame(24, 24, static_cast<std::uint8_t>(i));
    ASSERT_TRUE(sender.value().send_frame(frame).is_ok());
    // The healthy client sees every frame, bit-exact and in order, with
    // bounded delay — the wedged sibling costs its shard at most one send
    // deadline per pass, never a stall.
    auto raw = healthy.value()->recv(Deadline::after(2s));
    ASSERT_TRUE(raw.is_ok()) << "frame " << i;
    auto decoded = viz::decompress_frame(raw.value());
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(decoded.value(), frame) << "frame " << i;
  }

  // Delivery and drop counters fold into the shard stats once per worker
  // pass, and each shard folds on its own schedule: the healthy client's
  // shard can report every delivery while the wedged client's shard is
  // still blocked in its first send deadline, with no drop counted yet.
  // Wait (bounded) for every counter asserted below, not just one.
  (void)testutil::wait_until(
      [&] {
        const auto s = bridge.value()->relay_stats();
        return s.data_delivered >= static_cast<std::uint64_t>(kFrames) &&
               s.data_dropped > 0;
      },
      2s);
  const auto stats = bridge.value()->relay_stats();
  EXPECT_EQ(stats.subscribers, 2u);       // shedding is not a teardown
  EXPECT_GE(stats.data_delivered, static_cast<std::uint64_t>(kFrames));
  EXPECT_GT(stats.data_dropped, 0u);      // the wedged client missed frames
  EXPECT_EQ(stats.disconnects, 0u);
  // The service-level drop total must be exactly the per-shard sum — the
  // roll-up is how every drop consumer (reports, /metricsz) reads it.
  std::uint64_t per_shard_drops = 0;
  for (const auto& shard : stats.shards) per_shard_drops += shard.data_dropped;
  EXPECT_EQ(stats.data_dropped, per_shard_drops);
  if (relay_shards != 0) {
    EXPECT_EQ(stats.shards.size(), relay_shards);
  }
  EXPECT_EQ(bridge.value()->client_count(), 2u);
  bridge.value()->stop();
}

TEST(Media, BridgeIsolatesSlowClientAndKeepsFramesIntact) {
  expect_bridge_isolates_slow_client(0);
}

// The same check at explicit shard counts, so the layouts where the two
// clients share one worker (1) and sit on different workers (2, 4) are
// both exercised whatever the machine's core count makes the default.
class BridgeSlowClient : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BridgeSlowClient, IsolatedAtShardCount) {
  expect_bridge_isolates_slow_client(GetParam());
}

INSTANTIATE_TEST_SUITE_P(BridgeShards, BridgeSlowClient,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{4}),
                         [](const auto& info) {
                           return std::to_string(info.param);
                         });

TEST(Media, BridgeSurvivesClientChurnUnderRelayLoad) {
  // Clients joining and leaving mid-stream must never wedge the relay or
  // leak registrations: a persistent client keeps receiving throughout,
  // and the registry returns to exactly one client once the churn ends.
  net::InProcNetwork net;
  auto bridge = UnicastBridge::start(net, {"mcast/v6", "bridge:churn"});
  ASSERT_TRUE(bridge.is_ok());
  auto sender = MediaStream::join(net, "mcast/v6");
  ASSERT_TRUE(sender.is_ok());

  auto persistent = net.connect("bridge:churn", Deadline::after(2s));
  ASSERT_TRUE(persistent.is_ok());

  std::atomic<bool> stop{false};
  std::atomic<int> received{0};
  std::thread drainer([&] {
    while (!stop.load()) {
      auto raw = persistent.value()->recv(Deadline::after(50ms));
      if (raw.is_ok()) received.fetch_add(1);
      else if (raw.status().code() == StatusCode::kClosed) return;
    }
  });
  std::thread pump([&] {
    std::uint8_t tone = 0;
    while (!stop.load()) {
      (void)sender.value().send_frame(test_frame(16, 16, ++tone));
      std::this_thread::sleep_for(2ms);
    }
  });

  for (int k = 0; k < 25; ++k) {
    auto conn = net.connect("bridge:churn", Deadline::after(2s));
    ASSERT_TRUE(conn.is_ok());
    if (k % 2 == 0) {
      // Half the churners consume one frame before leaving, so teardown
      // races both pump-side (recv kClosed) and worker-side (send kClosed).
      (void)conn.value()->recv(Deadline::after(200ms));
    }
    conn.value()->close();
  }

  // The persistent client kept receiving through the churn.
  const auto deadline = Deadline::after(5s);
  while (received.load() < 20 && !deadline.has_expired()) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_GE(received.load(), 20);
  // Closed churners are reaped from the registry (either their pump or a
  // relay worker observed the close).
  while (bridge.value()->client_count() > 1 && !deadline.has_expired()) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(bridge.value()->client_count(), 1u);
  stop.store(true);
  pump.join();
  drainer.join();
  bridge.value()->stop();
}

TEST(Media, BridgeRelaysUnicastIntoGroup) {
  net::InProcNetwork net;
  auto bridge = UnicastBridge::start(net, {"mcast/v4", "bridge:2"});
  ASSERT_TRUE(bridge.is_ok());
  auto receiver = MediaStream::join(net, "mcast/v4");
  ASSERT_TRUE(receiver.is_ok());
  auto conn = net.connect("bridge:2", Deadline::after(2s));
  ASSERT_TRUE(conn.is_ok());
  const viz::Image frame = test_frame(16, 16, 50);
  const auto payload = viz::compress_frame(frame);
  ASSERT_TRUE(conn.value()->send(payload, Deadline::after(2s)).is_ok());
  auto got = receiver.value().receive_frame(Deadline::after(2s));
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), frame);
}

TEST(Media, TcpBridgeClientsAreHostedWithoutPumpThreads) {
  // Unicast side over TCP: clients carry a native handle, so the bridge
  // hosts them on its event host — no pump thread and no relay
  // subscription per client, and the relay still flows both ways.
  net::InProcNetwork group_net;
  net::TcpNetwork client_net;
  UnicastBridge::Options options;
  options.group = "mcast/v6";
  options.address = "0";  // kernel-assigned loopback port
  options.relay_shards = 1;
  auto bridge = UnicastBridge::start(group_net, client_net, options);
  ASSERT_TRUE(bridge.is_ok());
  auto sender = MediaStream::join(group_net, "mcast/v6");
  ASSERT_TRUE(sender.is_ok());

  auto c1 = client_net.connect(bridge.value()->address(), Deadline::after(2s));
  auto c2 = client_net.connect(bridge.value()->address(), Deadline::after(2s));
  ASSERT_TRUE(c1.is_ok() && c2.is_ok());

  // Group -> both hosted clients (the group pump drains accepts before
  // relaying, so neither client can miss this frame).
  const viz::Image frame = test_frame(24, 24, 90);
  ASSERT_TRUE(sender.value().send_frame(frame).is_ok());
  for (auto* c : {&c1, &c2}) {
    auto raw = c->value()->recv(Deadline::after(2s));
    ASSERT_TRUE(raw.is_ok());
    auto decoded = viz::decompress_frame(raw.value());
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(decoded.value(), frame);
  }
  const std::size_t threads_with_two = bridge.value()->service_threads();
  EXPECT_EQ(bridge.value()->host_stats().hosted, 2u);
  EXPECT_EQ(bridge.value()->relay_stats().subscribers, 0u);

  // Client -> group and -> sibling, via the poller ingress path.
  const viz::Image reply = test_frame(16, 16, 40);
  ASSERT_TRUE(
      c1.value()->send(viz::compress_frame(reply), Deadline::after(2s)).is_ok());
  auto got = sender.value().receive_frame(Deadline::after(2s));
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), reply);
  auto sibling_raw = c2.value()->recv(Deadline::after(2s));
  ASSERT_TRUE(sibling_raw.is_ok());
  auto sibling = viz::decompress_frame(sibling_raw.value());
  ASSERT_TRUE(sibling.is_ok());
  EXPECT_EQ(sibling.value(), reply);

  // More clients, same thread count.
  auto c3 = client_net.connect(bridge.value()->address(), Deadline::after(2s));
  ASSERT_TRUE(c3.is_ok());
  const auto reg_deadline = Deadline::after(2s);
  while (bridge.value()->client_count() < 3 && !reg_deadline.has_expired()) {
    ASSERT_TRUE(sender.value().send_frame(frame).is_ok());
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(bridge.value()->client_count(), 3u);
  EXPECT_EQ(bridge.value()->service_threads(), threads_with_two);

  // A hosted client's close reaches drop_client via the poller.
  c1.value()->close();
  const auto drop_deadline = Deadline::after(2s);
  while (bridge.value()->client_count() > 2 && !drop_deadline.has_expired()) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(bridge.value()->client_count(), 2u);
  bridge.value()->stop();
}

// --------------------------------------------------------------- desktop --

TEST(Desktop, ViewersTrackTheSharedDesktop) {
  net::InProcNetwork net;
  auto server = DesktopShareServer::start(net, {"vnc:1"});
  ASSERT_TRUE(server.is_ok());
  ASSERT_TRUE(server.value()->update(test_frame(40, 30, 60)).is_ok());

  auto viewer = DesktopShareViewer::connect(net, "vnc:1", Deadline::after(2s));
  ASSERT_TRUE(viewer.is_ok());
  // The join snapshot arrives as a key frame.
  auto first = viewer.value().await_update(Deadline::after(2s));
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(first.value(), test_frame(40, 30, 60));

  // A subsequent update arrives as a delta and decodes to the new desktop.
  const viz::Image next = test_frame(40, 30, 180);
  const auto deadline = Deadline::after(2s);
  while (server.value()->viewer_count() < 1 && !deadline.has_expired()) {
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_TRUE(server.value()->update(next).is_ok());
  auto second = viewer.value().await_update(Deadline::after(2s));
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value(), next);
}

TEST(Desktop, InputEventsReachTheApplication) {
  net::InProcNetwork net;
  std::mutex mu;
  std::vector<std::string> events;
  auto server = DesktopShareServer::start(
      net, {"vnc:2"}, [&](const std::string& e) {
        std::scoped_lock lock(mu);
        events.push_back(e);
      });
  ASSERT_TRUE(server.is_ok());
  auto viewer = DesktopShareViewer::connect(net, "vnc:2", Deadline::after(2s));
  ASSERT_TRUE(viewer.is_ok());
  ASSERT_TRUE(viewer.value()
                  .send_event("SET miscibility 0.3", Deadline::after(2s))
                  .is_ok());
  const auto deadline = Deadline::after(2s);
  for (;;) {
    {
      std::scoped_lock lock(mu);
      if (!events.empty()) break;
    }
    if (deadline.has_expired()) break;
    std::this_thread::sleep_for(5ms);
  }
  std::scoped_lock lock(mu);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], "SET miscibility 0.3");
  EXPECT_EQ(server.value()->stats().events_received, 1u);
}

TEST(Desktop, TrafficScalesWithChangedPixels) {
  // Identical desktops produce near-zero deltas; busy ones do not — the
  // mechanism behind E7's vnc-vs-param-sync contrast.
  net::InProcNetwork net;
  auto server = DesktopShareServer::start(net, {"vnc:3"});
  ASSERT_TRUE(server.is_ok());
  auto viewer = DesktopShareViewer::connect(net, "vnc:3", Deadline::after(2s));
  ASSERT_TRUE(viewer.is_ok());
  const auto deadline = Deadline::after(2s);
  while (server.value()->viewer_count() < 1 && !deadline.has_expired()) {
    std::this_thread::sleep_for(2ms);
  }
  const viz::Image desk = test_frame(100, 100, 90);
  ASSERT_TRUE(server.value()->update(desk).is_ok());
  ASSERT_TRUE(viewer.value().await_update(Deadline::after(2s)).is_ok());
  const auto after_first = server.value()->stats().bytes_pushed;

  ASSERT_TRUE(server.value()->update(desk).is_ok());  // no change
  ASSERT_TRUE(viewer.value().await_update(Deadline::after(2s)).is_ok());
  const auto unchanged_delta = server.value()->stats().bytes_pushed - after_first;
  EXPECT_LT(unchanged_delta, desk.byte_size() / 50);

  viz::Image busy = desk;
  common::Rng rng{5};
  for (auto& p : busy.pixels()) {
    p.r = static_cast<std::uint8_t>(rng.next_below(256));
  }
  ASSERT_TRUE(server.value()->update(busy).is_ok());
  ASSERT_TRUE(viewer.value().await_update(Deadline::after(2s)).is_ok());
  const auto busy_delta =
      server.value()->stats().bytes_pushed - after_first - unchanged_delta;
  EXPECT_GT(busy_delta, 50 * unchanged_delta);
}

TEST(Desktop, ViewerDisconnectCleansUp) {
  net::InProcNetwork net;
  auto server = DesktopShareServer::start(net, {"vnc:4"});
  ASSERT_TRUE(server.is_ok());
  {
    auto viewer = DesktopShareViewer::connect(net, "vnc:4", Deadline::after(2s));
    ASSERT_TRUE(viewer.is_ok());
    const auto deadline = Deadline::after(2s);
    while (server.value()->viewer_count() < 1 && !deadline.has_expired()) {
      std::this_thread::sleep_for(2ms);
    }
    viewer.value().disconnect();
  }
  const auto deadline = Deadline::after(2s);
  while (server.value()->viewer_count() > 0 && !deadline.has_expired()) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(server.value()->viewer_count(), 0u);
  // Updates keep working with zero viewers.
  EXPECT_TRUE(server.value()->update(test_frame(20, 20, 1)).is_ok());
}

TEST(Desktop, TcpViewersAreHostedWithoutPumpThreads) {
  // Sixteen TCP viewers land on the shared readiness host: the server's
  // thread count stays where it was with one viewer, and a key frame still
  // reaches the whole populated fleet.
  net::TcpNetwork net;
  auto server = DesktopShareServer::start(net, {"0"});
  ASSERT_TRUE(server.is_ok());
  ASSERT_TRUE(server.value()->update(test_frame(32, 24, 60)).is_ok());
  const std::string address = server.value()->address();

  std::vector<DesktopShareViewer> viewers;
  std::size_t threads_with_one = 0;
  for (int i = 0; i < 16; ++i) {
    auto viewer = DesktopShareViewer::connect(net, address, Deadline::after(5s));
    ASSERT_TRUE(viewer.is_ok());
    viewers.push_back(std::move(viewer).value());
    if (i == 0) {
      const auto first_deadline = Deadline::after(5s);
      while (server.value()->viewer_count() < 1 &&
             !first_deadline.has_expired()) {
        std::this_thread::sleep_for(2ms);
      }
      threads_with_one = server.value()->service_threads();
    }
  }
  auto deadline = Deadline::after(5s);
  while (server.value()->viewer_count() < 16 && !deadline.has_expired()) {
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_EQ(server.value()->viewer_count(), 16u);
  EXPECT_EQ(server.value()->service_threads(), threads_with_one);
  EXPECT_LE(server.value()->service_threads(), 2u);

  // Every viewer decodes the join snapshot; the ingress path still works
  // with the fleet attached.
  for (auto& viewer : viewers) {
    auto first = viewer.await_update(Deadline::after(5s));
    ASSERT_TRUE(first.is_ok());
    EXPECT_EQ(first.value(), test_frame(32, 24, 60));
  }
  ASSERT_TRUE(viewers[0].send_event("poll", Deadline::after(2s)).is_ok());
  deadline = Deadline::after(5s);
  while (server.value()->stats().events_received < 1 &&
         !deadline.has_expired()) {
    std::this_thread::sleep_for(2ms);
  }
  EXPECT_EQ(server.value()->stats().events_received, 1u);

  server.value()->stop();
  server.value()->stop();  // idempotent
  EXPECT_FALSE(
      DesktopShareViewer::connect(net, address, Deadline::after(200ms))
          .is_ok());
}

TEST(Desktop, InProcViewersShareOneFallbackPump) {
  // Handle-less viewers share the connection host's single fallback pump;
  // the population never grows the thread count.
  net::InProcNetwork net;
  auto server = DesktopShareServer::start(net, {"vnc:flat"});
  ASSERT_TRUE(server.is_ok());
  ASSERT_TRUE(server.value()->update(test_frame(16, 12, 30)).is_ok());
  std::vector<DesktopShareViewer> viewers;
  for (int i = 0; i < 8; ++i) {
    auto viewer =
        DesktopShareViewer::connect(net, "vnc:flat", Deadline::after(5s));
    ASSERT_TRUE(viewer.is_ok());
    viewers.push_back(std::move(viewer).value());
  }
  const auto deadline = Deadline::after(5s);
  while (server.value()->viewer_count() < 8 && !deadline.has_expired()) {
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_EQ(server.value()->viewer_count(), 8u);
  // In-process accept pump + epoll poller + shared fallback pump.
  EXPECT_LE(server.value()->service_threads(), 3u);
  for (auto& viewer : viewers) {
    ASSERT_TRUE(viewer.await_update(Deadline::after(5s)).is_ok());
  }
  server.value()->stop();
  server.value()->stop();
}

}  // namespace
}  // namespace cs::ag
