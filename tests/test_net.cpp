// Unit tests for cs::net: in-process transport semantics (deadlines,
// backpressure, close), the link model, multicast groups, and the real TCP
// implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "util.hpp"

namespace cs::net {
namespace {

using namespace std::chrono_literals;
using common::Bytes;
using common::Deadline;
using common::StatusCode;
using testutil::bytes_of;
using testutil::text_of;

// ---------------------------------------------------------------- InProc --

TEST(InProc, ConnectSendRecvRoundTrip) {
  InProcNetwork net;
  auto listener = net.listen("host:1");
  ASSERT_TRUE(listener.is_ok());
  auto client = net.connect("host:1", Deadline::after(1s));
  ASSERT_TRUE(client.is_ok());
  auto server = listener.value()->accept(Deadline::after(1s));
  ASSERT_TRUE(server.is_ok());

  ASSERT_TRUE(client.value()->send(bytes_of("ping"), Deadline::after(1s)).is_ok());
  auto got = server.value()->recv(Deadline::after(1s));
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(text_of(got.value()), "ping");

  ASSERT_TRUE(server.value()->send(bytes_of("pong"), Deadline::after(1s)).is_ok());
  auto back = client.value()->recv(Deadline::after(1s));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(text_of(back.value()), "pong");
}

TEST(InProc, ConnectToUnknownAddressFails) {
  InProcNetwork net;
  auto r = net.connect("nowhere:9", Deadline::after(10ms));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(InProc, ListenTwiceOnSameAddressFails) {
  InProcNetwork net;
  auto a = net.listen("dup:1");
  ASSERT_TRUE(a.is_ok());
  auto b = net.listen("dup:1");
  ASSERT_FALSE(b.is_ok());
  EXPECT_EQ(b.status().code(), StatusCode::kAlreadyExists);
}

TEST(InProc, AddressReusableAfterListenerClosed) {
  InProcNetwork net;
  {
    auto a = net.listen("reuse:1");
    ASSERT_TRUE(a.is_ok());
  }  // destructor closes and unregisters
  auto b = net.listen("reuse:1");
  EXPECT_TRUE(b.is_ok());
}

TEST(InProc, RecvTimesOutWhenNoMessage) {
  InProcNetwork net;
  auto listener = net.listen("t:1");
  auto client = net.connect("t:1", Deadline::after(1s));
  ASSERT_TRUE(client.is_ok());
  const auto t0 = common::Clock::now();
  auto r = client.value()->recv(Deadline::after(50ms));
  const auto elapsed = common::Clock::now() - t0;
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_GE(elapsed, 45ms);
  EXPECT_LT(elapsed, 500ms);
}

TEST(InProc, AcceptTimesOutWhenNobodyConnects) {
  InProcNetwork net;
  auto listener = net.listen("t:2");
  auto r = listener.value()->accept(Deadline::after(30ms));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
}

TEST(InProc, CloseWakesBlockedRecv) {
  InProcNetwork net;
  auto listener = net.listen("t:3");
  auto client = net.connect("t:3", Deadline::after(1s));
  ASSERT_TRUE(client.is_ok());
  auto conn = client.value();
  std::thread closer([&] {
    std::this_thread::sleep_for(30ms);
    conn->close();
  });
  auto r = conn->recv(Deadline::after(5s));
  closer.join();
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kClosed);
}

TEST(InProc, PeerCloseDrainsQueuedMessagesFirst) {
  InProcNetwork net;
  auto listener = net.listen("t:4");
  auto client = net.connect("t:4", Deadline::after(1s));
  auto server = listener.value()->accept(Deadline::after(1s));
  ASSERT_TRUE(server.is_ok());
  ASSERT_TRUE(client.value()->send(bytes_of("last words"), Deadline::after(1s)).is_ok());
  client.value()->close();
  auto got = server.value()->recv(Deadline::after(1s));
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(text_of(got.value()), "last words");
  auto eof = server.value()->recv(Deadline::after(1s));
  ASSERT_FALSE(eof.is_ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kClosed);
}

TEST(InProc, SendAfterCloseFails) {
  InProcNetwork net;
  auto listener = net.listen("t:5");
  auto client = net.connect("t:5", Deadline::after(1s));
  client.value()->close();
  auto s = client.value()->send(bytes_of("x"), Deadline::after(10ms));
  EXPECT_EQ(s.code(), StatusCode::kClosed);
}

TEST(InProc, BackpressureBlocksAndTimesOut) {
  InProcNetwork net;
  auto listener = net.listen("bp:1");
  ConnectOptions opts;
  opts.recv_capacity_bytes = 1024;  // tiny receive window
  auto client = net.connect("bp:1", Deadline::after(1s), opts);
  ASSERT_TRUE(client.is_ok());
  auto server = listener.value()->accept(Deadline::after(1s));
  ASSERT_TRUE(server.is_ok());
  const Bytes big(800, 0x55);
  ASSERT_TRUE(client.value()->send(big, Deadline::after(1s)).is_ok());
  // Second send exceeds the window; nobody drains -> must time out.
  auto s = client.value()->send(big, Deadline::after(50ms));
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
  // Draining the first message frees the window.
  ASSERT_TRUE(server.value()->recv(Deadline::after(1s)).is_ok());
  EXPECT_TRUE(client.value()->send(big, Deadline::after(1s)).is_ok());
}

TEST(InProc, MessagesArriveInOrder) {
  InProcNetwork net;
  auto listener = net.listen("ord:1");
  auto client = net.connect("ord:1", Deadline::after(1s));
  auto server = listener.value()->accept(Deadline::after(1s));
  for (int i = 0; i < 100; ++i) {
    Bytes b(4);
    std::memcpy(b.data(), &i, 4);
    ASSERT_TRUE(client.value()->send(b, Deadline::after(1s)).is_ok());
  }
  for (int i = 0; i < 100; ++i) {
    auto r = server.value()->recv(Deadline::after(1s));
    ASSERT_TRUE(r.is_ok());
    int got;
    std::memcpy(&got, r.value().data(), 4);
    EXPECT_EQ(got, i);
  }
}

TEST(InProc, StatsCountTraffic) {
  InProcNetwork net;
  auto listener = net.listen("st:1");
  auto client = net.connect("st:1", Deadline::after(1s));
  auto server = listener.value()->accept(Deadline::after(1s));
  ASSERT_TRUE(client.value()->send(Bytes(100, 1), Deadline::after(1s)).is_ok());
  ASSERT_TRUE(client.value()->send(Bytes(50, 2), Deadline::after(1s)).is_ok());
  ASSERT_TRUE(server.value()->recv(Deadline::after(1s)).is_ok());
  ASSERT_TRUE(server.value()->recv(Deadline::after(1s)).is_ok());
  const auto cs = client.value()->stats();
  const auto ss = server.value()->stats();
  EXPECT_EQ(cs.messages_sent, 2u);
  EXPECT_EQ(cs.bytes_sent, 150u);
  EXPECT_EQ(ss.messages_received, 2u);
  EXPECT_EQ(ss.bytes_received, 150u);
}

// ------------------------------------------------------------ Link model --

TEST(Link, LatencyDelaysDelivery) {
  InProcNetwork net;
  auto listener = net.listen("lat:1");
  ConnectOptions opts;
  opts.link.latency = 50ms;
  auto client = net.connect("lat:1", Deadline::after(1s), opts);
  auto server = listener.value()->accept(Deadline::after(1s));
  const auto t0 = common::Clock::now();
  ASSERT_TRUE(client.value()->send(bytes_of("delayed"), Deadline::after(1s)).is_ok());
  auto r = server.value()->recv(Deadline::after(1s));
  const auto elapsed = common::Clock::now() - t0;
  ASSERT_TRUE(r.is_ok());
  EXPECT_GE(elapsed, 45ms);
}

TEST(Link, InFlightMessageNotReceivableBeforeArrival) {
  InProcNetwork net;
  auto listener = net.listen("lat:2");
  ConnectOptions opts;
  opts.link.latency = 200ms;
  auto client = net.connect("lat:2", Deadline::after(1s), opts);
  auto server = listener.value()->accept(Deadline::after(1s));
  ASSERT_TRUE(client.value()->send(bytes_of("slow"), Deadline::after(1s)).is_ok());
  // A short-deadline recv must time out even though the message is queued.
  auto r = server.value()->recv(Deadline::after(20ms));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  // But it is delivered eventually.
  auto r2 = server.value()->recv(Deadline::after(1s));
  EXPECT_TRUE(r2.is_ok());
}

TEST(Link, BandwidthAddsTransmissionDelay) {
  InProcNetwork net;
  auto listener = net.listen("bw:1");
  ConnectOptions opts;
  opts.link.bandwidth_bytes_per_sec = 1'000'000;  // 1 MB/s
  auto client = net.connect("bw:1", Deadline::after(1s), opts);
  auto server = listener.value()->accept(Deadline::after(1s));
  const Bytes payload(100'000, 7);  // 100 KB -> 100 ms at 1 MB/s
  const auto t0 = common::Clock::now();
  ASSERT_TRUE(client.value()->send(payload, Deadline::after(1s)).is_ok());
  auto r = server.value()->recv(Deadline::after(1s));
  const auto elapsed = common::Clock::now() - t0;
  ASSERT_TRUE(r.is_ok());
  EXPECT_GE(elapsed, 90ms);
  EXPECT_LT(elapsed, 600ms);
}

TEST(Link, DropProbabilityOneLosesEverything) {
  InProcNetwork net;
  auto listener = net.listen("dr:1");
  ConnectOptions opts;
  opts.link.drop_probability = 1.0;
  auto client = net.connect("dr:1", Deadline::after(1s), opts);
  auto server = listener.value()->accept(Deadline::after(1s));
  // Sends "succeed" (fire-and-forget semantics) but nothing arrives.
  ASSERT_TRUE(client.value()->send(bytes_of("gone"), Deadline::after(1s)).is_ok());
  auto r = server.value()->recv(Deadline::after(60ms));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
}

TEST(Link, SchedulerSerializesBandwidth) {
  LinkModel m;
  m.bandwidth_bytes_per_sec = 1'000'000;
  LinkScheduler sched{m};
  common::TimePoint first, second;
  ASSERT_TRUE(sched.schedule(100'000, first));
  ASSERT_TRUE(sched.schedule(100'000, second));
  // The second message queues behind the first: ~100 ms later.
  EXPECT_GE(second - first, 90ms);
}

TEST(Link, PresetModelsAreSane) {
  EXPECT_GT(LinkModel::wan_transatlantic().latency,
            LinkModel::wan_europe().latency);
  EXPECT_GT(LinkModel::wan_europe().latency, LinkModel::lan().latency);
  EXPECT_GT(LinkModel::lan().bandwidth_bytes_per_sec,
            LinkModel::wan_transatlantic().bandwidth_bytes_per_sec);
}

// --------------------------------------------------------------- Multicast --

TEST(Multicast, FanOutReachesAllOtherMembers) {
  InProcNetwork net;
  auto a = net.join_group("venue/video");
  auto b = net.join_group("venue/video");
  auto c = net.join_group("venue/video");
  ASSERT_TRUE(a.is_ok() && b.is_ok() && c.is_ok());
  EXPECT_EQ(net.group_size("venue/video"), 3u);

  ASSERT_TRUE(a.value()->send(bytes_of("frame1"), Deadline::after(1s)).is_ok());
  auto rb = b.value()->recv(Deadline::after(1s));
  auto rc = c.value()->recv(Deadline::after(1s));
  ASSERT_TRUE(rb.is_ok());
  ASSERT_TRUE(rc.is_ok());
  EXPECT_EQ(text_of(rb.value()), "frame1");
  EXPECT_EQ(text_of(rc.value()), "frame1");
  // The sender does not hear its own message.
  auto ra = a.value()->recv(Deadline::after(30ms));
  EXPECT_FALSE(ra.is_ok());
}

TEST(Multicast, LeaveRemovesMember) {
  InProcNetwork net;
  auto a = net.join_group("g");
  auto b = net.join_group("g");
  b.value()->leave();
  EXPECT_EQ(net.group_size("g"), 1u);
  EXPECT_FALSE(b.value()->is_member());
  auto r = b.value()->recv(Deadline::after(10ms));
  EXPECT_EQ(r.status().code(), StatusCode::kClosed);
}

TEST(Multicast, SocketDestructorLeaves) {
  InProcNetwork net;
  auto a = net.join_group("g2");
  { auto b = net.join_group("g2"); EXPECT_EQ(net.group_size("g2"), 2u); }
  EXPECT_EQ(net.group_size("g2"), 1u);
}

TEST(Multicast, StatsCountTraffic) {
  InProcNetwork net;
  auto a = net.join_group("stats/g");
  auto b = net.join_group("stats/g");
  auto c = net.join_group("stats/g");
  ASSERT_TRUE(a.is_ok() && b.is_ok() && c.is_ok());
  ASSERT_TRUE(a.value()->send(Bytes(100, 1), Deadline::after(1s)).is_ok());
  ASSERT_TRUE(a.value()->send(Bytes(50, 2), Deadline::after(1s)).is_ok());
  ASSERT_TRUE(b.value()->recv(Deadline::after(1s)).is_ok());
  ASSERT_TRUE(b.value()->recv(Deadline::after(1s)).is_ok());
  const auto sender = a.value()->stats();
  // One datagram per send, not one per fan-out copy.
  EXPECT_EQ(sender.messages_sent, 2u);
  EXPECT_EQ(sender.bytes_sent, 150u);
  EXPECT_EQ(sender.messages_received, 0u);
  const auto receiver = b.value()->stats();
  EXPECT_EQ(receiver.messages_received, 2u);
  EXPECT_EQ(receiver.bytes_received, 150u);
  EXPECT_EQ(receiver.messages_sent, 0u);
  // c never drained; its receive counters stay zero.
  EXPECT_EQ(c.value()->stats().messages_received, 0u);
}

TEST(Multicast, SlowMemberDoesNotBlockSender) {
  // Best-effort semantics: a member that never drains just misses frames.
  InProcNetwork net;
  auto sender = net.join_group("g3");
  auto sleepy = net.join_group("g3");
  const Bytes frame(1 << 20, 9);  // 1 MiB
  for (int i = 0; i < 200; ++i) {  // far beyond the 64 MiB default window
    const auto t0 = common::Clock::now();
    ASSERT_TRUE(sender.value()->send(frame, Deadline::after(1s)).is_ok());
    EXPECT_LT(common::Clock::now() - t0, 1s);
  }
  // sleepy can still read the earliest frames.
  auto r = sleepy.value()->recv(Deadline::after(1s));
  EXPECT_TRUE(r.is_ok());
}

// ------------------------------------------------------------------- TCP --

TEST(Tcp, LoopbackRoundTrip) {
  TcpNetwork net;
  auto listener = net.listen("0");  // kernel-assigned port
  ASSERT_TRUE(listener.is_ok());
  const std::string port = listener.value()->address();
  auto client = net.connect(port, Deadline::after(1s));
  ASSERT_TRUE(client.is_ok());
  auto server = listener.value()->accept(Deadline::after(1s));
  ASSERT_TRUE(server.is_ok());

  ASSERT_TRUE(client.value()->send(bytes_of("over tcp"), Deadline::after(1s)).is_ok());
  auto r = server.value()->recv(Deadline::after(1s));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(text_of(r.value()), "over tcp");
}

TEST(Tcp, LargeMessageSurvivesFraming) {
  TcpNetwork net;
  auto listener = net.listen("0");
  const std::string port = listener.value()->address();
  auto client = net.connect(port, Deadline::after(1s));
  auto server = listener.value()->accept(Deadline::after(1s));
  Bytes big(3 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  std::thread sender([&] {
    ASSERT_TRUE(client.value()->send(big, Deadline::after(5s)).is_ok());
  });
  auto r = server.value()->recv(Deadline::after(5s));
  sender.join();
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), big);
}

TEST(Tcp, ConnectToClosedPortFails) {
  TcpNetwork net;
  auto r = net.connect("1", Deadline::after(100ms));  // port 1: refused
  EXPECT_FALSE(r.is_ok());
}

TEST(Tcp, RecvDeadlineExpires) {
  TcpNetwork net;
  auto listener = net.listen("0");
  const std::string port = listener.value()->address();
  auto client = net.connect(port, Deadline::after(1s));
  auto server = listener.value()->accept(Deadline::after(1s));
  auto r = server.value()->recv(Deadline::after(50ms));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
}

TEST(Tcp, PeerCloseYieldsClosed) {
  TcpNetwork net;
  auto listener = net.listen("0");
  const std::string port = listener.value()->address();
  auto client = net.connect(port, Deadline::after(1s));
  auto server = listener.value()->accept(Deadline::after(1s));
  client.value()->close();
  auto r = server.value()->recv(Deadline::after(1s));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kClosed);
}

TEST(Tcp, HostPortAddressingRoundTrips) {
  // A named host survives listen() -> address() -> connect() in the same
  // host:port form, and the historical bare-port form keeps dialing the
  // same socket.
  TcpNetwork net;
  auto listener = net.listen("127.0.0.1:0");
  ASSERT_TRUE(listener.is_ok());
  const std::string address = listener.value()->address();
  ASSERT_EQ(address.rfind("127.0.0.1:", 0), 0u) << address;
  const std::string port = address.substr(address.rfind(':') + 1);
  EXPECT_NE(std::stoi(port), 0);

  for (const std::string& dial :
       {address, "localhost:" + port, port}) {
    auto client = net.connect(dial, Deadline::after(1s));
    ASSERT_TRUE(client.is_ok()) << dial;
    auto server = listener.value()->accept(Deadline::after(1s));
    ASSERT_TRUE(server.is_ok());
    ASSERT_TRUE(
        client.value()->send(bytes_of(dial), Deadline::after(1s)).is_ok());
    auto r = server.value()->recv(Deadline::after(1s));
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(text_of(r.value()), dial);
  }
}

TEST(Tcp, BarePortListenKeepsHistoricalForm) {
  // Loopback callers feed the returned address straight back into
  // connect(), so a bare-port listen must keep returning bare digits.
  TcpNetwork net;
  auto listener = net.listen("0");
  ASSERT_TRUE(listener.is_ok());
  const std::string address = listener.value()->address();
  EXPECT_EQ(address.find(':'), std::string::npos) << address;
  EXPECT_EQ(address.find_first_not_of("0123456789"), std::string::npos)
      << address;
}

TEST(Tcp, AnyInterfaceBindAcceptsLoopbackDials) {
  // "0.0.0.0:PORT" binds every interface — the multi-host loadgen form —
  // and a loopback dial to the kernel-assigned port still lands on it.
  TcpNetwork net;
  auto listener = net.listen("0.0.0.0:0");
  ASSERT_TRUE(listener.is_ok());
  const std::string address = listener.value()->address();
  ASSERT_EQ(address.rfind("0.0.0.0:", 0), 0u) << address;
  const std::string port = address.substr(address.rfind(':') + 1);
  auto client = net.connect("127.0.0.1:" + port, Deadline::after(1s));
  ASSERT_TRUE(client.is_ok());
  EXPECT_TRUE(listener.value()->accept(Deadline::after(1s)).is_ok());
}

TEST(Tcp, MalformedAddressesAreRejectedBeforeTheWire) {
  // Bad host:port forms fail fast with kInvalidArgument instead of a dial
  // timeout or an errno surprise.
  TcpNetwork net;
  for (const std::string& bad :
       {std::string{""}, std::string{"abc"}, std::string{"12x4"},
        std::string{"99999"}, std::string{"10.0.0.7:"},
        std::string{"not-a-host:80"}, std::string{"1.2.3:80"},
        std::string{"1.2.3.4:port"}}) {
    auto listener = net.listen(bad);
    ASSERT_FALSE(listener.is_ok()) << bad;
    EXPECT_EQ(listener.status().code(), StatusCode::kInvalidArgument) << bad;
    auto conn = net.connect(bad, Deadline::after(100ms));
    ASSERT_FALSE(conn.is_ok()) << bad;
    EXPECT_EQ(conn.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  // Port 0 is a valid ephemeral bind but never a dialable peer.
  EXPECT_FALSE(net.connect("127.0.0.1:0", Deadline::after(100ms)).is_ok());
}

// -------------------------------------------------- Transport parity --
//
// The deadline/close contract must hold identically for both transports:
// a send blocked on a full receive window returns kTimeout by its deadline,
// and close() wakes a blocked send with kClosed. Loadgen soaks lean on
// exactly these semantics when slow consumers push senders into the window.

using testutil::TransportPair;

struct ParityCase {
  const char* name;
  TransportPair (*make)();
  /// Per-send chunk: must fit the transport's window (an inproc message
  /// larger than recv_capacity_bytes can never be accepted) yet fill it in
  /// few sends (TCP loopback buffers autotune to megabytes).
  std::size_t chunk_bytes;
};

// Without this, gtest prints the case's raw bytes (pointers included) after
// the test name, and ctest's discovered names change from build to build.
void PrintTo(const ParityCase& c, std::ostream* os) { *os << c.name; }

// Shared spinup lives in tests/util.hpp; these shims pin the no-argument
// signature ParityCase stores.
TransportPair make_inproc_pair() { return testutil::make_inproc_pair(); }

TransportPair make_tcp_pair() { return testutil::make_tcp_pair(); }

class TransportParity : public ::testing::TestWithParam<ParityCase> {
 protected:
  /// Sends chunks nobody drains until one hits the window and times out.
  /// Returns false if the transport absorbed everything (test setup bug).
  static bool fill_until_blocked(Connection& conn, std::size_t chunk_bytes) {
    const Bytes chunk(chunk_bytes, 0x5a);
    for (int i = 0; i < 64; ++i) {
      const auto s = conn.send(chunk, Deadline::after(50ms));
      if (s.code() == StatusCode::kTimeout) return true;
      if (!s.is_ok()) return false;
    }
    return false;
  }
};

TEST_P(TransportParity, BlockedSendTimesOutByDeadline) {
  TransportPair pair = GetParam().make();
  const Bytes chunk(GetParam().chunk_bytes, 0xa5);
  ASSERT_TRUE(fill_until_blocked(*pair.client, chunk.size()));
  // The window is full: a fresh send must block and then return kTimeout
  // close to its deadline — not early, not unboundedly late.
  const auto t0 = common::Clock::now();
  const auto s = pair.client->send(chunk, Deadline::after(200ms));
  const auto elapsed = common::Clock::now() - t0;
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
  EXPECT_GE(elapsed, 180ms);
  EXPECT_LT(elapsed, 2s);
}

TEST_P(TransportParity, CloseWakesBlockedSend) {
  TransportPair pair = GetParam().make();
  const Bytes chunk(GetParam().chunk_bytes, 0xa5);
  ASSERT_TRUE(fill_until_blocked(*pair.client, chunk.size()));
  std::thread closer([&] {
    std::this_thread::sleep_for(100ms);
    pair.client->close();
  });
  const auto t0 = common::Clock::now();
  const auto s = pair.client->send(chunk, Deadline::after(30s));
  const auto elapsed = common::Clock::now() - t0;
  closer.join();
  EXPECT_EQ(s.code(), StatusCode::kClosed);
  EXPECT_LT(elapsed, 5s);  // woken by close(), not by the deadline
}

TEST_P(TransportParity, TimedOutSendsDoNotCorruptFraming) {
  // A send abandoned at its deadline mid-message must not desynchronize
  // the stream: every message the receiver does get has to arrive intact
  // (TCP stashes the unsent tail and flushes it before the next message;
  // inproc messages are all-or-nothing).
  TransportPair pair = GetParam().make();
  const Bytes chunk(GetParam().chunk_bytes, 0xa5);
  ASSERT_TRUE(fill_until_blocked(*pair.client, chunk.size()));
  // Several more sends time out against the full window; with a partially
  // written message on the wire this is where framing would break.
  for (int i = 0; i < 3; ++i) {
    (void)pair.client->send(chunk, Deadline::after(30ms));
  }
  // Drain everything, then ship a distinct marker message after the chaos.
  const Bytes marker{1, 2, 3};
  std::thread drainer([&] {
    for (;;) {
      auto raw = pair.server->recv(Deadline::after(2s));
      if (!raw.is_ok()) break;  // timeout: stream drained (or closed)
      // Every delivered message is bit-exact: either one of the uniform
      // fill chunks (fill_until_blocked uses 0x5a, ours 0xa5) or the
      // marker. A garbled length prefix or sheared payload fails here.
      const Bytes& m = raw.value();
      const bool uniform_chunk =
          m.size() == chunk.size() &&
          std::all_of(m.begin(), m.end(),
                      [&](std::uint8_t b) { return b == m.front(); });
      ASSERT_TRUE(m == marker || uniform_chunk)
          << "framing corrupted: got " << m.size() << " bytes";
      if (m == marker) return;  // marker arrived intact
    }
    FAIL() << "marker message never arrived";
  });
  EXPECT_TRUE(pair.client->send(marker, Deadline::after(10s)).is_ok());
  drainer.join();
  pair.client->close();
  pair.server->close();
}

TEST_P(TransportParity, SendManyDeliversAllInOrder) {
  // One send_many call covers many variously-sized messages (several
  // vectored-write batches over TCP); the receiver must observe every one,
  // bit-exact and in order.
  TransportPair pair = GetParam().make();
  constexpr std::size_t kCount = 40;
  std::vector<Bytes> messages;
  std::vector<common::ByteSpan> spans;
  for (std::size_t i = 0; i < kCount; ++i) {
    messages.push_back(Bytes((i * 37) % 1500 + (i % 3 == 0 ? 0 : 1),
                             static_cast<std::uint8_t>(i)));
    spans.push_back(messages.back());
  }
  std::size_t sent = 0;
  ASSERT_TRUE(pair.client
                  ->send_many(std::span<const common::ByteSpan>(spans),
                              Deadline::after(5s), sent)
                  .is_ok());
  EXPECT_EQ(sent, kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    auto got = pair.server->recv(Deadline::after(2s));
    ASSERT_TRUE(got.is_ok()) << "message " << i;
    EXPECT_EQ(got.value(), messages[i]) << "message " << i;
  }
}

TEST_P(TransportParity, SendManyAbortMidBatchKeepsFramingAndSentCount) {
  // A deadline abort anywhere inside a send_many batch must leave the
  // length-prefixed stream well-formed: the receiver observes an exact
  // prefix of the batch (TCP completes a partially-written message via the
  // stashed tail ahead of later traffic), every delivered message is
  // bit-exact, and `sent` never overcounts what the prefix shows.
  TransportPair pair = GetParam().make();
  const std::size_t chunk_bytes = GetParam().chunk_bytes;
  ASSERT_TRUE(fill_until_blocked(*pair.client, chunk_bytes));
  constexpr std::size_t kBatch = 8;
  std::vector<Bytes> batch;
  std::vector<common::ByteSpan> spans;
  for (std::size_t i = 0; i < kBatch; ++i) {
    batch.push_back(
        Bytes(chunk_bytes, static_cast<std::uint8_t>(0xb0 + i)));
    spans.push_back(batch.back());
  }
  // Nobody is draining: the batch must abort against the full window.
  std::size_t sent = 0;
  const auto s = pair.client->send_many(
      std::span<const common::ByteSpan>(spans), Deadline::after(100ms), sent);
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
  EXPECT_LT(sent, kBatch);
  // Drain everything while a trailing marker flushes the stashed tail (the
  // tail may span a message boundary mid-batch) ahead of itself.
  const Bytes marker{1, 2, 3};
  std::vector<std::uint8_t> batch_tones_seen;
  std::thread drainer([&] {
    for (;;) {
      auto raw = pair.server->recv(Deadline::after(2s));
      if (!raw.is_ok()) break;  // timeout: stream drained (or closed)
      const Bytes& m = raw.value();
      if (m == marker) return;
      // Every delivered message is bit-exact: a uniform fill chunk
      // (fill_until_blocked uses 0x5a) or one whole batch message.
      ASSERT_EQ(m.size(), chunk_bytes) << "sheared message";
      ASSERT_TRUE(std::all_of(m.begin(), m.end(),
                              [&](std::uint8_t b) { return b == m.front(); }))
          << "mixed message contents: framing corrupted";
      if (m.front() >= 0xb0) batch_tones_seen.push_back(m.front());
    }
    FAIL() << "marker message never arrived";
  });
  EXPECT_TRUE(pair.client->send(marker, Deadline::after(30s)).is_ok());
  drainer.join();
  // The delivered batch messages form an exact prefix, in order. The
  // message the abort landed inside completes via the tail flush, so the
  // prefix may exceed `sent` by exactly one.
  ASSERT_GE(batch_tones_seen.size(), sent);
  ASSERT_LE(batch_tones_seen.size(), sent + 1);
  for (std::size_t i = 0; i < batch_tones_seen.size(); ++i) {
    EXPECT_EQ(batch_tones_seen[i], 0xb0 + i);
  }
  pair.client->close();
  pair.server->close();
}

TEST_P(TransportParity, SendManyCarriesEmptyMessages) {
  TransportPair pair = GetParam().make();
  const Bytes a(3, 0x11);
  const Bytes empty;
  const Bytes b(5, 0x22);
  const common::ByteSpan spans[3] = {a, empty, b};
  std::size_t sent = 0;
  ASSERT_TRUE(pair.client
                  ->send_many(std::span<const common::ByteSpan>(spans),
                              Deadline::after(2s), sent)
                  .is_ok());
  EXPECT_EQ(sent, 3u);
  EXPECT_EQ(pair.server->recv(Deadline::after(2s)).value(), a);
  EXPECT_EQ(pair.server->recv(Deadline::after(2s)).value().size(), 0u);
  EXPECT_EQ(pair.server->recv(Deadline::after(2s)).value(), b);
}

TEST_P(TransportParity, DrainingReopensTheWindow) {
  TransportPair pair = GetParam().make();
  const Bytes chunk(GetParam().chunk_bytes, 0xa5);
  ASSERT_TRUE(fill_until_blocked(*pair.client, chunk.size()));
  // A reader draining the peer unblocks the sender before its deadline.
  std::thread drainer([&] {
    while (pair.server->recv(Deadline::after(1s)).is_ok()) {
    }
  });
  EXPECT_TRUE(pair.client->send(chunk, Deadline::after(10s)).is_ok());
  pair.client->close();
  drainer.join();
}

INSTANTIATE_TEST_SUITE_P(
    Transports, TransportParity,
    ::testing::Values(ParityCase{"InProc", &make_inproc_pair, 16u << 10},
                      ParityCase{"Tcp", &make_tcp_pair, 1u << 20}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace cs::net
