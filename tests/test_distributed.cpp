// Distributed loadgen: the control-channel codecs (round trips over both
// transports, hostile-input rejection), worker-failure handling (a killed
// worker and a silent one must both yield a bounded-time partial merged
// report, never a hang), and the histogram-merge property — merged shards
// reproduce single-driver percentiles within the bucket layout's ~1.6%
// relative error, and burst op counts reconcile exactly with the target's
// /metricsz delivery counters. Runs under TSan in CI like the other
// multi-threaded suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "loadgen/control.hpp"
#include "loadgen/controller.hpp"
#include "loadgen/driver.hpp"
#include "loadgen/scenarios.hpp"
#include "loadgen/worker.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "util.hpp"

namespace cs::loadgen {
namespace {

using namespace std::chrono_literals;
using common::Bytes;
using common::Deadline;
using common::Histogram;
using common::StatusCode;
using testutil::TransportPair;

// ---------------------------------------------------------------------------
// Control codec: round trips over both transports
// ---------------------------------------------------------------------------

struct WireCase {
  const char* name;
  TransportPair (*make)();
};

// Without this, gtest prints the case's raw bytes (pointers included) after
// the test name, and ctest's discovered names change from build to build.
void PrintTo(const WireCase& c, std::ostream* os) { *os << c.name; }

TransportPair make_inproc() { return testutil::make_inproc_pair(); }

TransportPair make_tcp() { return testutil::make_tcp_pair(); }

class ControlCodec : public ::testing::TestWithParam<WireCase> {};

WorkloadSpec sample_spec() {
  WorkloadSpec spec;
  spec.kind = WorkloadSpec::Kind::kMuxViewers;
  spec.workload.pattern = Pattern::kBurst;
  spec.workload.connections = 7;
  spec.workload.duration = 1250ms;
  spec.workload.ramp_up = 250ms;
  spec.workload.min_payload = 100;
  spec.workload.max_payload = 900;
  spec.workload.messages_per_sec = 123.5;
  spec.workload.seed = 0xfeedbeefULL;
  spec.workload.op_timeout = 750ms;
  spec.workload.batch = 4;
  spec.target = "mux:viewer";
  spec.password = "soak";
  spec.worker_index = 2;
  spec.worker_count = 5;
  return spec;
}

TEST_P(ControlCodec, WorkloadSpecRoundTripsOverTheWire) {
  TransportPair pair = GetParam().make();
  const WorkloadSpec spec = sample_spec();
  ASSERT_TRUE(
      pair.client->send(encode_assign(spec), Deadline::after(2s)).is_ok());
  auto raw = pair.server->recv(Deadline::after(2s));
  ASSERT_TRUE(raw.is_ok());
  auto op = decode_control_op(raw.value());
  ASSERT_TRUE(op.is_ok());
  EXPECT_EQ(op.value(), ControlOp::kAssign);
  auto got = decode_assign(raw.value());
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value().kind, spec.kind);
  EXPECT_EQ(got.value().workload.pattern, spec.workload.pattern);
  EXPECT_EQ(got.value().workload.connections, spec.workload.connections);
  EXPECT_EQ(got.value().workload.duration, spec.workload.duration);
  EXPECT_EQ(got.value().workload.ramp_up, spec.workload.ramp_up);
  EXPECT_EQ(got.value().workload.min_payload, spec.workload.min_payload);
  EXPECT_EQ(got.value().workload.max_payload, spec.workload.max_payload);
  EXPECT_EQ(got.value().workload.messages_per_sec,
            spec.workload.messages_per_sec);
  EXPECT_EQ(got.value().workload.seed, spec.workload.seed);
  EXPECT_EQ(got.value().workload.op_timeout, spec.workload.op_timeout);
  EXPECT_EQ(got.value().workload.batch, spec.workload.batch);
  EXPECT_EQ(got.value().target, spec.target);
  EXPECT_EQ(got.value().password, spec.password);
  EXPECT_EQ(got.value().worker_index, spec.worker_index);
  EXPECT_EQ(got.value().worker_count, spec.worker_count);
}

TEST_P(ControlCodec, WorkerReportRoundTripsHistogramLosslessly) {
  TransportPair pair = GetParam().make();
  WireWorkerReport shard;
  shard.worker_index = 3;
  shard.connections = 16;
  shard.ops = 123456;
  shard.timeouts = 7;
  shard.errors = 2;
  shard.elapsed_ns = 2'500'000'000ULL;
  shard.transport.messages_sent = 111;
  shard.transport.bytes_sent = 222;
  shard.transport.messages_received = 333;
  shard.transport.bytes_received = 444;
  common::Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    shard.latency.record(
        static_cast<std::uint64_t>(rng.uniform(1e3, 5e7)));
  }

  ASSERT_TRUE(
      pair.client->send(encode_result(shard), Deadline::after(2s)).is_ok());
  auto raw = pair.server->recv(Deadline::after(2s));
  ASSERT_TRUE(raw.is_ok());
  auto got = decode_result(raw.value());
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value().worker_index, shard.worker_index);
  EXPECT_EQ(got.value().connections, shard.connections);
  EXPECT_EQ(got.value().ops, shard.ops);
  EXPECT_EQ(got.value().timeouts, shard.timeouts);
  EXPECT_EQ(got.value().errors, shard.errors);
  EXPECT_EQ(got.value().elapsed_ns, shard.elapsed_ns);
  EXPECT_EQ(got.value().transport.messages_sent,
            shard.transport.messages_sent);
  EXPECT_EQ(got.value().transport.bytes_received,
            shard.transport.bytes_received);
  // Identical bucket layout on both sides: the decode is bit-exact, so
  // every derived statistic matches, not just approximately.
  EXPECT_EQ(got.value().latency.count(), shard.latency.count());
  EXPECT_EQ(got.value().latency.sum(), shard.latency.sum());
  EXPECT_EQ(got.value().latency.min(), shard.latency.min());
  EXPECT_EQ(got.value().latency.max(), shard.latency.max());
  EXPECT_EQ(got.value().latency.p50(), shard.latency.p50());
  EXPECT_EQ(got.value().latency.p999(), shard.latency.p999());
}

TEST_P(ControlCodec, JoinReadyStartByeRoundTrip) {
  TransportPair pair = GetParam().make();
  JoinFrame join;
  join.worker_name = "worker7";
  join.metricsz_address = "w7:metricsz";
  ASSERT_TRUE(
      pair.client->send(encode_join(join), Deadline::after(2s)).is_ok());
  ASSERT_TRUE(
      pair.client->send(encode_ready(7), Deadline::after(2s)).is_ok());
  ASSERT_TRUE(pair.client->send(encode_start(), Deadline::after(2s)).is_ok());
  ASSERT_TRUE(pair.client->send(encode_bye(), Deadline::after(2s)).is_ok());

  auto j = pair.server->recv(Deadline::after(2s));
  ASSERT_TRUE(j.is_ok());
  auto got_join = decode_join(j.value());
  ASSERT_TRUE(got_join.is_ok());
  EXPECT_EQ(got_join.value().worker_name, "worker7");
  EXPECT_EQ(got_join.value().metricsz_address, "w7:metricsz");

  auto r = pair.server->recv(Deadline::after(2s));
  ASSERT_TRUE(r.is_ok());
  auto got_ready = decode_ready(r.value());
  ASSERT_TRUE(got_ready.is_ok());
  EXPECT_EQ(got_ready.value(), 7u);

  for (ControlOp want : {ControlOp::kStart, ControlOp::kBye}) {
    auto frame = pair.server->recv(Deadline::after(2s));
    ASSERT_TRUE(frame.is_ok());
    auto op = decode_control_op(frame.value());
    ASSERT_TRUE(op.is_ok());
    EXPECT_EQ(op.value(), want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Transports, ControlCodec,
    ::testing::Values(WireCase{"InProc", &make_inproc},
                      WireCase{"Tcp", &make_tcp}),
    [](const auto& info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------------
// Control codec: hostile input is rejected, never a crash
// ---------------------------------------------------------------------------

TEST(ControlCodecRejects, EveryTruncationOfEveryFrameIsInvalidArgument) {
  JoinFrame join{"worker", "w:mz"};
  WireWorkerReport shard;
  shard.latency.record(1000);
  shard.latency.record(2000000);
  const std::vector<Bytes> frames = {
      encode_join(join),     encode_assign(sample_spec()),
      encode_ready(1),       encode_start(),
      encode_result(shard),  encode_bye(),
  };
  for (const auto& frame : frames) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const common::ByteSpan prefix{frame.data(), len};
      // Truncated below the header, even the op is unrecoverable.
      if (len >= 5) {
        auto op = decode_control_op(prefix);
        ASSERT_TRUE(op.is_ok());
        switch (op.value()) {
          case ControlOp::kJoin:
            EXPECT_EQ(decode_join(prefix).status().code(),
                      StatusCode::kInvalidArgument);
            break;
          case ControlOp::kAssign:
            EXPECT_EQ(decode_assign(prefix).status().code(),
                      StatusCode::kInvalidArgument);
            break;
          case ControlOp::kReady:
            EXPECT_EQ(decode_ready(prefix).status().code(),
                      StatusCode::kInvalidArgument);
            break;
          case ControlOp::kResult:
            EXPECT_EQ(decode_result(prefix).status().code(),
                      StatusCode::kInvalidArgument);
            break;
          default:
            break;  // kStart/kBye carry no body to truncate
        }
      } else {
        EXPECT_EQ(decode_control_op(prefix).status().code(),
                  StatusCode::kInvalidArgument);
      }
    }
  }
}

TEST(ControlCodecRejects, OversizedFramesAreInvalidArgument) {
  Bytes join = encode_join(JoinFrame{"w", ""});
  join.push_back(0xff);
  EXPECT_EQ(decode_join(join).status().code(), StatusCode::kInvalidArgument);

  Bytes ready = encode_ready(0);
  ready.push_back(0x00);
  EXPECT_EQ(decode_ready(ready).status().code(), StatusCode::kInvalidArgument);

  WireWorkerReport shard;
  Bytes result = encode_result(shard);
  result.push_back(0x01);
  EXPECT_EQ(decode_result(result).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ControlCodecRejects, ForeignMagicAndUnknownTags) {
  // Foreign magic.
  Bytes frame = encode_start();
  frame[0] ^= 0x55;
  EXPECT_EQ(decode_control_op(frame).status().code(),
            StatusCode::kInvalidArgument);

  // A traffic op (LoadFrame range) must not parse as control...
  Bytes traffic = encode_start();
  traffic[4] = 0x02;  // FrameOp::kEcho
  EXPECT_EQ(decode_control_op(traffic).status().code(),
            StatusCode::kInvalidArgument);

  // ...nor an op above the control range.
  Bytes unknown = encode_start();
  unknown[4] = 0x40;
  EXPECT_EQ(decode_control_op(unknown).status().code(),
            StatusCode::kInvalidArgument);

  // And a control frame must never parse as traffic.
  EXPECT_FALSE(LoadFrame::decode(encode_start()).is_ok());
}

TEST(ControlCodecRejects, LyingStringLengthIsInvalidArgument) {
  Bytes join = encode_join(JoinFrame{"worker", "addr"});
  // The worker_name length field sits right after the 5-byte header; claim
  // 4GB of name without the bytes to back it.
  join[5] = 0xff;
  join[6] = 0xff;
  join[7] = 0xff;
  join[8] = 0xff;
  EXPECT_EQ(decode_join(join).status().code(), StatusCode::kInvalidArgument);
}

TEST(ControlCodecRejects, InconsistentHistogramIsInvalidArgument) {
  WireWorkerReport shard;
  shard.latency.record(5000);
  Bytes result = encode_result(shard);
  // The histogram trailer ends the frame: its final 12 bytes are the one
  // nonzero (bucket, count) pair. Inflate the bucket count so it no longer
  // reconciles with the header's total.
  ASSERT_GE(result.size(), 12u);
  result[result.size() - 1] ^= 0x01;
  EXPECT_EQ(decode_result(result).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ControlCodecRejects, AssignWithInvalidWorkloadIsInvalidArgument) {
  WorkloadSpec spec = sample_spec();
  spec.workload.connections = 0;  // fails Workload::validate()
  EXPECT_EQ(decode_assign(encode_assign(spec)).status().code(),
            StatusCode::kInvalidArgument);

  WorkloadSpec bad_index = sample_spec();
  bad_index.worker_index = 9;
  bad_index.worker_count = 3;
  EXPECT_EQ(decode_assign(encode_assign(bad_index)).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Worker failure: partial merged report in bounded time, never a hang
// ---------------------------------------------------------------------------

/// A scripted worker speaking the control protocol by hand so failure can
/// be injected at an exact phase. Joins, prepares, acks READY, awaits
/// START; then either reports `report` or misbehaves per `mode`. Like a
/// real worker it takes its slot from the ASSIGN it receives (slots follow
/// accept order, which concurrent joiners race for), labels its READY and
/// RESULT with it, and hands it back through `assigned_index`.
enum class FailureMode { kReports, kDiesAfterStart, kNeverReports };

void scripted_worker(net::Network& net, const std::string& address,
                     FailureMode mode, const WireWorkerReport& report,
                     std::atomic<int>* assigned_index = nullptr) {
  auto conn = connect_retry(net, address, Deadline::after(5s));
  ASSERT_TRUE(conn.is_ok());
  JoinFrame join;
  join.worker_name = "scripted";
  ASSERT_TRUE(
      conn.value()->send(encode_join(join), Deadline::after(2s)).is_ok());
  auto assign = conn.value()->recv(Deadline::after(5s));
  ASSERT_TRUE(assign.is_ok());
  auto spec = decode_assign(assign.value());
  ASSERT_TRUE(spec.is_ok());
  WireWorkerReport shard = report;
  shard.worker_index = spec.value().worker_index;
  if (assigned_index != nullptr) {
    assigned_index->store(static_cast<int>(shard.worker_index));
  }
  ASSERT_TRUE(conn.value()
                  ->send(encode_ready(shard.worker_index), Deadline::after(2s))
                  .is_ok());
  auto start = conn.value()->recv(Deadline::after(5s));
  ASSERT_TRUE(start.is_ok());

  switch (mode) {
    case FailureMode::kDiesAfterStart:
      conn.value()->close();  // killed mid-run
      return;
    case FailureMode::kNeverReports:
      // Holds the connection open, never sends RESULT; the controller's
      // collect deadline is the only thing that ends this. Unblocked when
      // the controller closes the slot.
      (void)conn.value()->recv(Deadline::after(30s));
      conn.value()->close();
      return;
    case FailureMode::kReports:
      ASSERT_TRUE(conn.value()
                      ->send(encode_result(shard), Deadline::after(2s))
                      .is_ok());
      (void)conn.value()->recv(Deadline::after(10s));  // await BYE
      conn.value()->close();
      return;
  }
}

class WorkerFailure : public ::testing::TestWithParam<FailureMode> {};

TEST_P(WorkerFailure, LostWorkerYieldsBoundedPartialMergedReport) {
  net::InProcNetwork net;
  Controller::Options copts;
  copts.listen_address = "fail:ctl";
  copts.workers = 2;
  copts.join_timeout = std::chrono::seconds(5);
  copts.ready_timeout = std::chrono::seconds(5);
  copts.io_timeout = std::chrono::seconds(2);
  auto controller = Controller::start(net, copts);
  ASSERT_TRUE(controller.is_ok());

  WireWorkerReport good_shard;
  good_shard.connections = 3;
  good_shard.ops = 4242;
  good_shard.timeouts = 1;
  good_shard.latency.record(1'000'000);
  good_shard.latency.record(2'000'000);
  WireWorkerReport bad_shard;

  // The two workers race to join, so either may get slot 0; the good one
  // reports which slot it was given.
  std::atomic<int> good_index{-1};
  std::thread good([&] {
    scripted_worker(net, "fail:ctl", FailureMode::kReports, good_shard,
                    &good_index);
  });
  std::thread bad([&] {
    scripted_worker(net, "fail:ctl", GetParam(), bad_shard);
  });

  ASSERT_TRUE(controller.value()->await_workers().is_ok());
  WorkloadSpec spec = sample_spec();
  spec.worker_index = 0;
  spec.worker_count = 2;
  std::vector<WorkloadSpec> specs = {spec, spec};
  specs[1].worker_index = 1;
  ASSERT_TRUE(controller.value()->assign(specs).is_ok());
  ASSERT_TRUE(controller.value()->start_run().is_ok());

  // The whole point: collect must return by its deadline (plus scheduling
  // slack) with the surviving shard merged — independent of HOW the other
  // worker was lost (clean close vs. silent absence).
  const auto t0 = common::Clock::now();
  Report report = controller.value()->collect(Deadline::after(1500ms));
  const auto took = common::Clock::now() - t0;
  EXPECT_LT(took, 4s);

  EXPECT_TRUE(report.is_partial());
  EXPECT_EQ(report.completeness, StatusCode::kUnavailable);
  EXPECT_EQ(report.ops, good_shard.ops);
  EXPECT_EQ(report.timeouts, good_shard.timeouts);
  EXPECT_EQ(report.connections, good_shard.connections);
  EXPECT_EQ(report.latency.count(), good_shard.latency.count());
  auto metric = [&](const std::string& key) -> double {
    for (const auto& [name, value] : report.service_metrics) {
      if (name == key) return value;
    }
    return -1.0;
  };
  EXPECT_EQ(metric("workers_expected"), 2.0);
  EXPECT_EQ(metric("workers_reported"), 1.0);
  const int good_slot = good_index.load();
  EXPECT_TRUE(good_slot == 0 || good_slot == 1);
  EXPECT_EQ(metric("worker" + std::to_string(good_slot) + "_ops"),
            static_cast<double>(good_shard.ops));
  // No invented rows for the lost one.
  EXPECT_EQ(metric("worker" + std::to_string(1 - good_slot) + "_ops"), -1.0);

  controller.value()->stop();
  good.join();
  bad.join();
}

INSTANTIATE_TEST_SUITE_P(Modes, WorkerFailure,
                         ::testing::Values(FailureMode::kDiesAfterStart,
                                           FailureMode::kNeverReports),
                         [](const auto& info) {
                           return info.param == FailureMode::kDiesAfterStart
                                      ? std::string("KilledMidRun")
                                      : std::string("NeverReports");
                         });

TEST(WorkerFailure, MidAssignPartitionYieldsBoundedPartialReport) {
  // The worker vanishes between JOIN and ASSIGN — the partition lands in
  // the middle of the assignment exchange, the phase the reporting path
  // never sees. The controller must surface it at assign() time, run the
  // survivors anyway, and still produce the partial merged report within
  // the collect deadline.
  net::InProcNetwork net;
  Controller::Options copts;
  copts.listen_address = "assign:ctl";
  copts.workers = 2;
  copts.join_timeout = std::chrono::seconds(5);
  copts.ready_timeout = std::chrono::seconds(1);
  copts.io_timeout = std::chrono::seconds(1);
  auto controller = Controller::start(net, copts);
  ASSERT_TRUE(controller.is_ok());

  WireWorkerReport good_shard;
  good_shard.worker_index = 0;
  good_shard.connections = 2;
  good_shard.ops = 777;
  good_shard.latency.record(3'000'000);
  std::thread good([&] {
    scripted_worker(net, "assign:ctl", FailureMode::kReports, good_shard);
  });
  std::thread bad([&] {
    auto conn = connect_retry(net, "assign:ctl", Deadline::after(5s));
    ASSERT_TRUE(conn.is_ok());
    JoinFrame join;
    join.worker_name = "vanishes";
    ASSERT_TRUE(
        conn.value()->send(encode_join(join), Deadline::after(2s)).is_ok());
    conn.value()->close();  // gone before the assignment can land
  });

  ASSERT_TRUE(controller.value()->await_workers().is_ok());
  bad.join();
  WorkloadSpec spec = sample_spec();
  spec.worker_index = 0;
  spec.worker_count = 2;
  std::vector<WorkloadSpec> specs = {spec, spec};
  specs[1].worker_index = 1;
  // The loss is visible here, not swallowed: whichever of the ASSIGN send
  // and the READY wait hits the dead connection first, assign() reports
  // an incomplete fleet.
  EXPECT_EQ(controller.value()->assign(specs).code(),
            StatusCode::kUnavailable);
  ASSERT_TRUE(controller.value()->start_run().is_ok());

  const auto t0 = common::Clock::now();
  Report report = controller.value()->collect(Deadline::after(1500ms));
  EXPECT_LT(common::Clock::now() - t0, 4s);
  EXPECT_TRUE(report.is_partial());
  EXPECT_EQ(report.ops, good_shard.ops);
  EXPECT_EQ(report.latency.count(), good_shard.latency.count());

  controller.value()->stop();
  good.join();
}

TEST(WorkerFailure, IncompleteFleetTimesOutUnavailable) {
  net::InProcNetwork net;
  Controller::Options copts;
  copts.listen_address = "short:ctl";
  copts.workers = 2;
  copts.join_timeout = std::chrono::milliseconds(300);
  auto controller = Controller::start(net, copts);
  ASSERT_TRUE(controller.is_ok());

  // One worker joins; the fleet never completes.
  auto conn = net.connect("short:ctl", Deadline::after(2s));
  ASSERT_TRUE(conn.is_ok());
  ASSERT_TRUE(conn.value()
                  ->send(encode_join(JoinFrame{"only", ""}),
                         Deadline::after(2s))
                  .is_ok());

  const auto t0 = common::Clock::now();
  const auto status = controller.value()->await_workers();
  EXPECT_LT(common::Clock::now() - t0, 2s);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(controller.value()->live_workers(), 1u);
  conn.value()->close();
}

// ---------------------------------------------------------------------------
// Histogram-merge property + exact op reconciliation
// ---------------------------------------------------------------------------

TEST(HistogramMerge, ShardsReproduceSingleDriverQuantiles) {
  // The same seeded sample stream recorded once into a single-driver
  // histogram and round-robined across 4 worker shards that each take a
  // wire round trip before merging. The merged histogram must equal the
  // single-driver one bit-exactly (identical bucket layout), and both must
  // sit within the layout's ~1.6% relative bucket error of the exact
  // sample quantiles.
  constexpr int kShards = 4;
  constexpr int kSamples = 50000;
  common::Rng rng(99);
  Histogram single;
  Histogram shards[kShards];
  std::vector<std::uint64_t> samples;
  samples.reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    // Long-tailed latencies spanning several orders of magnitude.
    const double magnitude = rng.uniform(3.0, 8.0);
    const auto value =
        static_cast<std::uint64_t>(std::pow(10.0, magnitude));
    samples.push_back(value);
    single.record(value);
    shards[i % kShards].record(value);
  }

  Histogram merged;
  for (const auto& shard : shards) {
    common::Bytes wire;
    shard.encode(wire);
    std::size_t consumed = 0;
    auto decoded = Histogram::decode(wire, consumed);
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(consumed, wire.size());
    merged.merge(decoded.value());
  }

  EXPECT_EQ(merged.count(), single.count());
  EXPECT_EQ(merged.sum(), single.sum());
  EXPECT_EQ(merged.min(), single.min());
  EXPECT_EQ(merged.max(), single.max());
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    EXPECT_EQ(merged.value_at_quantile(q), single.value_at_quantile(q))
        << "q=" << q;
  }

  std::sort(samples.begin(), samples.end());
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size()))) - 1;
    const double exact = static_cast<double>(samples[rank]);
    const double merged_q =
        static_cast<double>(merged.value_at_quantile(q));
    EXPECT_NEAR(merged_q / exact, 1.0, 0.02)
        << "q=" << q << " exact=" << exact << " merged=" << merged_q;
  }
}

/// Runs the full distributed raw topology in-process: 2 WorkerAgent
/// threads against run_distributed_raw on one InProcNetwork.
TEST(Distributed, BurstOpsReconcileExactlyWithTargetMetricsz) {
  net::InProcNetwork net;
  auto worker = [&net](const char* name, const char* mz) {
    WorkerAgent::Options options;
    options.controller_address = "dist:ctl";
    options.name = name;
    options.metricsz_address = mz;
    auto shard = WorkerAgent::run(net, options);
    EXPECT_TRUE(shard.is_ok()) << shard.status().to_string();
  };
  std::thread w0(worker, "w0", "w0:mz");
  std::thread w1(worker, "w1", "w1:mz");

  DistributedOptions options;
  options.workers = 2;
  options.address_stem = "dist";
  options.workload.pattern = Pattern::kBurst;
  options.workload.connections = 4;
  options.workload.duration = 500ms;
  options.workload.messages_per_sec = 400.0;
  auto report = run_distributed_raw(net, options);
  w0.join();
  w1.join();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_FALSE(report.value().is_partial());
  EXPECT_GT(report.value().ops, 0u);

  auto metric = [&](const std::string& key) -> double {
    for (const auto& [name, value] : report.value().service_metrics) {
      if (name == key) return value;
    }
    return -1.0;
  };
  // Client-side shards and server-side delivery truth reconcile exactly:
  // every burst frame the workers count was delivered to the peer.
  EXPECT_EQ(static_cast<double>(report.value().ops),
            metric("target_peer_stream_frames"));
  EXPECT_EQ(metric("worker0_ops") + metric("worker1_ops"),
            static_cast<double>(report.value().ops));
  // The controller scraped both workers' own registries too.
  EXPECT_EQ(metric("worker0_agent_ops"), metric("worker0_ops"));
  EXPECT_EQ(metric("worker1_agent_ops"), metric("worker1_ops"));
  EXPECT_EQ(metric("workers_reported"), 2.0);
  // One-way burst latency is recorded at the receiver and folded into the
  // merged report.
  EXPECT_EQ(report.value().latency.count(), report.value().ops);
}

TEST(Distributed, MuxSoakMergesWorkerShards) {
  net::InProcNetwork net;
  auto worker = [&net](const char* name, const char* mz) {
    WorkerAgent::Options options;
    options.controller_address = "dmux:ctl";
    options.name = name;
    options.metricsz_address = mz;
    auto shard = WorkerAgent::run(net, options);
    EXPECT_TRUE(shard.is_ok()) << shard.status().to_string();
  };
  std::thread w0(worker, "w0", "dm0:mz");
  std::thread w1(worker, "w1", "dm1:mz");

  DistributedOptions options;
  options.workers = 2;
  options.address_stem = "dmux";
  options.scenario.connections = 6;
  options.scenario.duration = 600ms;
  options.scenario.rate_per_sec = 200.0;
  options.scenario.payload_bytes = 256;
  std::string announced;
  options.on_listening = [&announced](const std::string& a) { announced = a; };
  auto report = run_distributed_mux_soak(net, options);
  w0.join();
  w1.join();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(announced, "dmux:ctl");
  EXPECT_FALSE(report.value().is_partial());
  EXPECT_EQ(report.value().connections, 6u);
  EXPECT_GT(report.value().ops, 0u);
  // Fan-out accounting: every op is one delivered sample with a recorded
  // latency, across both workers' shards.
  EXPECT_EQ(report.value().latency.count(), report.value().ops);

  auto metric = [&](const std::string& key) -> double {
    for (const auto& [name, value] : report.value().service_metrics) {
      if (name == key) return value;
    }
    return -1.0;
  };
  EXPECT_EQ(metric("workers_expected"), 2.0);
  EXPECT_EQ(metric("workers_reported"), 2.0);
  EXPECT_EQ(metric("worker0_connections"), 3.0);
  EXPECT_EQ(metric("worker1_connections"), 3.0);
  EXPECT_GT(metric("worker0_ops"), 0.0);
  EXPECT_GT(metric("worker1_ops"), 0.0);
  // The target's own /metricsz rows rode along (mid-run scrape): the mux
  // delivered at least as many frames as the viewers accounted.
  EXPECT_GE(metric("samples_published"), 0.0);
  EXPECT_GT(metric("hosted_viewers") + metric("service_threads"), 0.0);
}

}  // namespace
}  // namespace cs::loadgen
