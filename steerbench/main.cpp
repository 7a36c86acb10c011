// steerbench: the collaborative-steering benchmark.
//
//   steerbench --workload steer_session|steer_rpc|media_relay --seed N
//              --seconds S --trace 0|1 [--trace-file PATH] [--git-sha SHA]
//              [--source-digest HEX]
//   steerbench --self-test
//
// Prints a provenance line, reference lines (tails with sample counts, the
// workload's own named figures) and, last, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 0 when every output check passed, 1 when one failed,
// 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"

namespace {

using steerbench::Metric;
using steerbench::RunResult;

/// Every per-layer metric, in the order BENCHMARK.json lists them. A
/// workload that does not enter a layer reports 0 for its rows.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"visit.sim_request_us", "us"},
    {"visit.sim_send_us", "us"},
    {"visit.viewer_wait_us", "us"},
    {"visit.field_send_us", "us"},
    {"visit.steer_send_us", "us"},
    {"visit.steps_per_steer", "steps"},
    {"visit.stage_ingress_to_encode_us", "us"},
    {"visit.stage_encode_to_enqueue_us", "us"},
    {"visit.stage_enqueue_to_write_us", "us"},
    {"net.poller_wakeups_per_op", "count"},
    {"net.tcp_send_batches_per_op", "count"},
    {"net.bytes_sent_per_op", "bytes"},
    {"net.poll_latency_us", "us"},
    {"net.queue_depth_high_water", "frames"},
    {"net.tcp_batch_messages_p50", "messages"},
    {"wire.encode_us_per_mib", "us/MiB"},
    {"wire.decode_us_per_mib", "us/MiB"},
    {"ogsa.get_param_us.tcp", "us"},
    {"ogsa.get_param_us.inproc", "us"},
    {"ogsa.set_param_us.tcp", "us"},
    {"ogsa.set_param_us.inproc", "us"},
    {"ogsa.list_params_us.tcp", "us"},
    {"ogsa.list_params_us.inproc", "us"},
    {"ogsa.find_us.tcp", "us"},
    {"ogsa.find_us.inproc", "us"},
    {"steer.sync_us", "us"},
    {"sim.lbm_step_us", "us"},
    {"steer.set_to_applied_steps", "steps"},
    {"ag.send_frame_us", "us"},
    {"ag.direct_receive_us", "us"},
    {"ag.bridged_tcp_wait_us", "us"},
    {"ag.bridged_inproc_wait_us", "us"},
    {"ag.frame_bytes", "bytes"},
    {"viz.compress_us", "us"},
    {"viz.decompress_us", "us"},
    {"common.relay_deliveries_per_frame", "count"},
    {"common.relay_queue_high_water", "frames"},
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "steerbench: %s\nusage: steerbench --workload "
               "steer_session|steer_rpc|media_relay --seed N --seconds S "
               "--trace 0|1 [--trace-file PATH] [--git-sha SHA] "
               "[--source-digest HEX]\n"
               "       steerbench --self-test\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  steerbench::Args args;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool self_test_only = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0)) {
        return usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-file") {
      args.trace_file = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-digest") {
      source_digest = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }

  std::string why;
  const int checks = steerbench::self_test(why);
  if (self_test_only) {
    if (checks < 0) {
      std::printf("self-test FAILED: %s\n", why.c_str());
      return 1;
    }
    std::printf("self-test: %d checks each accept a good output and reject "
                "a corrupted one\n",
                checks);
    return 0;
  }

  RunResult (*run)(const steerbench::Args&) = nullptr;
  if (args.workload == "steer_session") {
    run = steerbench::run_steer_session;
  } else if (args.workload == "steer_rpc") {
    run = steerbench::run_steer_rpc;
  } else if (args.workload == "media_relay") {
    run = steerbench::run_media_relay;
  } else {
    return usage("--workload must be steer_session, steer_rpc or media_relay");
  }
  if (!have_seed) return usage("--seed is required");

  // Provenance of every result: what was built, how, where and with what.
  char date[32];
  const std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  std::string argv_json = "[";
  for (int i = 0; i < argc; ++i) {
    if (i != 0) argv_json += ", ";
    argv_json += json_string(argv[i]);
  }
  argv_json += "]";
  std::printf(
      "# provenance {\"git_sha\": %s, \"source_sha256\": %s, "
      "\"build_type\": %s, \"compiler\": %s, \"nproc\": %u, \"argv\": %s, "
      "\"seed\": %llu, \"date\": %s}\n",
      json_string(git_sha).c_str(), json_string(source_digest).c_str(),
      json_string(STEERBENCH_BUILD_TYPE).c_str(),
      json_string(STEERBENCH_COMPILER).c_str(),
      std::thread::hardware_concurrency(), argv_json.c_str(),
      static_cast<unsigned long long>(args.seed), json_string(date).c_str());
  std::fflush(stdout);

  RunResult result = run(args);
  if (checks < 0) result.reject("checker self-test: " + why);
  if (result.attempted == 0) {
    result.reject("no operation was attempted");
    result.attempted = 1;
    result.failed = 1;
  }

  std::printf("# checker self-test: %d checks reject a corrupted output\n",
              checks);
  for (const auto& line : result.notes) std::printf("# %s\n", line.c_str());
  for (const auto& error : result.errors) {
    std::printf("# CHECK FAILED: %s\n", error.c_str());
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    // The traced run's own end-to-end figures, against the untraced runs',
    // give the tracing overhead.
    std::string line = "# end-to-end under tracing:";
    for (const auto& m : result.end_to_end) {
      line += " " + m.name + "=" + json_number(m.value);
    }
    std::printf("%s\n", line.c_str());
    std::map<std::string, double> measured;
    for (const auto& m : result.per_layer) measured[m.name] = m.value;
    for (const auto& [name, unit] : kPerLayer) {
      const auto it = measured.find(name);
      metrics.push_back({name, it == measured.end() ? 0.0 : it->second, unit});
    }
  } else {
    metrics = result.end_to_end;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
