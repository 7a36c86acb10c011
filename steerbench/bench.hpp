// Shared harness of the collaborative-steering benchmark: arguments, the
// run result, raw latency samples, spans for the traced run, CPU clocks and
// readiness waits. Every latency the benchmark reports comes from the raw
// samples kept here; the program's own histograms are layers under test and
// are only read as per-layer counters.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace steerbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_file;
};

/// One reported metric: name, value as measured, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main().
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Reference lines printed above the result (tails, issue-named figures).
  std::vector<std::string> notes;
  /// First few check failures, for the log.
  std::vector<std::string> errors;

  /// Records a failed output check (the run's `correct` turns false).
  void reject(const std::string& why);
  void note(const std::string& line) { notes.push_back(line); }
};

/// Monotonic nanoseconds (std::chrono::steady_clock).
inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of the whole process, and of one thread, in nanoseconds.
std::uint64_t process_cpu_ns() noexcept;
std::uint64_t thread_cpu_ns(std::thread::native_handle_type thread) noexcept;

/// Raw latency samples in nanoseconds, each with the time it completed;
/// percentiles are exact (nearest rank over the sorted samples).
class Samples {
 public:
  void add(std::uint64_t ns, std::uint64_t end_ns) {
    ns_.push_back(ns);
    end_ns_.push_back(end_ns);
  }
  std::size_t size() const noexcept { return ns_.size(); }
  /// Quantile `q` in [0, 1], in microseconds (0 when empty).
  double quantile_us(double q) const;
  double p50_us() const { return quantile_us(0.5); }
  /// "name: p50 X us, pNN Y us (n samples, k beyond)" with the highest of
  /// p90/p99/p99.9 that leaves at least ten samples beyond it; the median
  /// alone when there are fewer than forty samples.
  std::string describe(const std::string& name) const;
  /// Median latency, in microseconds, of the samples that completed in
  /// [begin_ns, end_ns); `fallback` when fewer than eight did.
  double p50_us_between(std::uint64_t begin_ns, std::uint64_t end_ns,
                        double fallback) const;

 private:
  std::vector<std::uint64_t> ns_;
  std::vector<std::uint64_t> end_ns_;
};

/// Median and mean of plain values (0 when empty).
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// The measurement window of one run: its deadline, the raw latency of
/// every completed operation, and 20 equal time slices. Each slice yields
/// its median latency, operations per second of operation time (the
/// closed-loop rate, excluding the benchmark's own checks between
/// operations) and CPU time per operation, and the run reports the median
/// over the counted slices: those whose share of guest CPU time stolen by
/// the hypervisor (/proc/stat) is at most the run's median share. The
/// choice looks only at the host counter, never at the measured values.
class Window {
 public:
  static constexpr std::size_t kSlices = 20;

  /// Opens the window now. `cpu_clock` returns the CPU nanoseconds to
  /// charge to the workload (process time, minus any simulation thread).
  Window(double seconds, std::function<std::uint64_t()> cpu_clock);

  /// True until the window's time is up.
  bool open() const { return now_ns() < end_ns_; }
  /// Records one completed operation that took `latency_ns`, ending at
  /// `end_ns`.
  void record(std::uint64_t latency_ns, std::uint64_t end_ns);
  /// Closes the last slice.
  void close();

  const Samples& latency() const noexcept { return latency_; }
  std::uint64_t ops() const noexcept { return latency_.size(); }
  /// Median over the counted slices of each slice's median of `samples`
  /// (recorded during this window), in microseconds.
  double p50_us(const Samples& samples) const;
  double ops_per_s() const;
  double cpu_us_per_op() const;
  /// Summed latency of every recorded operation, in seconds.
  double busy_s() const { return static_cast<double>(busy_ns_) / 1e9; }
  /// "slices: N of M counted; host steal ..." for the reference lines.
  std::string describe_slices() const;

 private:
  struct Slice {
    std::uint64_t begin_ns, end_ns;
    double ops_per_s, cpu_us_per_op, steal_share;
  };
  void cut(std::uint64_t at_ns);
  /// The slices the medians use.
  std::vector<const Slice*> counted() const;

  std::function<std::uint64_t()> cpu_clock_;
  std::uint64_t start_ns_;
  std::uint64_t end_ns_;
  std::uint64_t slice_ns_;
  std::uint64_t next_cut_ns_;
  Samples latency_;
  std::uint64_t busy_ns_ = 0;
  // State at the last cut, and the finished slices.
  std::uint64_t cut_at_ns_;
  std::uint64_t cut_ops_ = 0;
  std::uint64_t cut_busy_ns_ = 0;
  std::uint64_t cut_cpu_ns_;
  std::uint64_t cut_steal_ = 0;
  std::uint64_t cut_jiffies_ = 0;
  std::vector<Slice> slices_;
};

/// In-memory span recorder for the traced run. One instance per thread;
/// disabled instances cost one branch per span and record nothing.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t trace;   ///< step, RPC or frame id
    std::uint32_t parent;  ///< 1-based index of the parent span, 0 = root
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const noexcept { return enabled_; }

  /// Opens a span; returns its handle (0 when tracing is off).
  std::uint32_t open(const char* name, std::uint64_t trace,
                     std::uint32_t parent = 0);
  void close(std::uint32_t handle);
  /// Adds spans recorded by another thread's tracer.
  void absorb(const Tracer& other);

  /// Self time in microseconds (duration minus the time covered by child
  /// spans) of every span called `name`.
  std::vector<double> self_us(const std::string& name) const;
  /// Median self time of spans called `name` (0 when there are none).
  double p50_self_us(const std::string& name) const {
    return median(self_us(name));
  }
  /// Writes every span as CSV: trace,span,parent,name,start_ns,end_ns.
  bool write_csv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t trace,
        std::uint32_t parent = 0)
      : tracer_(tracer), handle_(tracer.open(name, trace, parent)) {}
  ~Scope() { tracer_.close(handle_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint32_t handle() const noexcept { return handle_; }

 private:
  Tracer& tracer_;
  std::uint32_t handle_;
};

/// Polls `ready` until it holds or `timeout` passes, backing off from a
/// yield to 200 us sleeps. Readiness is always an observable condition,
/// never a fixed sleep. Returns whether `ready` held.
bool wait_until(const std::function<bool()>& ready,
                std::chrono::milliseconds timeout);

/// Runs `cycles` set-up/tear-down cycles and returns the median set-up time
/// in seconds. `setup` returns the seconds from service start to the first
/// operation completing at every participant (or a negative value on
/// failure); `teardown` releases everything except after the last cycle,
/// which the measurement window then uses.
double median_setup_s(int cycles, const std::function<double()>& setup,
                      const std::function<void()>& teardown,
                      RunResult& result);

/// The end-to-end metric set; every workload reports all five (README.md
/// says what "op" and the second path are on each). `op_latency` is the
/// op_p50_us population; rate and CPU come from `window`.
void add_end_to_end(RunResult& result, double setup_s,
                    const Samples& op_latency, const Window& window,
                    const Samples& second_path);

RunResult run_steer_session(const Args& args);
RunResult run_steer_rpc(const Args& args);
RunResult run_media_relay(const Args& args);

}  // namespace steerbench
