#include "bench.hpp"

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace steerbench {

namespace {
std::uint64_t read_clock(clockid_t clock) noexcept {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
}  // namespace

void RunResult::reject(const std::string& why) {
  correct = false;
  if (errors.size() < 8) errors.push_back(why);
}

std::uint64_t process_cpu_ns() noexcept {
  return read_clock(CLOCK_PROCESS_CPUTIME_ID);
}

std::uint64_t thread_cpu_ns(std::thread::native_handle_type thread) noexcept {
  clockid_t clock{};
  if (pthread_getcpuclockid(thread, &clock) != 0) return 0;
  return read_clock(clock);
}

double Samples::quantile_us(double q) const {
  if (ns_.empty()) return 0.0;
  std::vector<std::uint64_t> sorted = ns_;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(index),
                   sorted.end());
  return static_cast<double>(sorted[index]) / 1000.0;
}

std::string Samples::describe(const std::string& name) const {
  std::ostringstream out;
  out << std::fixed << std::setprecision(1) << name << ": p50 " << p50_us()
      << " us";
  const double n = static_cast<double>(ns_.size());
  if (ns_.size() >= 40) {
    double tail = 0.9;
    for (double q : {0.999, 0.99}) {
      if ((1.0 - q) * n >= 10.0) {
        tail = q;
        break;
      }
    }
    out << ", p" << std::setprecision(tail == 0.999 ? 1 : 0) << tail * 100.0
        << std::setprecision(1) << " " << quantile_us(tail) << " us";
    out << " (" << ns_.size() << " samples, "
        << static_cast<std::uint64_t>((1.0 - tail) * n) << " beyond)";
  } else {
    out << " (" << ns_.size() << " samples; too few for a tail)";
  }
  return out.str();
}

double Samples::p50_us_between(std::uint64_t begin_ns, std::uint64_t end_ns,
                               double fallback) const {
  std::vector<double> in_range;
  for (std::size_t i = 0; i < ns_.size(); ++i) {
    if (end_ns_[i] >= begin_ns && end_ns_[i] < end_ns) {
      in_range.push_back(static_cast<double>(ns_[i]) / 1000.0);
    }
  }
  return in_range.size() >= 8 ? median(std::move(in_range)) : fallback;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(
      values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

namespace {
/// Guest-wide stolen and total CPU time in jiffies, from the first line of
/// /proc/stat ("cpu user nice system idle iowait irq softirq steal ...").
/// Zeros when the file cannot be read, which counts every slice as clean.
void read_host_clock(std::uint64_t& steal, std::uint64_t& total) {
  steal = 0;
  total = 0;
  std::ifstream stat("/proc/stat");
  std::string label;
  if (!(stat >> label) || label != "cpu") return;
  std::uint64_t field = 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
}
}  // namespace

Window::Window(double seconds, std::function<std::uint64_t()> cpu_clock)
    : cpu_clock_(std::move(cpu_clock)),
      start_ns_(now_ns()),
      end_ns_(start_ns_ + static_cast<std::uint64_t>(seconds * 1e9)),
      slice_ns_((end_ns_ - start_ns_) / kSlices),
      next_cut_ns_(start_ns_ + slice_ns_),
      cut_at_ns_(start_ns_),
      cut_cpu_ns_(cpu_clock_()) {
  read_host_clock(cut_steal_, cut_jiffies_);
}

void Window::record(std::uint64_t latency_ns, std::uint64_t end_ns) {
  latency_.add(latency_ns, end_ns);
  busy_ns_ += latency_ns;
  if (end_ns >= next_cut_ns_) {
    cut(end_ns);
    while (next_cut_ns_ <= end_ns) next_cut_ns_ += slice_ns_;
  }
}

void Window::close() {
  // A tail shorter than half a slice is left out: too few operations to
  // weigh like the others.
  const std::uint64_t now = now_ns();
  if (now - cut_at_ns_ >= slice_ns_ / 2 || slices_.empty()) cut(now);
}

void Window::cut(std::uint64_t at_ns) {
  const std::uint64_t ops = latency_.size() - cut_ops_;
  const std::uint64_t busy = busy_ns_ - cut_busy_ns_;
  const std::uint64_t cpu = cpu_clock_();
  std::uint64_t steal = 0;
  std::uint64_t jiffies = 0;
  read_host_clock(steal, jiffies);
  if (ops > 0 && busy > 0) {
    const std::uint64_t ticks = jiffies - cut_jiffies_;
    slices_.push_back(Slice{
        cut_at_ns_, at_ns,
        static_cast<double>(ops) * 1e9 / static_cast<double>(busy),
        static_cast<double>(cpu - cut_cpu_ns_) / 1000.0 /
            static_cast<double>(ops),
        ticks > 0 ? static_cast<double>(steal - cut_steal_) /
                        static_cast<double>(ticks)
                  : 0.0});
  }
  cut_at_ns_ = at_ns;
  cut_ops_ = latency_.size();
  cut_busy_ns_ = busy_ns_;
  cut_cpu_ns_ = cpu;
  cut_steal_ = steal;
  cut_jiffies_ = jiffies;
}

std::vector<const Window::Slice*> Window::counted() const {
  std::vector<double> steal;
  for (const Slice& slice : slices_) steal.push_back(slice.steal_share);
  const double limit = median(steal);
  std::vector<const Slice*> out;
  for (const Slice& slice : slices_) {
    if (slice.steal_share <= limit) out.push_back(&slice);
  }
  return out;
}

double Window::p50_us(const Samples& samples) const {
  const double overall = samples.p50_us();
  std::vector<double> medians;
  for (const Slice* slice : counted()) {
    medians.push_back(
        samples.p50_us_between(slice->begin_ns, slice->end_ns, overall));
  }
  return medians.empty() ? overall : median(std::move(medians));
}

double Window::ops_per_s() const {
  std::vector<double> rates;
  for (const Slice* slice : counted()) rates.push_back(slice->ops_per_s);
  return median(std::move(rates));
}

double Window::cpu_us_per_op() const {
  std::vector<double> cpu;
  for (const Slice* slice : counted()) cpu.push_back(slice->cpu_us_per_op);
  return median(std::move(cpu));
}

std::string Window::describe_slices() const {
  std::vector<double> steal;
  for (const Slice& slice : slices_) steal.push_back(slice.steal_share);
  std::ostringstream out;
  out << std::fixed << std::setprecision(1) << "slices: " << counted().size()
      << " of " << slices_.size() << " counted; host steal median "
      << median(steal) * 100.0 << " %, max "
      << (steal.empty() ? 0.0 : *std::max_element(steal.begin(), steal.end())) *
             100.0
      << " %";
  return out.str();
}

std::uint32_t Tracer::open(const char* name, std::uint64_t trace,
                           std::uint32_t parent) {
  if (!enabled_) return 0;
  spans_.push_back(Span{name, trace, parent, now_ns(), 0});
  return static_cast<std::uint32_t>(spans_.size());
}

void Tracer::close(std::uint32_t handle) {
  if (handle == 0) return;
  spans_[handle - 1].end_ns = now_ns();
}

void Tracer::absorb(const Tracer& other) {
  const auto offset = static_cast<std::uint32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent != 0) span.parent += offset;
    spans_.push_back(span);
  }
}

std::vector<double> Tracer::self_us(const std::string& name) const {
  // Children of one span never overlap (each thread records its own
  // spans, sequentially), so the covered time is the sum of their lengths.
  // A span left open by a failed operation has no end and is skipped.
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != 0 && span.end_ns != 0) {
      child_ns[span.parent - 1] += span.end_ns - span.start_ns;
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name || spans_[i].end_ns == 0) continue;
    const std::uint64_t total = spans_[i].end_ns - spans_[i].start_ns;
    const std::uint64_t self = total > child_ns[i] ? total - child_ns[i] : 0;
    out.push_back(static_cast<double>(self) / 1000.0);
  }
  return out;
}

bool Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "trace,span,parent,name,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << s.trace << ',' << (i + 1) << ',' << s.parent << ',' << s.name
        << ',' << s.start_ns << ',' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

bool wait_until(const std::function<bool()>& ready,
                std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (int round = 0;; ++round) {
    if (ready()) return true;
    if (std::chrono::steady_clock::now() >= deadline) return ready();
    if (round < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

double median_setup_s(int cycles, const std::function<double()>& setup,
                      const std::function<void()>& teardown,
                      RunResult& result) {
  std::vector<double> times;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const double seconds = setup();
    if (seconds < 0.0) {
      std::string why = "set-up cycle ";
      why += std::to_string(cycle);
      why += " did not reach readiness";
      result.reject(why);
      return -1.0;
    }
    times.push_back(seconds);
    if (cycle + 1 < cycles) teardown();
  }
  const auto [lo, hi] = std::minmax_element(times.begin(), times.end());
  std::ostringstream line;
  line << std::fixed << std::setprecision(3) << "setup: median "
       << median(times) * 1e3 << " ms over " << cycles << " cycles (min "
       << *lo * 1e3 << ", max " << *hi * 1e3 << ")";
  result.note(line.str());
  return median(times);
}

void add_end_to_end(RunResult& result, double setup_s,
                    const Samples& op_latency, const Window& window,
                    const Samples& second_path) {
  result.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"op_p50_us", window.p50_us(op_latency), "us"},
      {"ops_per_s", window.ops_per_s(), "1/s"},
      {"cpu_us_per_op", window.cpu_us_per_op(), "us"},
      {"second_path_p50_us", window.p50_us(second_path), "us"},
  };
  result.note(window.describe_slices());
}

}  // namespace steerbench
