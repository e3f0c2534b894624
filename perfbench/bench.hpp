// Shared pieces of the end-to-end benchmark: run arguments, the result every
// workload fills in, seed derivation, order statistics, and the span tracer
// that all per-layer metrics come from.
//
// Concurrency rule: this benchmark drives the library from one process and
// uses no threads of its own.  Parallel work goes through the library's
// ThreadPool and run_experiment; probes running on pool lanes write into
// preallocated per-job slots and the main thread imports them into the
// tracer afterwards, so the tracer itself needs no lock.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;  // measurement budget of the timed loop
  bool trace = false;
  std::string trace_out;  // spans file, written at exit of a traced run
  std::string work_dir;   // directory for temporary files, in the checkout
  std::string revision;   // source revision, recorded in the context
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What a workload reports.  A failed gate marks the run incorrect and counts
// as one failed operation; `attempted` counts timed runs or repetitions plus
// evaluated gates.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> gate_failures;
  unsigned lanes = 0;        // engine lanes of the timed runs
  unsigned probe_lanes = 0;  // lanes of the lane gate and pool probe
  unsigned workers = 0;      // scheduler workers (theorem_sweep)

  void gate(bool ok, const std::string& what);
  void metric(std::string name, double value, std::string unit);
};

// Engine lanes and scheduler workers: min(4, CPUs in the affinity mask).
unsigned default_lanes();
unsigned affinity_cpus();

// Seeds of every generated input derive from the --seed argument through a
// per-purpose stream tag, so no input hard-codes a seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

double peak_rss_mb();

std::int64_t now_ns();
double seconds_since(std::int64_t start_ns);

// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample; 0 for
// an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// Times `setup` repeatedly and returns the median seconds per call.  Calls
// are timed in batches of at least kMinBatchS (a batch of one for any setup
// slower than that), and batches are sampled at least kMinSamples times and
// until kBudgetS has passed.  What `setup` returns is destroyed after the
// clock stops, so teardown is not counted.
template <typename Setup>
double median_setup_seconds(Setup&& setup) {
  constexpr std::size_t kMinSamples = 5;
  constexpr double kMinBatchS = 1e-3;
  constexpr double kBudgetS = 0.5;
  std::vector<decltype(setup())> made;
  const auto time_batch = [&](std::size_t batch) {
    made.reserve(batch);
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < batch; ++i) made.push_back(setup());
    const double per_call = seconds_since(t0) / static_cast<double>(batch);
    made.clear();
    return per_call;
  };
  std::size_t batch = 1;
  while (time_batch(batch) * static_cast<double>(batch) < kMinBatchS) {
    batch *= 2;
  }
  std::vector<double> samples;
  const std::int64_t begin = now_ns();
  while (samples.size() < kMinSamples || seconds_since(begin) < kBudgetS) {
    samples.push_back(time_batch(batch));
  }
  return median(std::move(samples));
}

// Runs `unit` once, then again while one more unit of the median length
// still fits in `seconds` counted from the first start.
template <typename Unit>
void timed_loop(double seconds, Unit&& unit) {
  std::vector<double> unit_seconds;
  const std::int64_t begin = now_ns();
  do {
    const std::int64_t t0 = now_ns();
    unit();
    unit_seconds.push_back(seconds_since(t0));
  } while (seconds_since(begin) + median(unit_seconds) <= seconds);
}

// In-memory span recorder.  A span has a name, start, end, parent (the
// innermost span open when it began, or one given explicitly for spans
// recorded on pool lanes) and an optional value (a count attached to it,
// such as the lumped support size of a round).  Spans are written out once,
// at exit, with each span's self time: its duration minus the part of its
// interval covered by its children.
class Tracer {
 public:
  static constexpr std::int64_t kNoParent = -1;

  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = kNoParent;
    std::uint64_t tid = 0;
    double value = 0.0;
  };

  // RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, double value = 0.0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::int64_t id() const noexcept { return id_; }

   private:
    Tracer& tracer_;
    std::int64_t id_;
  };

  // Adds a finished span recorded elsewhere (a pool lane, a scheduler
  // worker); returns its id.
  std::int64_t add(std::string_view name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent, std::uint64_t tid,
                   double value = 0.0);

  // Durations (ns) and values of every span called `name`, in record order.
  std::vector<double> durations_ns(std::string_view name) const;
  std::vector<double> values(std::string_view name) const;
  double total_ns(std::string_view name) const;
  double duration_ns(std::int64_t id) const;

  // Self time of every span, indexed like the spans.
  std::vector<double> self_ns() const;

  // JSON document: the run context, per-name totals (count, total and self
  // time) and every span.
  std::string to_json(std::string_view context_json) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

// Ratio a / b, or 0 when b is 0 (a layer the workload never entered).
inline double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

}  // namespace perfbench
