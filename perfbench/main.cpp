// noisypull_perfbench — one workload of the end-to-end benchmark per call.
//
//   noisypull_perfbench --workload W --seed S --seconds T --trace 0|1
//                       [--trace-out PATH] [--work-dir DIR] [--revision R]
//
// Untraced (--trace 0) runs report the end-to-end metrics; a traced run
// reports the per-layer metrics from its spans and writes the spans to
// --trace-out.  Correctness gates run before timing; the process exits 1
// when any gate fails, 2 on a usage error.  The last stdout line is the
// result object; perfbench/run.py builds this binary and forwards it.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "bench.hpp"
#include "noisypull/noisypull.hpp"
#include "workloads.hpp"

namespace perfbench {

void Result::gate(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  correct = false;
  ++failed;
  gate_failures.push_back(what);
}

void Result::metric(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

unsigned affinity_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&mask)));
}

unsigned default_lanes() {
  constexpr unsigned kMaxLanes = 4;
  return std::min(kMaxLanes, affinity_cpus());
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  constexpr std::uint64_t kStreamSpacing = 0x9e3779b97f4a7c15ULL;
  std::uint64_t state = seed ^ (stream * kStreamSpacing);
  return noisypull::splitmix64_next(state);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// ---------------------------------------------------------------------------
// Tracer

Tracer::Scope::Scope(Tracer& tracer, std::string_view name, double value)
    : tracer_(tracer), id_(static_cast<std::int64_t>(tracer.spans_.size())) {
  const std::int64_t parent =
      tracer.open_.empty() ? kNoParent : tracer.open_.back();
  tracer.spans_.push_back(Span{std::string(name), now_ns(), 0, parent,
                               static_cast<std::uint64_t>(gettid()), value});
  tracer.open_.push_back(id_);
}

Tracer::Scope::~Scope() {
  tracer_.spans_[static_cast<std::size_t>(id_)].end_ns = now_ns();
  tracer_.open_.pop_back();
}

std::int64_t Tracer::add(std::string_view name, std::int64_t start_ns,
                         std::int64_t end_ns, std::int64_t parent,
                         std::uint64_t tid, double value) {
  spans_.push_back(
      Span{std::string(name), start_ns, end_ns, parent, tid, value});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<double> Tracer::durations_ns(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

std::vector<double> Tracer::values(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.value);
  }
  return out;
}

double Tracer::total_ns(std::string_view name) const {
  double total = 0.0;
  for (const double d : durations_ns(name)) total += d;
  return total;
}

double Tracer::duration_ns(std::int64_t id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return static_cast<double>(s.end_ns - s.start_ns);
}

std::vector<double> Tracer::self_ns() const {
  // Children of one parent may overlap (scheduler workers), so the covered
  // part of the parent is the union of the children's clipped intervals.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<double> out(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (auto [b, e] : kids) {
      b = std::max(b, reach);
      e = std::min(e, s.end_ns);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    out[i] = static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return out;
}

std::string Tracer::to_json(std::string_view context_json) const {
  const std::vector<double> self = self_ns();
  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  std::map<std::string, Totals> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = by_name[spans_[i].name];
    ++t.count;
    t.total_ns += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    t.self_ns += self[i];
  }
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::ostringstream os;
  os.precision(17);
  os << "{\"context\": " << context_json << ",\n\"layers\": {";
  bool first = true;
  for (const auto& [name, t] : by_name) {
    os << (first ? "\n" : ",\n") << "  \"" << name << "\": {\"count\": "
       << t.count << ", \"total_ns\": " << t.total_ns
       << ", \"self_ns\": " << t.self_ns << "}";
    first = false;
  }
  os << "},\n\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
       << s.name << "\", \"parent\": " << s.parent
       << ", \"start_ns\": " << s.start_ns - origin
       << ", \"end_ns\": " << s.end_ns - origin << ", \"self_ns\": " << self[i]
       << ", \"tid\": " << s.tid << ", \"value\": " << s.value << "}";
  }
  os << "]}\n";
  return os.str();
}

}  // namespace perfbench

namespace {

using perfbench::Args;
using perfbench::Result;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must list exactly the names of BENCHMARK.json; run.py checks the printed
// result against that file.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},      {"run_s", "s"},          {"rounds_per_s", "1/s"},
    {"reps_per_s", "1/s"}, {"peak_rss_mb", "MB"},
};

// Every traced run reports every layer metric; a layer the workload never
// enters has no spans and reports 0 (the doc's table says which workload
// each metric belongs to).
constexpr MetricSpec kPerLayer[] = {
    {"model.step_ms.p50", "ms"},
    {"model.step_ms.p99", "ms"},
    {"core.display_ms", "ms"},
    {"common.fnv_ms", "ms"},
    {"rng.sampler_reset_us", "us"},
    {"rng.sample_ns", "ns"},
    {"rng.outcomes", "count"},
    {"model.apply_ms", "ms"},
    {"sim.count_correct_ms", "ms"},
    {"common.pool_dispatch_us", "us"},
    {"common.pool_cpus", "count"},
    {"model.lane_speedup", "x"},
    {"analysis.rep_ms.p50", "ms"},
    {"analysis.rep_ms.p90", "ms"},
    {"analysis.busy_frac", "ratio"},
    {"analysis.tail_s", "s"},
    {"core.protocol_build_ms", "ms"},
    {"analysis.cache_write_us", "us"},
    {"analysis.cache_read_us", "us"},
    {"analysis.warm_ms", "ms"},
    {"analysis.warm_reps_computed", "count"},
    {"sim.lumped_step_ms.p50", "ms"},
    {"sim.lumped_step_ms.p99", "ms"},
    {"sim.lumped_support.mean", "count"},
    {"sim.lumped_support.max", "count"},
    {"sim.lumped_ns_per_cell", "ns"},
    {"sim.lumped_display_us", "us"},
    {"sim.lumped_count_correct_us", "us"},
    {"rng.split_us", "us"},
    {"trace_overhead_frac", "ratio"},
};

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  constexpr unsigned kBrandLeafFirst = 0x80000002U;
  constexpr unsigned kBrandLeaves = 3;
  unsigned regs[kBrandLeaves * 4] = {};
  for (unsigned i = 0; i < kBrandLeaves; ++i) {
    if (__get_cpuid(kBrandLeafFirst + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  s.erase(s.find_last_not_of(' ') + 1);
  return s;
#else
  return "unknown";
#endif
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string context_json(const Args& args, const Result& r) {
  std::ostringstream os;
  os << "{\"workload\": \"" << json_escape(args.workload)
     << "\", \"seed\": " << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
     << ", \"seconds\": " << args.seconds
     << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"affinity_cpus\": " << perfbench::affinity_cpus()
     << ", \"cpu_model\": \"" << json_escape(cpu_model())
     << "\", \"lanes\": " << r.lanes << ", \"probe_lanes\": " << r.probe_lanes
     << ", \"workers\": " << r.workers
     << ", \"build_type\": \"" << NOISYPULL_PERFBENCH_BUILD_TYPE
     << "\", \"revision\": \"" << json_escape(args.revision) << "\"}";
  return os.str();
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// Orders the workload's metrics by the spec, fills layer metrics the
// workload has no spans for with 0, and rejects names outside the spec.
template <std::size_t N>
std::vector<perfbench::Metric> complete(
    const std::vector<perfbench::Metric>& got, const MetricSpec (&spec)[N],
    bool fill_missing) {
  std::map<std::string, perfbench::Metric> by_name;
  for (const auto& m : got) by_name[m.name] = m;
  std::vector<perfbench::Metric> out;
  for (const MetricSpec& s : spec) {
    const auto it = by_name.find(s.name);
    if (it == by_name.end()) {
      if (!fill_missing) {
        throw std::logic_error(std::string("workload did not report ") +
                               s.name);
      }
      out.push_back(perfbench::Metric{s.name, 0.0, s.unit});
      continue;
    }
    if (it->second.unit != s.unit) {
      throw std::logic_error("unit mismatch for " + it->second.name);
    }
    out.push_back(it->second);
    by_name.erase(it);
  }
  if (!by_name.empty()) {
    throw std::logic_error("metric outside the spec: " +
                           by_name.begin()->first);
  }
  return out;
}

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        args.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        args.seconds = std::stod(val);
        have_seconds = args.seconds > 0.0;
      } else if (key == "--trace") {
        if (val != "0" && val != "1") return false;
        args.trace = val == "1";
        have_trace = true;
      } else if (key == "--trace-out") {
        args.trace_out = val;
      } else if (key == "--work-dir") {
        args.work_dir = val;
      } else if (key == "--revision") {
        args.revision = val;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: noisypull_perfbench --workload W --seed S --seconds T "
                 "--trace 0|1 [--trace-out PATH] [--work-dir DIR] "
                 "[--revision R]\n");
    return 2;
  }
  if (args.work_dir.empty()) args.work_dir = ".bench_build/work";

  const std::map<std::string, perfbench::Workload> workloads = {
      {"sf_agent_1e5", perfbench::run_sf_agent_1e5},
      {"sf_agent_1e6", perfbench::run_sf_agent_1e6},
      {"theorem_sweep", perfbench::run_theorem_sweep},
      {"lumped_sf_1e12", perfbench::run_lumped_sf},
  };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  Result result;
  perfbench::Tracer tracer;
  std::vector<perfbench::Metric> metrics;
  try {
    result = it->second(args, tracer);
    metrics = args.trace ? complete(result.metrics, kPerLayer, true)
                         : complete(result.metrics, kEndToEnd, false);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  const std::string context = context_json(args, result);
  std::printf("context %s\n", context.c_str());
  if (args.trace && !args.trace_out.empty()) {
    if (!noisypull::io::atomic_write_file(args.trace_out,
                                          tracer.to_json(context))) {
      std::fprintf(stderr, "error: cannot write %s\n", args.trace_out.c_str());
      return 2;
    }
    std::printf("spans written to %s\n", args.trace_out.c_str());
  }
  for (const std::string& g : result.gate_failures) {
    std::printf("GATE FAILED: %s\n", g.c_str());
  }
  for (const auto& m : metrics) {
    std::printf("%-30s %20s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                number(metrics[i].value).c_str(), metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return result.correct ? 0 : 1;
}
