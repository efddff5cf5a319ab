// Statistics, the library's counters, the host/build stamp and the
// result line.

#include <malloc.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "ucrbench.h"

namespace ucrbench {

double BandQuantile(std::vector<double>& values, double q, double half_width) {
  if (values.empty()) return 0.0;
  // Ranks within +-half_width of q, but never fewer than the one or two
  // ranks nearest q (so tiny samples give the plain median).
  const double last = static_cast<double>(values.size() - 1);
  const double pos = q * last;
  const double width = std::max(half_width * last, 0.5);
  const auto lo = static_cast<size_t>(std::max(0.0, std::ceil(pos - width)));
  const auto hi = static_cast<size_t>(std::min(last, std::floor(pos + width)));
  const auto first = values.begin();
  std::nth_element(first, first + static_cast<std::ptrdiff_t>(lo), values.end());
  std::nth_element(first + static_cast<std::ptrdiff_t>(lo),
                   first + static_cast<std::ptrdiff_t>(hi), values.end());
  // Positions lo..hi now hold exactly the order statistics of those
  // ranks (in some order), which is all a mean needs.
  double sum = 0.0;
  for (size_t i = lo; i <= hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo + 1);
}

DecimatingSample::DecimatingSample(size_t capacity) : capacity_(capacity) {
  kept_.reserve(capacity_);
  // Touch the pages now, so the buffer is resident before the peak-RSS
  // mark is reset and adds the same constant to every run.
  kept_.resize(capacity_, 0.0);
  kept_.clear();
}

void DecimatingSample::Decimate() {
  size_t out = 0;
  for (size_t i = 1; i < kept_.size(); i += 2) kept_[out++] = kept_[i];
  kept_.resize(out);
  stride_ *= 2;
}

void Tally::Merge(const Tally& o) {
  attempted += o.attempted;
  failed += o.failed;
  oracle_checked += o.oracle_checked;
  oracle_wrong += o.oracle_wrong;
  readback_checked += o.readback_checked;
  readback_wrong += o.readback_wrong;
  store_checks += o.store_checks;
  store_mismatches += o.store_mismatches;
}

CounterDeltas CounterSnapshot() {
  CounterDeltas out;
  if (!ucr::obs::kEnabled) return out;
  for (const auto& m : ucr::obs::Registry::Global().Collect()) {
    if (m.kind == 0) {
      out[m.name] = static_cast<double>(m.counter);
    } else if (m.kind == 2) {
      uint64_t count = 0;
      for (const uint64_t c : m.histogram.counts) count += c;
      out[m.name + "_count"] = static_cast<double>(count);
      out[m.name + "_sum"] = static_cast<double>(m.histogram.sum);
    }
  }
  return out;
}

CounterDeltas Delta(const CounterDeltas& before, const CounterDeltas& after) {
  CounterDeltas out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    out[name] = value - (it == before.end() ? 0.0 : it->second);
  }
  return out;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

void PrintStamp(const std::string& revision) {
  utsname un{};
  uname(&un);
  const std::string build_type = UCRBENCH_BUILD_TYPE;
  std::printf("host cpu=\"%s\" nproc=%u kernel=%s\n", CpuModel().c_str(),
              std::thread::hardware_concurrency(), un.release);
  std::printf("build compiler=\"%s\" type=%s UCR_METRICS=%s revision=%s\n",
              UCRBENCH_COMPILER, build_type.c_str(),
              ucr::obs::kEnabled ? "ON" : "OFF", revision.c_str());
  if (build_type != "Release") {
    const char* warning =
        "WARNING: ucrbench was built as '%s', not Release: its times are "
        "not comparable with Release results\n";
    std::printf(warning, build_type.c_str());
    std::fprintf(stderr, warning, build_type.c_str());
  }
  std::printf(
      "note: times compare only between runs with the same host and build "
      "lines\n");
}

void PrintCounters(const char* phase, const CounterDeltas& deltas) {
  if (!ucr::obs::kEnabled) {
    std::printf("counters %s absent (UCR_METRICS=OFF)\n", phase);
    return;
  }
  static const char* const kShown[] = {
      "ucr_snapshot_resolution_hits_total",
      "ucr_snapshot_resolution_misses_total",
      "ucr_snapshot_indexed_queries_total",
      "ucr_snapshot_subgraph_misses_total",
      "ucr_epoch_carryover_resolution_total",
      "ucr_epoch_carryover_subgraphs_total",
      "ucr_epoch_published_total",
      "ucr_reach_builds_total",
      "ucr_reach_incremental_rebuilds_total",
      "ucr_reach_rebuild_affected_nodes_sum",
      "ucr_wal_commits_total",
      "ucr_wal_fsyncs_total",
      "ucr_wal_bytes_total",
      "ucr_subgraph_extractions_total",
  };
  for (const char* name : kShown) {
    const auto it = deltas.find(name);
    std::printf("counter %s %s %.0f\n", phase, name,
                it == deltas.end() ? 0.0 : it->second);
  }
}

void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("checks oracle_checked=%llu oracle_wrong=%llu "
              "readback_checked=%llu readback_wrong=%llu store_checks=%llu "
              "store_mismatches=%llu\n",
              static_cast<unsigned long long>(tally.oracle_checked),
              static_cast<unsigned long long>(tally.oracle_wrong),
              static_cast<unsigned long long>(tally.readback_checked),
              static_cast<unsigned long long>(tally.readback_wrong),
              static_cast<unsigned long long>(tally.store_checks),
              static_cast<unsigned long long>(tally.store_mismatches));
  const double error_rate =
      tally.attempted == 0
          ? 1.0
          : static_cast<double>(tally.failed) /
                static_cast<double>(tally.attempted);
  std::printf("error_rate %.9g ratio (failed %llu / attempted %llu)\n",
              error_rate, static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  for (const Metric& m : metrics) {
    std::printf("metric %s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 && tally.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace ucrbench
