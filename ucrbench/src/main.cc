// ucrbench: the ucr benchmark's measuring binary (see ../NOTES.md).
//
//   ucrbench --workload read_hot|mixed_uniform|scale_write --seed N
//            --seconds S --trace 0|1 --work-dir DIR [--revision R]
//
// Prints a report, then as its last line one JSON object with the keys
// correct, attempted, failed and metrics. Exits 0 only when every
// operation succeeded and every output check passed.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "ucrbench.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "ucrbench: %s\nusage: ucrbench --workload "
               "read_hot|mixed_uniform|scale_write --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--revision R]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string work_dir;
  std::string revision = "unknown";
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--revision") {
      revision = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  const ucrbench::WorkloadSpec* spec = ucrbench::FindWorkload(workload);
  if (spec == nullptr) Usage("unknown --workload");
  if (seed < 0) Usage("--seed must be a non-negative integer");
  if (!(seconds >= 1.0 && seconds <= 600.0)) Usage("--seconds must be in [1, 600]");
  if (trace != 0 && trace != 1) Usage("--trace must be 0 or 1");
  if (work_dir.empty()) Usage("--work-dir is required");
  std::filesystem::create_directories(work_dir);

  ucrbench::PrintStamp(revision);
  const uint64_t t0 = ucrbench::NowNs();
  const ucrbench::Fixture fixture =
      ucrbench::BuildFixture(*spec, static_cast<uint64_t>(seed), work_dir);
  std::printf("workload %s seed=%lld seconds=%g trace=%d subjects=%zu "
              "memberships=%zu explicit=%zu readers=%zu fixture_s=%.3f\n",
              spec->name, seed, seconds, trace, fixture.subjects,
              fixture.memberships, fixture.explicit_entries, spec->readers,
              static_cast<double>(ucrbench::NowNs() - t0) / 1e9);
  std::fflush(stdout);

  const ucrbench::RunOptions run{spec, seconds, work_dir};
  ucrbench::Tally tally;
  const std::vector<ucrbench::Metric> metrics =
      trace == 1 ? ucrbench::RunTraced(fixture, run, &tally)
                 : ucrbench::RunUntraced(fixture, run, &tally);
  ucrbench::RemoveStore(fixture.store_dir);
  ucrbench::PrintResult(tally, metrics);
  return tally.failed == 0 && tally.attempted > 0 ? 0 : 1;
}
