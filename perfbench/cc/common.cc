#include "cc/common.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace perfbench {

uint64_t Hash3(uint64_t seed, uint64_t stream, uint64_t index) {
  SplitMix mix(seed * 0x100000001b3ull ^ stream * 0x9e3779b97f4a7c15ull ^
               index * 0xd6e8feb86659fd93ull);
  mix.Next();
  return mix.Next();
}

double CpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const std::vector<int>& ProcessCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

size_t NprocOnline() { return std::max<size_t>(ProcessCpus().size(), 1); }

size_t PinThreads(Placement placement) {
  const std::vector<int>& cpus = ProcessCpus();
  if (cpus.empty()) return 0;
  const pid_t self = static_cast<pid_t>(syscall(SYS_gettid));
  std::vector<pid_t> tids{self};
  if (DIR* dir = opendir("/proc/self/task")) {
    std::vector<pid_t> others;
    while (dirent* e = readdir(dir)) {
      if (e->d_name[0] == '.') continue;
      const pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
      if (tid != self) others.push_back(tid);
    }
    closedir(dir);
    std::sort(others.begin(), others.end());
    tids.insert(tids.end(), others.begin(), others.end());
  }
  size_t pinned = 0;
  for (size_t i = 0; i < tids.size(); ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(placement == Placement::kShared ? cpus[0] : cpus[i % cpus.size()],
            &one);
    if (sched_setaffinity(tids[i], sizeof(one), &one) == 0) ++pinned;
  }
  return pinned;
}

void ThreadWatch::Sample() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return;
  size_t n = 0;
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(dir);
  peak_ = std::max(peak_, n);
}

void CheckThreadBudget(const ThreadWatch& threads, RunResult* result) {
  result->detail.push_back(
      {"threads_peak", static_cast<double>(threads.peak()), "count"});
  if (threads.peak() > NprocOnline()) {
    result->Fail("thread budget broken: " + std::to_string(threads.peak()) +
                 " threads > nproc " + std::to_string(NprocOnline()));
  }
}

namespace {

double SortedQuantile(const double* v, size_t n, double q) {
  if (n == 0) return 0;
  const double pos = q * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

}  // namespace

double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return SortedQuantile(v.data(), v.size(), q);
}

void SampleSet::Add(double v) {
  if (seen_ < kCapacity) {
    kept_[seen_] = v;
  } else {
    const uint64_t slot = pick_.Below(seen_ + 1);
    if (slot < kCapacity) kept_[slot] = v;
  }
  ++seen_;
}

double SampleSet::Quantile(double q) {
  const size_t n = static_cast<size_t>(std::min<uint64_t>(seen_, kCapacity));
  std::sort(kept_.begin(), kept_.begin() + static_cast<std::ptrdiff_t>(n));
  return SortedQuantile(kept_.data(), n, q);
}

}  // namespace perfbench
