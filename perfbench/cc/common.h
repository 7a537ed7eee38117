// Shared plumbing for the end-to-end benchmark: arguments, the seeded
// input generator's random source, process probes (CPU, RSS, threads),
// sample statistics and the result record every workload returns.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout for page files and WAL
  /// segments; removed when the run ends.
  std::string work_dir;
  /// Where the traced run writes its spans.
  std::string trace_path;
};

/// splitmix64: the generator's only source of randomness, independent of
/// the machine's own Rng so expected answers share no code with it.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Stateless per-item draw: the same (seed, stream, index) always gives
/// the same value, so row i of a stream is computable without replaying
/// rows 0..i-1 (the recovery check needs exactly that).
uint64_t Hash3(uint64_t seed, uint64_t stream, uint64_t index);

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process user+sys CPU time (all threads) in milliseconds.
double CpuMs();
/// Peak resident set size in MB (getrusage ru_maxrss).
double PeakRssMb();
/// The CPUs the process may run on, read at the first call: before
/// PinThreads narrows each thread to one of them.
const std::vector<int>& ProcessCpus();
/// How many they are (what `nproc` prints when the process starts).
size_t NprocOnline();
/// Where PinThreads puts the process's threads.
enum class Placement {
  kSpread,  // each thread on a CPU of its own, wrapping when they run out
  kShared,  // every thread on the first CPU
};

/// Pins the calling thread and then every other thread of the process,
/// in thread-id order, to CPUs of ProcessCpus() as `placement` says.
/// Left to the kernel, the pool's workers sometimes share the main
/// thread's CPU and sometimes not; a hand-off to a worker on another CPU
/// waits for that CPU to wake, which costs several times a switch on the
/// same CPU and swings with the host's load, so unpinned runs of one
/// binary differ by that factor. Returns how many threads were pinned.
size_t PinThreads(Placement placement);

/// Tracks the process's thread count (entries of /proc/self/task) at
/// every Sample(); the thread budget is broken when the peak exceeds
/// nproc.
class ThreadWatch {
 public:
  void Sample();
  size_t peak() const { return peak_; }

 private:
  size_t peak_ = 0;
};

/// Order statistics over a sample vector (copied; the caller's order is
/// kept). Linear interpolation between closest ranks. Empty → 0.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Samples of a per-operation figure in fixed memory: the first
/// kCapacity values are kept exactly, later ones by reservoir sampling
/// (fixed seed), so the run's resident memory does not grow with how
/// much work a fast host gets done. The capacity is touched up front.
class SampleSet {
 public:
  static constexpr size_t kCapacity = size_t{1} << 16;
  SampleSet() : kept_(kCapacity, 0.0) {}
  void Add(double v);
  /// Quantile() over the kept samples (sorts them in place).
  double Quantile(double q);
  double Median() { return Quantile(0.5); }

 private:
  std::vector<double> kept_;
  uint64_t seen_ = 0;
  SplitMix pick_{0x5a3b1e5e7ull};
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `end_to_end` and `per_layer` are both
/// filled; main prints the set the --trace flag selects.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // why `correct` is false
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Workload-specific figures printed as human-readable lines only.
  std::vector<Metric> detail;

  void Fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

/// Records the peak thread count and fails the run when it exceeded
/// nproc: the budget is the main thread plus the pool's workers.
void CheckThreadBudget(const ThreadWatch& threads, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
