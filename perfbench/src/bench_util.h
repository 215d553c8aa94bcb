#ifndef XKSEARCH_PERFBENCH_BENCH_UTIL_H_
#define XKSEARCH_PERFBENCH_BENCH_UTIL_H_

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dewey/dewey_id.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Aborts the run with a message on stderr (exit code 2, no result line).
[[noreturn]] void Die(const std::string& message);
void CheckOk(const xksearch::Status& status, const char* what);

/// The benchmark's own input generator (SplitMix64), so inputs depend on
/// the seed and on nothing the program under test defines.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Uniform(i)]);
    }
  }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from the run seed and a label.
uint64_t SubSeed(uint64_t seed, const char* label);

double Median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p);

/// Order-sensitive digest of a result list (FNV-1a over components).
uint64_t Digest(const std::vector<xksearch::DeweyId>& nodes);

/// Minimal ordered JSON object writer; numbers keep 17 significant digits.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, uint64_t value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string Dump() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};
std::string JsonEscape(const std::string& s);
/// A finite number with 17 significant digits; null otherwise.
std::string JsonNumber(double value);

/// \brief In-memory span recorder for the traced run.
///
/// A span has a name, start, end, parent span and request id. Spans are
/// kept in memory and written out once at exit.
class Tracer {
 public:
  static constexpr int64_t kNoParent = -1;

  int64_t Begin(const char* name, uint64_t request, int64_t parent);
  void End(int64_t span);

  /// Mean duration (microseconds) of spans named `name`; 0 if none.
  double MeanUs(const std::string& name) const;
  /// Total duration (seconds) of spans named `name`.
  double TotalSeconds(const std::string& name) const;
  size_t Count(const std::string& name) const;
  /// Duration (microseconds) of one ended span.
  double DurationUs(int64_t span) const {
    return MicrosBetween(spans_[span].start, spans_[span].end);
  }
  /// Durations (microseconds) of every span named `name`, in order.
  std::vector<double> DurationsUs(const std::string& name) const;

  /// One JSON object per span, one per line.
  void WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t request;
    int64_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing and reads no clock.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request,
             int64_t parent = Tracer::kNoParent)
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(name, request, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// \brief Per-operation minimum of a timing over replay rounds: the
/// estimator least moved by other processes on a shared host.
class MinPerOp {
 public:
  explicit MinPerOp(size_t ops) : us_(ops, 1e300) {}
  void Add(size_t op, double us) {
    if (us < us_[op]) us_[op] = us;
  }
  double at(size_t op) const { return us_[op]; }
  size_t size() const { return us_.size(); }

 private:
  std::vector<double> us_;
};

/// Median over operations of `whole - part1 - part2` (per-op minimums):
/// a caller's self time when its callees were timed as separate calls.
double MedianSelfUs(const MinPerOp& whole, const MinPerOp& part1,
                    const MinPerOp& part2);

/// Peak resident set (VmHWM) of this process, MiB.
double PeakRssMb();
/// Seconds of CPU time the hypervisor gave to others while this machine's
/// CPUs wanted to run (/proc/stat steal, all CPUs together).
double HostStealSeconds();
/// Threads of this process right now (/proc/self/status).
int ThreadCount();
/// /proc/self/io write counters.
struct IoCounters {
  uint64_t wchar = 0;
  uint64_t syscw = 0;
};
IoCounters ReadIo();
/// Filesystem type name of `path` (statfs magic).
std::string FilesystemType(const std::string& path);
/// Fixed CPU + memory work, milliseconds: a host-speed probe to read
/// drift on shared machines.
double HostProbeMs();

/// \brief What one workload run produces.
struct RunResult {
  uint64_t attempted = 0;
  /// Failed + rejected + wrong-answer operations.
  uint64_t failed = 0;
  /// End-to-end metrics of the untraced measurement.
  std::map<std::string, double> e2e;
  /// Per-layer metrics (traced run only).
  std::map<std::string, double> layers;
  /// End-to-end numbers measured while tracing (traced run only).
  std::map<std::string, double> traced_e2e;
  /// Sample counts and settings behind the metrics.
  std::map<std::string, double> samples;
  /// Run context that is not a metric.
  std::map<std::string, std::string> context;
  /// Raw per-pass series (pass rates), for reading drift in a record.
  std::map<std::string, std::vector<double>> series;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for index files (inside the checkout).
  std::string workdir;
};

/// Which passes FillE2e's end-to-end numbers come from.
enum class PassSelection {
  /// Every pass.
  kAll,
  /// The faster half of the passes by rate, plus the next fastest until
  /// they hold kMinSamples latencies. For short requests handed between
  /// threads (serve_zipf): the host at times stalls the process for
  /// milliseconds, many times a second, for a few seconds. Such a burst
  /// can more than double a p99 over every pass while the passes outside
  /// it are untouched; the faster half leaves out any burst that covers
  /// less than half of the run.
  kFasterHalf,
  /// The fastest quarter of the passes, plus the next fastest until they
  /// hold kMinSamples latencies. For single-threaded CPU-bound loops: the
  /// host runs the same code at two speeds for seconds at a time (user
  /// CPU time tracks wall time), and the fastest passes come from the
  /// fast state in every run, so they repeat where the median pass does
  /// not.
  kFastest,
};

/// \brief Timed operations of one untraced measurement, split into
/// passes of equal work.
class Measurement {
 public:
  void BeginPass() {
    pass_start_ = Clock::now();
    pass_first_ = latencies_us_.size();
  }
  void EndPass();
  void Record(double latency_us) { latencies_us_.push_back(latency_us); }
  size_t passes() const { return passes_.size(); }
  size_t samples() const { return latencies_us_.size(); }
  double elapsed() const { return total_seconds_; }

 private:
  friend void FillE2e(const Measurement& m, PassSelection selection,
                      RunResult* out);
  struct Pass {
    size_t first;  // index of the pass's first latency sample
    size_t ops;
    double seconds;
    double rate() const { return static_cast<double>(ops) / seconds; }
  };
  Clock::time_point pass_start_;
  size_t pass_first_ = 0;
  double total_seconds_ = 0;
  std::vector<Pass> passes_;
  std::vector<double> latencies_us_;
};

/// ops_per_s (operations / wall time), latency_p50_us and latency_p99_us
/// over the selected passes, with their sample counts; also the same
/// numbers over all passes, and every pass's rate and p99.
void FillE2e(const Measurement& m, PassSelection selection, RunResult* out);

inline constexpr int kSetupReps = 3;
inline constexpr int kMaxSetupReps = 20;
inline constexpr double kSetupSeconds = 3.0;

/// Runs one window of set-ups: `setup` at least kSetupReps times and
/// until kSetupSeconds have gone into them (at most kMaxSetupReps).
/// Lowers `setup_s` in `out` to the fastest wall time, seconds, and adds
/// the set-ups made to `samples.setup_reps`. Each workload runs one
/// window before its measurement and one after it, so setup_s is the
/// fastest set-up of two windows half a minute apart: other load on the host only ever adds to
/// a set-up's time, and a burst of it that covers one window does not
/// cover the other. Before every set-up but the run's first, `teardown`
/// (untimed) frees the previous system, and the freed heap goes back to
/// the kernel, so repeating the set-up does not raise peak_rss_mb. The
/// system of the window's last set-up stays up.
template <typename Teardown, typename Setup>
void TimeSetups(Teardown&& teardown, Setup&& setup, RunResult* out) {
  double& reps = out->samples["setup_reps"];
  double& fastest = out->e2e.try_emplace("setup_s", 1e300).first->second;
  double total = 0;
  for (int r = 0;
       r < kMaxSetupReps && (r < kSetupReps || total < kSetupSeconds); ++r) {
    if (reps > 0) {
      teardown();
      malloc_trim(0);
    }
    const Clock::time_point t0 = Clock::now();
    setup();
    const double s = SecondsBetween(t0, Clock::now());
    fastest = std::min(fastest, s);
    total += s;
    ++reps;
  }
}

/// Minimum latency samples per run: p99 needs ten samples beyond it.
inline constexpr size_t kMinSamples = 1000;
/// Minimum passes per run.
inline constexpr size_t kMinPasses = 5;

/// True while a measurement loop should keep going: until `seconds`
/// have passed and the sample minimums are met (hard cap 4x seconds).
bool KeepMeasuring(const Measurement& m, double seconds);

}  // namespace perfbench

#endif  // XKSEARCH_PERFBENCH_BENCH_UTIL_H_
