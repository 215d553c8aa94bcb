#include "bench_util.h"

#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

void Die(const std::string& message) {
  std::fprintf(stderr, "xk_perfbench: %s\n", message.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

void CheckOk(const xksearch::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

uint64_t SubSeed(uint64_t seed, const char* label) {
  uint64_t h = 0xcbf29ce484222325ull ^ seed;
  for (const char* p = label; *p != '\0'; ++p) {
    h ^= static_cast<unsigned char>(*p);
    h *= 0x100000001b3ull;
  }
  return Rng(h).Next();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index =
      rank < 1 ? 0 : std::min(values.size(), static_cast<size_t>(rank)) - 1;
  return values[index];
}

uint64_t Digest(const std::vector<xksearch::DeweyId>& nodes) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  mix(nodes.size());
  for (const xksearch::DeweyId& id : nodes) {
    mix(id.depth());
    for (uint32_t c : id.components()) mix(c);
  }
  return h;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + JsonEscape(key) + "\": ";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  Key(key);
  body_ += JsonNumber(value);
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += "\"" + JsonEscape(value) + "\"";
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

int64_t Tracer::Begin(const char* name, uint64_t request, int64_t parent) {
  spans_.push_back(Span{name, request, parent, Clock::now(), {}});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t span) {
  // Idempotent: a span ended early keeps its first end time when its
  // ScopedSpan later goes out of scope.
  if (spans_[span].end == Clock::time_point()) spans_[span].end = Clock::now();
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(MicrosBetween(s.start, s.end));
  }
  return out;
}

size_t Tracer::Count(const std::string& name) const {
  return DurationsUs(name).size();
}

double Tracer::MeanUs(const std::string& name) const {
  const std::vector<double> d = DurationsUs(name);
  double sum = 0;
  for (double v : d) sum += v;
  return d.empty() ? 0 : sum / static_cast<double>(d.size());
}

double Tracer::TotalSeconds(const std::string& name) const {
  double sum = 0;
  for (double v : DurationsUs(name)) sum += v;
  return sum / 1e6;
}

void Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) Die("cannot write trace file " + path);
  const Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << JsonObject()
               .Int("id", i)
               .Str("name", s.name)
               .Int("request", s.request)
               .Num("parent", static_cast<double>(s.parent))
               .Num("start_us", MicrosBetween(origin, s.start))
               .Num("end_us", MicrosBetween(origin, s.end))
               .Dump()
        << "\n";
  }
  if (!out.good()) Die("error writing trace file " + path);
}

namespace {

/// Value of a "Key:   123 kB" line in /proc/self/status.
long StatusField(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::atol(line.c_str() + len + 1);
    }
  }
  return -1;
}

}  // namespace

double PeakRssMb() { return static_cast<double>(StatusField("VmHWM")) / 1024.0; }

double HostStealSeconds() {
  // "cpu  user nice system idle iowait irq softirq steal ...", in ticks.
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t field = 0, steal = 0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> field; ++i) steal = field;
  return static_cast<double>(steal) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

int ThreadCount() { return static_cast<int>(StatusField("Threads")); }

IoCounters ReadIo() {
  IoCounters io;
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") io.wchar = value;
    if (key == "syscw:") io.syscw = value;
  }
  return io;
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs;
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  const unsigned long magic = static_cast<unsigned long>(fs.f_type);
  switch (magic) {
    case 0xEF53:
      return "ext2/ext3/ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794c7630:
      return "overlayfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", magic);
      return buf;
    }
  }
}

double HostProbeMs() {
  // Integer mixing plus a strided walk over 16 MiB: both the ALU and the
  // memory system show up, and the work never changes between runs. The
  // fastest of three repetitions drops first-touch and wake-up effects.
  std::vector<uint64_t> buf(2u << 20);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = i * 0x9e3779b97f4a7c15ull;
  double best_ms = 1e300;
  uint64_t acc = 1;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (int round = 0; round < 4; ++round) {
      size_t pos = static_cast<size_t>(round);
      for (size_t i = 0; i < buf.size(); ++i) {
        acc = (acc ^ buf[pos]) * 0xbf58476d1ce4e5b9ull;
        pos = (pos + 4099) & (buf.size() - 1);
      }
    }
    best_ms = std::min(best_ms, MicrosBetween(t0, Clock::now()) / 1000.0);
  }
  if (acc == 42) std::fprintf(stderr, "probe\n");  // keeps the loop live
  return best_ms;
}

double MedianSelfUs(const MinPerOp& whole, const MinPerOp& part1,
                    const MinPerOp& part2) {
  std::vector<double> self;
  for (size_t i = 0; i < whole.size(); ++i) {
    self.push_back(whole.at(i) - part1.at(i) - part2.at(i));
  }
  return Median(self);
}

void Measurement::EndPass() {
  const double s = SecondsBetween(pass_start_, Clock::now());
  total_seconds_ += s;
  passes_.push_back({pass_first_, latencies_us_.size() - pass_first_, s});
}

void FillE2e(const Measurement& m, PassSelection selection, RunResult* out) {
  std::vector<Measurement::Pass> passes = m.passes_;
  std::vector<double> rates, pass_p99;
  for (const Measurement::Pass& p : passes) {
    rates.push_back(p.rate());
    pass_p99.push_back(Percentile(
        std::vector<double>(m.latencies_us_.begin() + p.first,
                            m.latencies_us_.begin() + p.first + p.ops),
        99));
  }
  // Passes selected: all, half or a quarter of them.
  const size_t share = selection == PassSelection::kAll          ? 1
                       : selection == PassSelection::kFasterHalf ? 2
                                                                 : 4;
  std::sort(passes.begin(), passes.end(),
            [](const Measurement::Pass& a, const Measurement::Pass& b) {
              return a.rate() > b.rate();
            });
  std::vector<double> us;
  size_t ops = 0, used = 0;
  double seconds = 0;
  for (const Measurement::Pass& p : passes) {
    if (used * share >= passes.size() && us.size() >= kMinSamples) break;
    us.insert(us.end(), m.latencies_us_.begin() + p.first,
              m.latencies_us_.begin() + p.first + p.ops);
    ops += p.ops;
    seconds += p.seconds;
    ++used;
  }
  out->e2e["ops_per_s"] = static_cast<double>(ops) / seconds;
  out->e2e["latency_p50_us"] = Percentile(us, 50);
  out->e2e["latency_p99_us"] = Percentile(us, 99);
  out->samples["latency_samples"] = static_cast<double>(us.size());
  out->samples["selected_passes"] = static_cast<double>(used);
  out->samples["passes"] = static_cast<double>(passes.size());
  out->samples["measured_s"] = m.elapsed();
  out->samples["all_passes_median_ops_per_s"] = Median(rates);
  out->samples["all_latency_samples"] = static_cast<double>(m.samples());
  out->samples["all_latency_p50_us"] = Percentile(m.latencies_us_, 50);
  out->samples["all_latency_p99_us"] = Percentile(m.latencies_us_, 99);
  out->series["pass_rates"] = rates;
  out->series["pass_p99_us"] = pass_p99;
}

bool KeepMeasuring(const Measurement& m, double seconds) {
  if (m.elapsed() >= 4 * seconds) return false;
  return m.elapsed() < seconds || m.samples() < kMinSamples ||
         m.passes() < kMinPasses;
}

}  // namespace perfbench
