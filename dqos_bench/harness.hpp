/// \file harness.hpp
/// Benchmark plumbing for benchmark programs: a counting global
/// allocator, process CPU time and peak RSS, `--key=value` argument lookup
/// and a minimal JSON object writer.
///
/// The allocator replacement functions are ordinary (non-inline)
/// definitions, as the language requires, so include this header from
/// exactly one translation unit per program.
// Benchmarks time the simulator with this wall clock; the simulated system
// under test never reads it.
// dqos-lint: allow-file(no-wallclock)
#pragma once

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <new>
#include <string>

namespace dqos::bench {

/// Heap allocations since program start, and live heap bytes (allocated
/// minus freed, sized with malloc_usable_size).
inline std::atomic<std::uint64_t> g_allocs{0};
inline std::atomic<std::int64_t> g_live_bytes{0};

inline void* track_alloc(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

inline void track_free(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

using Clock = std::chrono::steady_clock;

/// Seconds of host CPU (user + system, every thread) used by this process.
inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Peak resident set of this process so far, in MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Value of `--key=value`, or `fallback` when absent.
inline std::string arg_value(int argc, char** argv, const char* key,
                             const char* fallback) {
  const std::string prefix = std::string("--") + key + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

/// Streams one JSON object; keys are written as given (callers pass plain
/// identifiers, so no escaping is needed). Numbers keep every digit.
class JsonWriter {
 public:
  JsonWriter() { out_ += '{'; }

  JsonWriter& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonWriter& count(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonWriter& str(const char* key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonWriter& boolean(const char* key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  /// Inserts an already-serialized JSON value (an object or an array).
  JsonWriter& raw(const char* key, const std::string& json) {
    if (out_.size() > 1) out_ += ',';
    out_ += '"';
    out_ += key;
    out_ += "\":";
    out_ += json;
    return *this;
  }
  [[nodiscard]] std::string done() const { return out_ + '}'; }

 private:
  std::string out_;
};

}  // namespace dqos::bench

void* operator new(std::size_t n) {
  return dqos::bench::track_alloc(std::malloc(n ? n : 1));
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  const auto a = static_cast<std::size_t>(al);
  return dqos::bench::track_alloc(std::aligned_alloc(a, (n + a - 1) & ~(a - 1)));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { dqos::bench::track_free(p); }
void operator delete[](void* p) noexcept { dqos::bench::track_free(p); }
void operator delete(void* p, std::size_t) noexcept { dqos::bench::track_free(p); }
void operator delete[](void* p, std::size_t) noexcept { dqos::bench::track_free(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  dqos::bench::track_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  dqos::bench::track_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  dqos::bench::track_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  dqos::bench::track_free(p);
}
