// metrics.hpp — the wsx::obs metric registry.
//
// A Registry owns named counters, gauges and histograms and exports them
// as one JSON document with stable field order (names are kept sorted), so
// exports diff cleanly across commits and runs. The determinism contract:
//
//   * counters and histogram observation *counts* are pure functions of
//     the campaign inputs — the same work produces the same numbers at
//     any worker count;
//   * histogram sums/extremes are durations read off the registry clock,
//     excluded from determinism comparisons (zero under a FixedClock);
//   * gauges hold runtime-dependent values (worker count, queue depth)
//     and are dropped from Export::kDeterministic.
//
// All mutation paths are thread-safe; campaigns hand out `Counter&`
// references to worker threads and add to them without locks.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/clock.hpp"

namespace wsx::obs {

/// Monotonically increasing count (tests run, faults injected, rule hits).
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value (worker count, queue depth high-water).
class Gauge {
 public:
  void set(std::int64_t value) { value_.store(value, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram for microsecond durations. Bucket upper bounds
/// are hard-coded (0.1ms … 10s, then +inf) so two runs always export the
/// same shape.
class Histogram {
 public:
  static constexpr std::size_t kBucketCount = 8;
  /// Upper bounds in microseconds; the last bucket is unbounded.
  static const std::uint64_t kBounds[kBucketCount - 1];

  void observe(std::uint64_t value_us);
  std::uint64_t count() const;
  std::uint64_t sum() const;
  std::uint64_t min() const;  ///< 0 when empty
  std::uint64_t max() const;
  std::uint64_t bucket(std::size_t index) const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t buckets_[kBucketCount] = {};
};

/// What an export includes. kDeterministic drops gauges and duration
/// fields that legitimately vary between runs (see header comment).
enum class Export { kFull, kDeterministic };

class ScopedTimer;

/// Named metric registry. Lookup creates on first use; references remain
/// valid for the registry's lifetime.
class Registry {
 public:
  /// `clock` drives ScopedTimer and duration observations; the default is
  /// the process steady clock. Tests pass a FixedClock.
  explicit Registry(const Clock* clock = nullptr);

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);
  const Clock& clock() const { return *clock_; }

  /// Starts a timer that records into `histogram(name)` when destroyed.
  ScopedTimer timer(std::string_view name);

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  /// Names sorted; kDeterministic omits gauges and duration-valued fields.
  std::string to_json(Export mode = Export::kFull) const;

  /// Compact human-readable dump (one metric per line, sorted).
  std::string summary() const;

 private:
  const Clock* clock_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// RAII duration recorder. Null-registry-safe: every campaign creates
/// timers unconditionally and they no-op when metrics are off.
class ScopedTimer {
 public:
  ScopedTimer() = default;
  ScopedTimer(Histogram* histogram, const Clock* clock)
      : histogram_(histogram), clock_(clock),
        start_us_(clock != nullptr ? clock->now_us() : 0) {}
  ScopedTimer(ScopedTimer&& other) noexcept { *this = std::move(other); }
  ScopedTimer& operator=(ScopedTimer&& other) noexcept {
    stop();
    histogram_ = other.histogram_;
    clock_ = other.clock_;
    start_us_ = other.start_us_;
    other.histogram_ = nullptr;
    return *this;
  }
  ~ScopedTimer() { stop(); }

  /// Records the elapsed time now instead of at destruction.
  void stop();

 private:
  Histogram* histogram_ = nullptr;
  const Clock* clock_ = nullptr;
  std::uint64_t start_us_ = 0;
};

/// Null-safe timer: no-op when `registry` is null.
ScopedTimer timer(Registry* registry, std::string_view name);

/// Null-safe counter add: no-op when `registry` is null.
void add(Registry* registry, std::string_view name, std::uint64_t delta = 1);

}  // namespace wsx::obs
