#ifndef DSSJ_COMMON_STATS_H_
#define DSSJ_COMMON_STATS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace dssj {

/// Thread-safe monotonically increasing counter (relaxed ordering; readers
/// get an eventually consistent snapshot, which is all metrics need).
class Counter {
 public:
  Counter() : value_(0) {}

  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t Get() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_;
};

/// Thread-safe high-watermark gauge (e.g. peak queue depth).
class MaxGauge {
 public:
  MaxGauge() : value_(0) {}

  void Update(uint64_t candidate) {
    uint64_t current = value_.load(std::memory_order_relaxed);
    while (candidate > current &&
           !value_.compare_exchange_weak(current, candidate, std::memory_order_relaxed)) {
    }
  }
  uint64_t Get() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_;
};

/// Single-threaded running aggregate: count, mean, variance (Welford),
/// min and max. Merge two instances with Merge().
class RunningStat {
 public:
  void Add(double x);
  void Merge(const RunningStat& other);

  uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Log-bucketed histogram of non-negative 64-bit values (e.g., latencies in
/// microseconds). 64 power-of-two buckets, each split into 64 linear
/// sub-buckets: a quantile reads at most 1/64 (1.6%) high, in 32 KiB of
/// constant memory. Thread-safe adds.
class Histogram {
 public:
  Histogram();

  void Add(uint64_t value);
  void Merge(const Histogram& other);
  void Reset();

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double mean() const;
  uint64_t min() const;
  uint64_t max() const;

  /// Value at quantile q in [0, 1]; approximate per bucketing error above.
  uint64_t ValueAtQuantile(double q) const;
  uint64_t p50() const { return ValueAtQuantile(0.50); }
  uint64_t p95() const { return ValueAtQuantile(0.95); }
  uint64_t p99() const { return ValueAtQuantile(0.99); }

  /// "count=... mean=... p50=... p95=... p99=... max=..."
  std::string Summary() const;

  static constexpr int kSubBucketsLog2 = 6;
  static constexpr int kSubBuckets = 1 << kSubBucketsLog2;
  static constexpr int kNumBuckets = 64 * kSubBuckets;

 private:
  static int BucketFor(uint64_t value);
  /// Upper bound of values mapping to `bucket` (inclusive).
  static uint64_t BucketUpperBound(int bucket);

  std::atomic<uint64_t> buckets_[kNumBuckets];
  std::atomic<uint64_t> count_;
  std::atomic<uint64_t> sum_;
  std::atomic<uint64_t> min_;
  std::atomic<uint64_t> max_;
};

/// Wall-clock stopwatch over std::chrono::steady_clock.
class Stopwatch {
 public:
  Stopwatch() { Restart(); }
  void Restart() { start_ = std::chrono::steady_clock::now(); }
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                                 start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Current steady-clock time in microseconds since an arbitrary epoch;
/// the stream substrate stamps tuples with this for latency measurement.
inline int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Current steady-clock time in nanoseconds (cheap vDSO read).
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed by the *calling thread*, in nanoseconds. Unlike wall
/// clock this is immune to preemption, so per-task busy accounting stays
/// meaningful when many executor threads share few cores (the basis of the
/// cluster-model throughput, see DistributedJoinResult). May be a real
/// syscall (~1µs under virtualization) — call once per task, not per tuple.
int64_t ThreadCpuNanos();

}  // namespace dssj

#endif  // DSSJ_COMMON_STATS_H_
