// Per-phase ledger: everything the program already exports, read at the
// two boundaries of a measured phase and differenced (B - A), so set-up
// work (population puts, history invokes) never lands in a per-op figure.
#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "core/rgpdos.hpp"
#include "metrics/metrics.hpp"

namespace rgpdos::perfbench {

/// Counters and histograms at one instant, plus the storage stack's own
/// statistics summed over every PD shard.
struct Probe {
  metrics::MetricsSnapshot metrics;
  blockdev::DeviceStats device;  ///< raw PD devices
  blockdev::BlockCacheStats cache;
  std::uint64_t journal_bytes = 0;
  std::uint64_t sim_device_ns = 0;
  double cpu_s = 0;  ///< user + system, every thread of the process
};

inline double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return double(t.tv_sec) + double(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Peak resident set of the process, MiB.
inline double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Drain the audit writer so the background thread is idle, then read.
/// Call only between operations: the storage statistics are plain fields
/// that the calling thread may read only while nothing writes.
inline Probe TakeProbe(core::RgpdOs& os) {
  if (auto* pipeline = os.audit_pipeline()) (void)pipeline->Flush();
  Probe probe;
  for (std::size_t shard = 0; shard < os.shard_count(); ++shard) {
    const blockdev::DeviceStats& d = os.dbfs_device(shard).stats();
    probe.device.reads += d.reads;
    probe.device.writes += d.writes;
    probe.device.bytes_read += d.bytes_read;
    probe.device.bytes_written += d.bytes_written;
    probe.device.flushes += d.flushes;
    if (auto* cache = os.dbfs_cache(shard)) {
      const blockdev::BlockCacheStats c = cache->CacheStats();
      probe.cache.hits += c.hits;
      probe.cache.misses += c.misses;
      probe.cache.evictions += c.evictions;
      probe.cache.invalidations += c.invalidations;
    }
    probe.journal_bytes += os.dbfs_store(shard).journal().bytes_logged();
    if (auto* latency = os.dbfs_latency(shard)) {
      probe.sim_device_ns += latency->simulated_ns();
    }
  }
  probe.cpu_s = ProcessCpuSeconds();
  probe.metrics = metrics::MetricsRegistry::Instance().Snapshot();
  return probe;
}

/// A probe of the metrics registry alone, for phases that span more than
/// one world (the storage statistics belong to one world).
inline Probe MetricsProbe() {
  Probe probe;
  probe.metrics = metrics::MetricsRegistry::Instance().Snapshot();
  return probe;
}

/// B - A of two probes.
class PhaseDelta {
 public:
  PhaseDelta(const Probe& a, const Probe& b) : a_(a), b_(b) {}

  [[nodiscard]] double Counter(std::string_view name) const {
    return double(CounterOf(b_, name) - CounterOf(a_, name));
  }
  [[nodiscard]] double HistCount(std::string_view name) const {
    return double(Hist(b_, name).count - Hist(a_, name).count);
  }
  [[nodiscard]] double HistSum(std::string_view name) const {
    return double(Hist(b_, name).sum - Hist(a_, name).sum);
  }
  /// Mean observation over the phase; 0 when nothing was observed.
  [[nodiscard]] double HistMean(std::string_view name) const {
    const double n = HistCount(name);
    return n == 0 ? 0.0 : HistSum(name) / n;
  }

  [[nodiscard]] blockdev::DeviceStats Device() const {
    return {b_.device.reads - a_.device.reads,
            b_.device.writes - a_.device.writes,
            b_.device.bytes_read - a_.device.bytes_read,
            b_.device.bytes_written - a_.device.bytes_written,
            b_.device.flushes - a_.device.flushes};
  }
  [[nodiscard]] blockdev::BlockCacheStats Cache() const {
    return {b_.cache.hits - a_.cache.hits, b_.cache.misses - a_.cache.misses,
            b_.cache.evictions - a_.cache.evictions,
            b_.cache.invalidations - a_.cache.invalidations};
  }
  [[nodiscard]] double JournalBytes() const {
    return double(b_.journal_bytes - a_.journal_bytes);
  }
  [[nodiscard]] double SimDeviceNs() const {
    return double(b_.sim_device_ns - a_.sim_device_ns);
  }
  [[nodiscard]] double CpuSeconds() const { return b_.cpu_s - a_.cpu_s; }

  /// Every counter and histogram count that moved, as "name=delta" lines
  /// (empty when the phase did nothing).
  [[nodiscard]] std::string Moved() const {
    std::string out;
    for (const auto& [name, value] : b_.metrics.counters) {
      if (value != CounterOf(a_, name)) {
        out += name + "=" + std::to_string(value - CounterOf(a_, name)) + "\n";
      }
    }
    for (const auto& h : b_.metrics.histograms) {
      if (h.count != Hist(a_, h.name).count) {
        out += h.name + ".count=" +
               std::to_string(h.count - Hist(a_, h.name).count) + "\n";
      }
    }
    const blockdev::DeviceStats d = Device();
    if (d.reads + d.writes + d.flushes != 0) out += "device\n";
    const blockdev::BlockCacheStats c = Cache();
    if (c.hits + c.misses + c.evictions + c.invalidations != 0) {
      out += "block_cache\n";
    }
    if (JournalBytes() != 0) out += "journal_bytes\n";
    if (SimDeviceNs() != 0) out += "sim_device_ns\n";
    return out;
  }

 private:
  static std::uint64_t CounterOf(const Probe& p, std::string_view name) {
    const std::uint64_t* v = p.metrics.FindCounter(name);
    return v == nullptr ? 0 : *v;
  }
  static const metrics::HistogramSnapshot& Hist(const Probe& p,
                                                std::string_view name) {
    static const metrics::HistogramSnapshot kEmpty;
    const metrics::HistogramSnapshot* h = p.metrics.FindHistogram(name);
    return h == nullptr ? kEmpty : *h;
  }

  const Probe& a_;
  const Probe& b_;
};

/// Running sum of one histogram, read around a single call so the
/// benchmark can take the DBFS time inside it out of the caller's span.
class HistSumReader {
 public:
  explicit HistSumReader(std::string_view name)
      : histogram_(
            &metrics::MetricsRegistry::Instance().LatencyHistogram(name)) {}
  [[nodiscard]] std::uint64_t Sum() const { return histogram_->Sum(); }

 private:
  const metrics::Histogram* histogram_;
};

}  // namespace rgpdos::perfbench
