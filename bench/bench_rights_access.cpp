// G1 — right of access (GDPRbench "customer" getDataByUser): latency of
// producing one subject's structured export as the population grows.
// rgpdOS resolves the subject tree directly; the baseline scans every
// table.
//
// Second leg: the same request as the processing log deepens. The
// queried subjects' own history is one entry, written first; other
// subjects' entries then push it out of a 1024-entry hot window into a
// sealed segment and bury it under 1x, 4x and 16x that window. Segments
// are sealed at 8 KiB, smaller than the window, so at every depth the
// answer decodes exactly one sealed segment and depth is the only
// variable. The answer must cost the same at 16x as at 1x: exits
// non-zero when the 16x access costs more than twice the 1x access.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.hpp"

using namespace rgpdos;

namespace {

constexpr std::size_t kHotWindow = 1024;
constexpr double kMaxDepthGrowth = 2.0;

/// Mean wall-clock microseconds of one right of access over `targets`,
/// median of three passes.
double AccessUs(core::RgpdOs& os, const std::vector<std::uint64_t>& targets) {
  std::vector<double> passes;
  for (int pass = 0; pass < 3; ++pass) {
    Stopwatch watch;
    for (std::uint64_t subject : targets) {
      if (!os.RightOfAccess(subject).ok()) std::abort();
    }
    passes.push_back(bench::NsToUs(watch.ElapsedNanos()) /
                     double(targets.size()));
  }
  std::sort(passes.begin(), passes.end());
  return passes[1];
}

/// Access latency at log depths of 1x, 4x and 16x the hot window; returns
/// false when the deepest log costs more than kMaxDepthGrowth x the
/// shallowest.
bool DeepHistoryLeg(
    std::vector<std::pair<std::string, double>>& artifact_stats) {
  constexpr std::size_t kSubjects = 256;
  bench::RgpdWorld world = bench::MakeRgpdWorld(
      kSubjects, 1, 1.0, 1, [](core::BootConfig& config) {
        config.audit_hot_window = kHotWindow;
        config.audit_segment_bytes = 8 * 1024;
      });
  core::RgpdOs& os = *world.os;
  // Every subject gets one processing entry.
  const core::ProcessingId analytics = bench::RegisterAnalytics(os, false);
  if (!os.ps().Invoke(sentinel::Domain::kApplication, analytics).ok()) {
    std::abort();
  }
  const std::uint64_t base = os.processing_log().total_entries();
  // Each depth queries 32 subjects not queried before, so a measured
  // access never reads entries an earlier measurement appended.
  Rng rng(7);
  std::vector<std::uint64_t> subjects(kSubjects);
  for (std::size_t i = 0; i < kSubjects; ++i) subjects[i] = i + 1;
  for (std::size_t i = kSubjects; i > 1; --i) {
    std::swap(subjects[i - 1], subjects[rng.NextBelow(i)]);
  }
  std::size_t next_target = 0;

  std::printf("\n=== G1b: right of access vs processing-log depth "
              "(hot window %zu entries) ===\n",
              kHotWindow);
  std::printf("%-8s %14s %14s %12s\n", "depth", "log entries", "in memory",
              "access (us)");
  double shallow_us = 0;
  double deep_us = 0;
  for (std::size_t depth : {1u, 4u, 16u}) {
    // Other subjects' history, committed through the same batch path the
    // DED uses: one batch per 256 entries.
    core::ProcessingLog& log = os.processing_log();
    while (log.total_entries() < base + depth * kHotWindow) {
      core::ProcessingLog::BatchScope batch(log);
      for (int i = 0; i < 256; ++i) {
        log.Append("other", "analytics", kSubjects + 1 + rng.NextBelow(4096),
                   0, core::LogOutcome::kProcessed);
      }
    }
    const std::vector<std::uint64_t> targets(
        subjects.begin() + next_target, subjects.begin() + next_target + 32);
    next_target += 32;
    const double us = AccessUs(os, targets);
    if (depth == 1) shallow_us = us;
    deep_us = us;
    std::printf("%-8s %14llu %14zu %12.1f\n",
                (std::to_string(depth) + "x").c_str(),
                static_cast<unsigned long long>(log.total_entries()),
                log.entry_count(), us);
    artifact_stats.emplace_back("depth" + std::to_string(depth) + "x.access_us",
                                us);
  }
  const double growth = deep_us / shallow_us;
  artifact_stats.emplace_back("depth16x_over_1x", growth);
  std::printf("16x / 1x: %.2f (limit %.1f)\n", growth, kMaxDepthGrowth);
  return growth <= kMaxDepthGrowth;
}

}  // namespace

int main() {
  std::printf("=== G1: right of access latency vs population ===\n");
  std::printf("%-10s %-10s %16s %16s %13s %13s %10s\n", "subjects",
              "rec/subj", "baseline (us)", "baseline-idx (us)",
              "rgpd cold (us)", "rgpd warm (us)", "speedup");

  std::vector<std::pair<std::string, double>> artifact_stats;
  for (std::size_t subjects : {100u, 500u, 2000u}) {
    const std::size_t per_subject = 2;
    bench::BaselineWorld baseline_world =
        bench::MakeBaselineWorld(subjects, per_subject);
    bench::BaselineWorld indexed_world = bench::MakeBaselineWorld(
        subjects, per_subject, /*subject_index=*/true);
    bench::RgpdWorld rgpd_world = bench::MakeRgpdWorld(subjects, per_subject);

    // Query 32 random subjects on each system.
    Rng rng(7);
    std::vector<std::uint64_t> targets;
    for (int i = 0; i < 32; ++i) targets.push_back(1 + rng.NextBelow(subjects));

    Stopwatch watch;
    for (std::uint64_t subject : targets) {
      auto records = baseline_world.engine->GetDataBySubject(subject);
      if (!records.ok() || records->size() != per_subject) std::abort();
    }
    const double baseline_us =
        bench::NsToUs(watch.ElapsedNanos()) / double(targets.size());

    watch.Restart();
    for (std::uint64_t subject : targets) {
      auto records = indexed_world.engine->GetDataBySubject(subject);
      if (!records.ok() || records->size() != per_subject) std::abort();
    }
    const double indexed_us =
        bench::NsToUs(watch.ElapsedNanos()) / double(targets.size());

    // Cold pass (boot-fresh caches), then a warm pass over the same
    // targets — the repeat-request case the record/block caches serve.
    watch.Restart();
    for (std::uint64_t subject : targets) {
      auto report = rgpd_world.os->RightOfAccess(subject);
      if (!report.ok()) std::abort();
    }
    const double rgpd_cold_us =
        bench::NsToUs(watch.ElapsedNanos()) / double(targets.size());

    watch.Restart();
    for (std::uint64_t subject : targets) {
      auto report = rgpd_world.os->RightOfAccess(subject);
      if (!report.ok()) std::abort();
    }
    const double rgpd_warm_us =
        bench::NsToUs(watch.ElapsedNanos()) / double(targets.size());

    std::printf("%-10zu %-10zu %16.1f %16.1f %13.1f %13.1f %9.1fx\n",
                subjects, per_subject, baseline_us, indexed_us, rgpd_cold_us,
                rgpd_warm_us, baseline_us / rgpd_warm_us);
    const std::string prefix = "n" + std::to_string(subjects) + ".";
    artifact_stats.emplace_back(prefix + "baseline_us", baseline_us);
    artifact_stats.emplace_back(prefix + "baseline_indexed_us", indexed_us);
    artifact_stats.emplace_back(prefix + "rgpdos_cold_us", rgpd_cold_us);
    artifact_stats.emplace_back(prefix + "rgpdos_warm_us", rgpd_warm_us);
    artifact_stats.emplace_back(
        prefix + "block_hit_pct",
        bench::BlockCacheStatsOf(*rgpd_world.os).HitRatio() * 100.0);
  }
  std::printf(
      "\nexpected shape: the baseline's cost grows linearly with the total "
      "population (full scan per request); rgpdOS stays near-flat "
      "(subject-tree lookup), so the gap widens with scale — the "
      "GDPRbench asymmetry. The indexed-baseline ablation closes the "
      "performance gap but (see G2/F2) not the compliance gap. The warm "
      "rgpdOS pass additionally hits the record/block caches.\n");
  const bool flat = DeepHistoryLeg(artifact_stats);
  bench::DumpBenchArtifact("rights_access", artifact_stats);
  if (!flat) {
    std::fprintf(stderr,
                 "FAIL: right of access grows with processing-log depth\n");
    return 1;
  }
  return 0;
}
