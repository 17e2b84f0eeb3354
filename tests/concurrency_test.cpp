// Concurrency suite for the thread-safe enforcement stack: DedExecutor
// scheduling, the kernel CPU partition, per-thread RNG streams, the
// lock-rank discipline, and a mixed ps_invoke / erasure /
// consent-withdrawal stress over shared subjects. The stress tests are
// what the TSan CI job exists for: they must stay data-race-free, lose
// no updates, never let a parallel pipeline bypass a membrane, and keep
// the audit + processing logs complete.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/executor.hpp"
#include "core/rgpdos.hpp"
#include "kernel/placement.hpp"
#include "metrics/lock.hpp"
#include "metrics/metrics.hpp"

namespace rgpdos {
namespace {

using core::ImplManifest;
using core::PdRef;
using core::ProcessingInput;
using core::ProcessingOutput;

constexpr sentinel::Domain kApp = sentinel::Domain::kApplication;
constexpr sentinel::Domain kDed = sentinel::Domain::kDed;

// ---- DedExecutor ----------------------------------------------------------

TEST(DedExecutorTest, EveryShardRunsExactlyOnce) {
  core::DedExecutor executor(3, /*boot_seed=*/42);
  EXPECT_EQ(executor.worker_count(), 3u);
  constexpr std::size_t kShards = 128;
  std::vector<std::atomic<int>> hits(kShards);
  executor.ParallelFor(kShards, [&](std::size_t shard) {
    hits[shard].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "shard " << i;
  }
}

TEST(DedExecutorTest, ZeroWorkersRunsInlineOnCaller) {
  core::DedExecutor executor(0, 42);
  EXPECT_EQ(executor.worker_count(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> ran{0};
  std::atomic<bool> all_inline{true};
  executor.ParallelFor(8, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) all_inline = false;
    ++ran;
  });
  EXPECT_EQ(ran.load(), 8);
  EXPECT_TRUE(all_inline.load());
}

TEST(DedExecutorTest, SingleShardNeverPaysAHandoff) {
  core::DedExecutor executor(2, 42);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  executor.ParallelFor(1, [&](std::size_t) {
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
}

TEST(DedExecutorTest, ConcurrentCallersAllComplete) {
  core::DedExecutor executor(2, 42);
  constexpr int kCallers = 4;
  constexpr std::size_t kShards = 64;
  std::vector<std::atomic<int>> completed(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      executor.ParallelFor(kShards, [&, c](std::size_t) {
        completed[c].fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(completed[c].load(), static_cast<int>(kShards)) << "caller " << c;
  }
}

// ---- kernel CPU partition -------------------------------------------------

TEST(CpuPartitionTest, SingleCoreGivesOneWorkerNothingReserved) {
  const kernel::CpuPartition plan = kernel::CpuPartition::Plan(1);
  EXPECT_EQ(plan.total, 1u);
  EXPECT_EQ(plan.ded_workers, 1u);
  EXPECT_EQ(plan.npd_reserved, 0u);
}

TEST(CpuPartitionTest, MultiCoreAlwaysReservesAnNpdCore) {
  for (unsigned cpus : {2u, 3u, 4u, 8u, 16u}) {
    const kernel::CpuPartition plan = kernel::CpuPartition::Plan(cpus);
    EXPECT_EQ(plan.total, cpus);
    EXPECT_GE(plan.ded_workers, 1u) << cpus;
    EXPECT_GE(plan.npd_reserved, 1u) << cpus;
    EXPECT_EQ(plan.ded_workers + plan.npd_reserved, cpus) << cpus;
  }
}

TEST(CpuPartitionTest, DefaultShareFavoursThePdPath) {
  const kernel::CpuPartition plan = kernel::CpuPartition::Plan(8);
  EXPECT_EQ(plan.ded_workers, 6u);  // 3:1 split of 8 cores
  EXPECT_EQ(plan.npd_reserved, 2u);
}

TEST(CpuPartitionTest, ZeroProbesHardwareConcurrency) {
  const kernel::CpuPartition plan = kernel::CpuPartition::Plan(0);
  EXPECT_GE(plan.total, 1u);
  EXPECT_GE(plan.ded_workers, 1u);
}

// ---- per-thread RNG streams -----------------------------------------------

TEST(RngStreamTest, StreamSeedIsDeterministicAndDistinct) {
  EXPECT_EQ(Rng::StreamSeed(42, 1), Rng::StreamSeed(42, 1));
  EXPECT_NE(Rng::StreamSeed(42, 1), Rng::StreamSeed(42, 2));
  EXPECT_NE(Rng::StreamSeed(42, 1), Rng::StreamSeed(43, 1));
}

TEST(RngStreamTest, ThreadsDrawFromDisjointDeterministicStreams) {
  constexpr std::uint64_t kSeed = 9;
  constexpr int kDraws = 8;
  std::vector<std::uint64_t> draws[2];
  std::thread workers[2];
  for (int t = 0; t < 2; ++t) {
    workers[t] = std::thread([&, t] {
      SeedThreadRng(kSeed, static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kDraws; ++i) draws[t].push_back(ThreadRng().NextU64());
    });
  }
  for (std::thread& w : workers) w.join();
  // Each thread reproduces the stream a local generator would produce...
  for (int t = 0; t < 2; ++t) {
    Rng expect(Rng::StreamSeed(kSeed, static_cast<std::uint64_t>(t) + 1));
    for (int i = 0; i < kDraws; ++i) {
      EXPECT_EQ(draws[t][i], expect.NextU64()) << "thread " << t << " draw " << i;
    }
  }
  // ...and the two streams are decorrelated.
  EXPECT_NE(draws[0], draws[1]);
}

// ---- metrics under concurrency --------------------------------------------

TEST(PerThreadCounterTest, AggregatesExactlyAcrossThreads) {
  metrics::PerThreadCounter& counter =
      metrics::MetricsRegistry::Instance().GetPerThreadCounter(
          "test.concurrency.per_thread");
  const std::uint64_t before = counter.Value();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) counter.Inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value() - before,
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

// ---- lock-rank discipline -------------------------------------------------

TEST(LockOrderTest, DescendingAcquisitionIsLegal) {
  metrics::OrderedMutex outer(metrics::LockRank::kCore, "test.outer");
  metrics::OrderedMutex inner(metrics::LockRank::kInodefs, "test.inner");
  std::lock_guard<metrics::OrderedMutex> outer_lock(outer);
  std::lock_guard<metrics::OrderedMutex> inner_lock(inner);
  EXPECT_EQ(metrics::lock_internal::HeldRankCount(), 2u);
}

TEST(LockOrderTest, RecursiveReacquisitionIsLegal) {
  metrics::OrderedMutex mu(metrics::LockRank::kInodefs, "test.recursive");
  std::lock_guard<metrics::OrderedMutex> first(mu);
  std::lock_guard<metrics::OrderedMutex> second(mu);  // group-commit shape
  EXPECT_EQ(metrics::lock_internal::HeldRankCount(), 1u);
}

TEST(LockOrderDeathTest, AscendingAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  metrics::OrderedMutex inner(metrics::LockRank::kInodefs, "test.low");
  metrics::OrderedMutex outer(metrics::LockRank::kCore, "test.high");
  EXPECT_DEATH(
      {
        std::lock_guard<metrics::OrderedMutex> low(inner);
        std::lock_guard<metrics::OrderedMutex> high(outer);  // rank inversion
      },
      "lock-order violation");
}

// ---- booted-system stress -------------------------------------------------

constexpr std::string_view kTypes = R"(
type user {
  fields { name: string, pwd: string, year_of_birthdate: int };
  view v_ano { year_of_birthdate };
  consent { purpose1: all, purpose3: v_ano };
  origin: subject;
  age: 1Y;
  sensitivity: high;
}
type age {
  fields { value: int };
  consent { purpose1: all };
  origin: subject;
  sensitivity: low;
}
)";

class ConcurrencyStressTest : public ::testing::Test {
 protected:
  static std::unique_ptr<core::RgpdOs> BootWorld(unsigned worker_threads) {
    core::BootConfig config;
    config.use_sim_clock = true;
    config.seed = 7;
    config.worker_threads = worker_threads;
    auto os = core::RgpdOs::Boot(config);
    EXPECT_TRUE(os.ok());
    std::unique_ptr<core::RgpdOs> world = std::move(os).value();
    EXPECT_TRUE(world->DeclareTypes(kTypes).ok());
    return world;
  }

  static dbfs::RecordId PutUser(core::RgpdOs& os, std::uint64_t subject,
                                const std::string& name) {
    auto type = os.dbfs().GetType(kDed, "user");
    membrane::Membrane m = (*type)->DefaultMembrane(subject, os.clock().Now());
    auto id = os.dbfs().Put(
        kDed, subject, "user",
        db::Row{db::Value(name), db::Value(std::string("pw")),
                db::Value(std::int64_t{1990})},
        std::move(m));
    EXPECT_TRUE(id.ok());
    return *id;
  }

  static core::ProcessingId RegisterPurpose3(core::RgpdOs& os) {
    ImplManifest manifest;
    manifest.claimed_purpose = "purpose3";
    manifest.fields_read = {"year_of_birthdate"};
    manifest.output_type = "age";
    auto id = os.RegisterProcessingSource(
        "purpose purpose3 { input: user.v_ano; output: age; }",
        [](ProcessingInput& input) -> Result<ProcessingOutput> {
          ProcessingOutput output;
          if (input.Has("year_of_birthdate")) {
            output.derived_row = db::Row{db::Value(
                std::int64_t{2026} -
                *(*input.Field("year_of_birthdate")).AsInt())};
          }
          return output;
        },
        manifest);
    EXPECT_TRUE(id.ok());
    return *id;
  }
};

// No lost updates: concurrent Puts through the sharded subject tree all
// land, and the record index agrees with what was written.
TEST_F(ConcurrencyStressTest, ConcurrentPutsLoseNothing) {
  std::unique_ptr<core::RgpdOs> os = BootWorld(/*worker_threads=*/1);
  constexpr int kThreads = 4;
  constexpr int kPutsPerThread = 25;
  constexpr std::uint64_t kSubjects = 10;  // shared across threads
  std::vector<std::vector<dbfs::RecordId>> ids(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPutsPerThread; ++i) {
        const std::uint64_t subject =
            100 + (static_cast<std::uint64_t>(t) * kPutsPerThread + i) %
                      kSubjects;
        ids[t].push_back(PutUser(*os, subject, "u"));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(os->dbfs().record_count(),
            static_cast<std::size_t>(kThreads) * kPutsPerThread);
  EXPECT_EQ(os->dbfs().subject_count(), kSubjects);
  // Record ids are unique and every one is readable.
  std::set<dbfs::RecordId> unique;
  for (const auto& per_thread : ids) {
    for (dbfs::RecordId id : per_thread) {
      EXPECT_TRUE(unique.insert(id).second) << "duplicate id " << id;
      EXPECT_TRUE(os->dbfs().Get(kDed, id).ok()) << id;
    }
  }
  EXPECT_TRUE(os->processing_log().VerifyChain());
}

// A 4-lane invoke must report exactly what the historical single-lane
// invoke reports: same counts, same derived records, same log size.
TEST_F(ConcurrencyStressTest, ParallelInvokeMatchesSerialSemantics) {
  std::unique_ptr<core::RgpdOs> serial = BootWorld(1);
  std::unique_ptr<core::RgpdOs> parallel = BootWorld(4);
  ASSERT_NE(parallel->executor(), nullptr);
  ASSERT_EQ(serial->executor(), nullptr);

  std::vector<dbfs::RecordId> serial_ids;
  std::vector<dbfs::RecordId> parallel_ids;
  for (std::uint64_t subject = 1; subject <= 4; ++subject) {
    for (int r = 0; r < 4; ++r) {
      serial_ids.push_back(PutUser(*serial, subject, "u"));
      parallel_ids.push_back(PutUser(*parallel, subject, "u"));
    }
  }
  // Withdraw purpose3 consent for subject 2 in both worlds so the run
  // mixes processed and filtered records.
  for (std::size_t i = 0; i < serial_ids.size(); ++i) {
    auto m = serial->dbfs().GetMembrane(kDed, serial_ids[i]);
    ASSERT_TRUE(m.ok());
    if (m->subject_id != 2) continue;
    ASSERT_TRUE(serial->builtins()
                    .RevokeConsent(PdRef{serial_ids[i], "user"}, "purpose3")
                    .ok());
    ASSERT_TRUE(parallel->builtins()
                    .RevokeConsent(PdRef{parallel_ids[i], "user"}, "purpose3")
                    .ok());
  }

  const core::ProcessingId serial_id = RegisterPurpose3(*serial);
  const core::ProcessingId parallel_id = RegisterPurpose3(*parallel);
  auto serial_result = serial->ps().Invoke(kApp, serial_id, {});
  auto parallel_result = parallel->ps().Invoke(kApp, parallel_id, {});
  ASSERT_TRUE(serial_result.ok());
  ASSERT_TRUE(parallel_result.ok());

  EXPECT_EQ(parallel_result->records_considered,
            serial_result->records_considered);
  EXPECT_EQ(parallel_result->records_filtered_out,
            serial_result->records_filtered_out);
  EXPECT_EQ(parallel_result->records_processed,
            serial_result->records_processed);
  EXPECT_EQ(parallel_result->derived.size(), serial_result->derived.size());
  EXPECT_EQ(parallel_result->npd_outputs.size(),
            serial_result->npd_outputs.size());
  // ded_store stays serial in candidate order, so even the derived
  // record ids match; the log merge is shard-count-invariant too.
  for (std::size_t i = 0; i < serial_result->derived.size(); ++i) {
    EXPECT_EQ(parallel_result->derived[i], serial_result->derived[i]) << i;
  }
  EXPECT_EQ(parallel->processing_log().entry_count(),
            serial->processing_log().entry_count());
  for (std::size_t i = 0; i < serial_ids.size(); ++i) {
    const auto serial_entries =
        serial->processing_log().ForRecord(serial_ids[i]);
    const auto parallel_entries =
        parallel->processing_log().ForRecord(parallel_ids[i]);
    ASSERT_EQ(parallel_entries.size(), serial_entries.size()) << i;
    for (std::size_t e = 0; e < serial_entries.size(); ++e) {
      EXPECT_EQ(parallel_entries[e].outcome, serial_entries[e].outcome);
    }
  }
  EXPECT_TRUE(parallel->processing_log().VerifyChain());
}

// The headline stress: N application threads invoke while others erase
// subjects (right to be forgotten) and withdraw consent, all over shared
// subjects. Asserts the ISSUE invariants: no lost updates, no membrane
// bypass, audit-log completeness, and an intact processing-log chain.
TEST_F(ConcurrencyStressTest, MixedInvokeErasureConsentWithdrawal) {
  std::unique_ptr<core::RgpdOs> os = BootWorld(/*worker_threads=*/4);
  const core::ProcessingId processing = RegisterPurpose3(*os);

  // Subjects 1,2 keep consent; 3,4 get forgotten mid-run; 5,6 withdrew
  // purpose3 consent before any invoke starts.
  constexpr std::uint64_t kSubjects = 6;
  constexpr int kRecordsPerSubject = 3;
  std::vector<std::vector<dbfs::RecordId>> records(kSubjects + 1);
  for (std::uint64_t subject = 1; subject <= kSubjects; ++subject) {
    for (int r = 0; r < kRecordsPerSubject; ++r) {
      records[subject].push_back(PutUser(*os, subject, "u"));
    }
  }
  for (std::uint64_t subject : {5u, 6u}) {
    for (dbfs::RecordId id : records[subject]) {
      ASSERT_TRUE(
          os->builtins().RevokeConsent(PdRef{id, "user"}, "purpose3").ok());
    }
  }

  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  std::size_t forgotten[2] = {0, 0};

  std::vector<std::thread> threads;
  // Two invoker threads.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < 4; ++i) {
        auto result = os->ps().Invoke(kApp, processing, {});
        if (!result.ok()) {
          ++failures;
          continue;
        }
        // Conservation: every considered record is either processed or
        // filtered — a racing erasure downgrades to filtered, never to
        // "silently skipped".
        if (result->records_considered !=
            result->records_processed + result->records_filtered_out) {
          ++failures;
        }
        // Subjects 1,2 always pass their membranes (6 records); 5,6
        // never do.
        if (result->records_processed < 6 || result->records_processed > 12) {
          ++failures;
        }
      }
    });
  }
  // One eraser thread: right to be forgotten for subjects 3 and 4.
  threads.emplace_back([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int i = 0; i < 2; ++i) {
      auto erased = os->RightToBeForgotten(3 + static_cast<std::uint64_t>(i));
      if (erased.ok()) {
        forgotten[i] = *erased;
      } else {
        ++failures;
      }
    }
  });
  // One consent thread: withdraw the unrelated purpose1 consent on
  // subjects 5,6 — concurrent membrane rewrites on records the invokers
  // are filtering.
  threads.emplace_back([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (std::uint64_t subject : {5u, 6u}) {
      for (dbfs::RecordId id : records[subject]) {
        if (!os->builtins().RevokeConsent(PdRef{id, "user"}, "purpose1").ok()) {
          ++failures;
        }
      }
    }
  });
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Forgotten subjects: every record erased (envelope retrievable, row
  // gone), and the processing log shows the erasures.
  for (std::uint64_t subject : {3u, 4u}) {
    EXPECT_GE(forgotten[subject - 3],
              static_cast<std::size_t>(kRecordsPerSubject));
    for (dbfs::RecordId id : records[subject]) {
      auto record = os->dbfs().Get(kDed, id);
      ASSERT_TRUE(record.ok()) << id;
      EXPECT_TRUE(record->erased) << id;
      EXPECT_TRUE(os->dbfs().GetEnvelope(kDed, id).ok()) << id;
    }
    std::size_t erased_entries = 0;
    const auto history = os->processing_log().ForSubject(subject);
    ASSERT_TRUE(history.ok()) << history.status().ToString();
    for (const core::LogEntry& entry : *history) {
      if (entry.outcome == core::LogOutcome::kErased) ++erased_entries;
    }
    EXPECT_EQ(erased_entries, forgotten[subject - 3]) << subject;
  }

  // No membrane bypass: subjects 5,6 withdrew purpose3 consent before
  // the first invoke, so no parallel lane may ever have processed them.
  for (std::uint64_t subject : {5u, 6u}) {
    const auto history = os->processing_log().ForSubject(subject);
    ASSERT_TRUE(history.ok()) << history.status().ToString();
    for (const core::LogEntry& entry : *history) {
      EXPECT_NE(entry.outcome, core::LogOutcome::kProcessed)
          << "membrane bypass on subject " << subject;
    }
  }

  // Audit completeness: the tallies and the entry list moved in lockstep
  // even under concurrent Record calls.
  EXPECT_EQ(os->audit().allowed_count() + os->audit().denied_count(),
            os->audit().entry_count());

  // The hash chain survived interleaved batched appends.
  EXPECT_TRUE(os->processing_log().VerifyChain());

  // Quiesced world: one more invoke sees exactly the subjects that still
  // consent (1 and 2), everything else filtered.
  auto settled = os->ps().Invoke(kApp, processing, {});
  ASSERT_TRUE(settled.ok());
  EXPECT_EQ(settled->records_processed, 6u);
  EXPECT_EQ(settled->records_considered,
            settled->records_processed + settled->records_filtered_out);
}

}  // namespace
}  // namespace rgpdos
