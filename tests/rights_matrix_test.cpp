// The full rights matrix, end to end (PR 10): Art. 21 objection and
// Art. 22 automated-decision opt-out through the DED and every cache
// level, objection racing a live invoke, objection/erasure interleaving,
// import idempotence for the Art. 20 round trip, shard-count invariance
// of the whole matrix, the Art. 33 breach drill over the processing
// log, and the shared RFC 8259 JSON escaper.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "auditlog/segmented_log.hpp"
#include "common/json.hpp"
#include "core/breach_drill.hpp"
#include "core/rgpdos.hpp"
#include "metrics/metrics.hpp"
#include "tests/processing_log_testing.hpp"

namespace rgpdos {
namespace {

using core::ImplManifest;
using core::PdRef;
using core::ProcessingInput;
using core::ProcessingOutput;

constexpr sentinel::Domain kApp = sentinel::Domain::kApplication;
constexpr sentinel::Domain kDed = sentinel::Domain::kDed;

constexpr std::string_view kTypes = R"(
type user {
  fields { name: string, pwd: string, year_of_birthdate: int };
  view v_ano { year_of_birthdate };
  consent { purpose1: all, purpose3: v_ano };
  origin: subject;
  sensitivity: high;
}
type age {
  fields { value: int };
  consent { purpose1: all };
  origin: subject;
  sensitivity: low;
}
)";

class RightsMatrixTest : public ::testing::Test {
 protected:
  static std::unique_ptr<core::RgpdOs> BootWorld(std::size_t shards = 1,
                                                 unsigned workers = 1) {
    core::BootConfig config;
    config.seed = 7;
    config.shards = shards;
    config.worker_threads = workers;
    auto os = core::RgpdOs::Boot(config);
    EXPECT_TRUE(os.ok()) << os.status().ToString();
    std::unique_ptr<core::RgpdOs> world = std::move(os).value();
    EXPECT_TRUE(world->DeclareTypes(kTypes).ok());
    return world;
  }

  /// A world whose processing log keeps only 16 entries in memory, so a
  /// right of access reads durable history after a few dozen entries.
  static std::unique_ptr<core::RgpdOs> BootTrimmingLog(
      std::size_t shards, std::uint64_t segment_bytes) {
    core::BootConfig config;
    config.seed = 7;
    config.shards = shards;
    config.worker_threads = 1;
    config.audit_hot_window = 16;
    config.audit_segment_bytes = segment_bytes;
    auto os = core::RgpdOs::Boot(config);
    EXPECT_TRUE(os.ok()) << os.status().ToString();
    std::unique_ptr<core::RgpdOs> world = std::move(os).value();
    EXPECT_TRUE(world->DeclareTypes(kTypes).ok());
    return world;
  }

  static dbfs::RecordId PutUser(core::RgpdOs& os, std::uint64_t subject,
                                const std::string& name) {
    auto type = os.dbfs().GetType(kDed, "user");
    membrane::Membrane m =
        (*type)->DefaultMembrane(subject, os.clock().Now());
    auto id = os.dbfs().Put(
        kDed, subject, "user",
        db::Row{db::Value(name), db::Value(std::string("pw")),
                db::Value(std::int64_t{1990})},
        std::move(m));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return *id;
  }

  /// purpose3 over the anonymised view — the manual purpose.
  static core::ProcessingId RegisterPurpose3(
      core::RgpdOs& os, core::ProcessingFn fn = nullptr) {
    ImplManifest manifest;
    manifest.claimed_purpose = "purpose3";
    manifest.fields_read = {"year_of_birthdate"};
    if (!fn) {
      fn = [](ProcessingInput&) -> Result<ProcessingOutput> {
        return ProcessingOutput{};
      };
    }
    auto id = os.RegisterProcessingSource(
        "purpose purpose3 { input: user.v_ano; }", std::move(fn), manifest);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return *id;
  }

  /// purpose1 declared `automated: true` — the Art. 22 target.
  static core::ProcessingId RegisterAutomatedPurpose1(core::RgpdOs& os) {
    ImplManifest manifest;
    manifest.claimed_purpose = "purpose1";
    manifest.fields_read = {"year_of_birthdate"};
    auto id = os.RegisterProcessingSource(
        "purpose purpose1 { input: user; automated: true; }",
        [](ProcessingInput&) -> Result<ProcessingOutput> {
          return ProcessingOutput{};
        },
        manifest);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return *id;
  }

  static std::uint64_t Processed(core::RgpdOs& os,
                                 core::ProcessingId processing) {
    auto result = os.ps().Invoke(kApp, processing);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return std::numeric_limits<std::uint64_t>::max();
    return result->records_processed;
  }
};

// ---- Art. 21 end to end ---------------------------------------------------

TEST_F(RightsMatrixTest, ObjectionFiltersDespiteStandingConsent) {
  auto os = BootWorld();
  PutUser(*os, 1, "alice");
  PutUser(*os, 2, "bob");
  const auto processing = RegisterPurpose3(*os);
  ASSERT_EQ(Processed(*os, processing), 2u);

  ASSERT_TRUE(os->RightToObject(1, "purpose3").ok());
  EXPECT_EQ(Processed(*os, processing), 1u);  // only bob

  // Re-granting consent does NOT clear the objection (Art. 21 sticky):
  // the records still carry purpose3: v_ano consent, and we re-grant on
  // top of it for good measure.
  auto records = os->dbfs().RecordsOfSubject(kDed, 1);
  ASSERT_TRUE(records.ok());
  for (dbfs::RecordId id : *records) {
    ASSERT_TRUE(os->builtins()
                    .GrantConsent(PdRef{id, "user"}, "purpose3",
                                  membrane::Consent::ForView("v_ano"))
                    .ok());
  }
  EXPECT_EQ(Processed(*os, processing), 1u);

  // Only an explicit withdrawal restores processing.
  ASSERT_TRUE(os->WithdrawObjection(1, "purpose3").ok());
  EXPECT_EQ(Processed(*os, processing), 2u);

  // The whole exchange is in the Art. 30 record of processing.
  bool logged_objection = false;
  const auto history = os->processing_log().ForSubject(1);
  ASSERT_TRUE(history.ok()) << history.status().ToString();
  for (const auto& entry : *history) {
    if (entry.outcome == core::LogOutcome::kObjected) {
      logged_objection = true;
    }
  }
  EXPECT_TRUE(logged_objection);
}

TEST_F(RightsMatrixTest, AutomatedDecisionOptOutBlocksOnlyAutomatedPurposes) {
  auto os = BootWorld();
  PutUser(*os, 1, "alice");
  const auto automated = RegisterAutomatedPurpose1(*os);
  const auto manual = RegisterPurpose3(*os);
  ASSERT_EQ(Processed(*os, automated), 1u);

  ASSERT_TRUE(os->OptOutAutomatedDecisions(1).ok());
  EXPECT_EQ(Processed(*os, automated), 0u);  // Art. 22 bites
  EXPECT_EQ(Processed(*os, manual), 1u);     // manual purpose untouched

  ASSERT_TRUE(os->OptOutAutomatedDecisions(1, false).ok());
  EXPECT_EQ(Processed(*os, automated), 1u);
}

// The stale-objection analogue of the stale-consent headline test: the
// objection lands mid-invoke over warm caches; every record decided
// after its ack must be filtered.
TEST_F(RightsMatrixTest, ObjectionMidInvokeIsNeverServedFromAnyCache) {
  auto os = BootWorld();
  for (int r = 0; r < 4; ++r) PutUser(*os, 1, "u");

  std::mutex mu;
  std::condition_variable cv;
  std::atomic<bool> armed{false};
  bool reached_execute = false;
  bool objection_done = false;
  const auto processing = RegisterPurpose3(
      *os, [&](ProcessingInput&) -> Result<ProcessingOutput> {
        if (armed.load(std::memory_order_acquire)) {
          std::unique_lock<std::mutex> lock(mu);
          if (!reached_execute) {
            reached_execute = true;
            cv.notify_all();
            cv.wait_for(lock, std::chrono::seconds(10),
                        [&] { return objection_done; });
          }
        }
        return ProcessingOutput{};
      });

  auto warm = os->ps().Invoke(kApp, processing);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->records_processed, 4u);

  armed.store(true, std::memory_order_release);
  std::thread invoker([&] {
    auto result = os->ps().Invoke(kApp, processing);
    ASSERT_TRUE(result.ok());
    // One record was already executing; the other three were decided
    // after the objection acked and must all be filtered.
    EXPECT_EQ(result->records_processed, 1u);
    EXPECT_EQ(result->records_filtered_out, 3u);
  });

  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return reached_execute; }));
  }
  ASSERT_TRUE(os->RightToObject(1, "purpose3").ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    objection_done = true;
  }
  cv.notify_all();
  invoker.join();

  auto settled = os->ps().Invoke(kApp, processing);
  ASSERT_TRUE(settled.ok());
  EXPECT_EQ(settled->records_processed, 0u);
  EXPECT_EQ(settled->records_filtered_out, 4u);
}

TEST_F(RightsMatrixTest, ObjectionAndErasureInterleave) {
  auto os = BootWorld();
  PutUser(*os, 1, "objector");
  PutUser(*os, 2, "eraser");
  PutUser(*os, 3, "bystander");
  const auto processing = RegisterPurpose3(*os);
  ASSERT_EQ(Processed(*os, processing), 3u);

  // Subject 1 objects, subject 2 is forgotten — both disappear from the
  // purpose's view, for different reasons, while 3 keeps processing.
  ASSERT_TRUE(os->RightToObject(1, "purpose3").ok());
  ASSERT_TRUE(os->RightToBeForgotten(2).ok());
  EXPECT_EQ(Processed(*os, processing), 1u);

  // Objection, then erasure of the SAME subject: both rights stack.
  ASSERT_TRUE(os->RightToBeForgotten(1).ok());
  EXPECT_EQ(Processed(*os, processing), 1u);

  // Withdrawal restores only the living: subject 3 objects and
  // withdraws; erased subjects stay gone no matter what.
  ASSERT_TRUE(os->RightToObject(3, "purpose3").ok());
  EXPECT_EQ(Processed(*os, processing), 0u);
  ASSERT_TRUE(os->WithdrawObjection(3, "purpose3").ok());
  EXPECT_EQ(Processed(*os, processing), 1u);
}

// ---- shard invariance -----------------------------------------------------

// The rights matrix is a per-subject contract; the number of storage
// shards behind the routing facade must be unobservable in its results.
TEST_F(RightsMatrixTest, RightsMatrixIsShardCountInvariant) {
  std::vector<std::uint64_t> processed_by_shards;
  std::vector<std::set<dbfs::SubjectId>> drilled_by_shards;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    auto os = BootWorld(shards);
    for (std::uint64_t s = 1; s <= 8; ++s) {
      PutUser(*os, s, "subject" + std::to_string(s));
    }
    const auto processing = RegisterPurpose3(*os);
    EXPECT_EQ(Processed(*os, processing), 8u);
    ASSERT_TRUE(os->RightToObject(2, "purpose3").ok());
    ASSERT_TRUE(os->RightToObject(5, "purpose3").ok());
    ASSERT_TRUE(os->OptOutAutomatedDecisions(7).ok());  // no-op for manual
    ASSERT_TRUE(os->RightToBeForgotten(3).ok());
    ASSERT_TRUE(os->WithdrawObjection(5, "purpose3").ok());
    processed_by_shards.push_back(Processed(*os, processing));

    auto drill = core::DrillCompromisedPurpose(os->processing_log(),
                                               "purpose3");
    ASSERT_TRUE(drill.ok()) << drill.status().ToString();
    EXPECT_TRUE(drill->chain_verified);
    drilled_by_shards.push_back(drill->subjects);
  }
  ASSERT_EQ(processed_by_shards.size(), 2u);
  EXPECT_EQ(processed_by_shards[0], 6u);  // 8 - objected(2) - erased(3)
  EXPECT_EQ(processed_by_shards[0], processed_by_shards[1]);
  EXPECT_EQ(drilled_by_shards[0], drilled_by_shards[1]);
}

// ---- Art. 15 history through the per-subject index ------------------------

TEST_F(RightsMatrixTest, AccessHistoryMatchesFullScanAtOneAndFourShards) {
  std::vector<std::string> histories_by_shards;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    auto os = BootTrimmingLog(shards, /*segment_bytes=*/2048);
    for (std::uint64_t s = 1; s <= 12; ++s) {
      PutUser(*os, s, "subject" + std::to_string(s));
    }
    const auto processing = RegisterPurpose3(*os);
    for (int round = 0; round < 3; ++round) {
      EXPECT_EQ(Processed(*os, processing), 12u);
    }
    for (std::uint64_t s = 1; s <= 4; ++s) {
      ASSERT_TRUE(os->RightOfAccess(s).ok());
    }
    ASSERT_TRUE(os->RightToObject(2, "purpose3").ok());
    ASSERT_TRUE(os->RightToBeForgotten(3).ok());
    EXPECT_EQ(Processed(*os, processing), 10u);

    core::ProcessingLog& log = os->processing_log();
    if (log.segmented_durability()) {
      ASSERT_LT(log.entry_count(), log.total_entries())
          << "the window must have trimmed for this test to read durably";
    }
    log_testing::ExpectIndexMatchesScan(log, {99});
    // Record ids and timestamps depend on the shard count; what each
    // subject's history says does not.
    std::string histories;
    for (std::uint64_t s = 1; s <= 12; ++s) {
      auto history = log.ForSubject(s);
      ASSERT_TRUE(history.ok()) << history.status().ToString();
      for (const core::LogEntry& e : *history) {
        histories += std::to_string(s) + ":" + e.processing + "/" + e.purpose +
                     "/" + std::string(core::LogOutcomeName(e.outcome)) + ";";
      }
    }
    histories_by_shards.push_back(histories);
  }
  EXPECT_EQ(histories_by_shards[0], histories_by_shards[1]);
}

class AccessTamperTest : public RightsMatrixTest {
 protected:
  /// Subject 1's one "proc-target" entry, pushed out of the hot window
  /// by subject 2's entries but still in the (unsealed) active tail.
  void SetUp() override {
    os_ = BootTrimmingLog(1, /*segment_bytes=*/256 * 1024);
    if (!os_->processing_log().segmented_durability()) {
      GTEST_SKIP() << "a legacy flat log serves its history from memory";
    }
    PutUser(*os_, 1, "alice");
    log().Append("proc-target", "purpose3", 1, 0, core::LogOutcome::kProcessed);
    for (int i = 0; i < 20; ++i) {
      log().Append("filler", "purpose3", 2, 0, core::LogOutcome::kProcessed);
    }
    auto access = os_->RightOfAccess(1);
    ASSERT_TRUE(access.ok()) << access.status().ToString();
    ASSERT_NE(access->find("proc-target"), std::string::npos);

    auto view = auditlog::SegmentedLog::Mount(
        &os_->dbfs_store(), os_->dbfs().processing_log_inode(), {});
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    active_ = (*view)->active_inode();
    auto tail = os_->dbfs_store().ReadAll(active_);
    ASSERT_TRUE(tail.ok());
    tail_ = *tail;
  }

  core::ProcessingLog& log() { return os_->processing_log(); }

  void WriteTail(const Bytes& tail) {
    ASSERT_TRUE(os_->dbfs_store()
                    .WriteAll(active_, ByteSpan(tail.data(), tail.size()))
                    .ok());
  }

  /// Access must fail loudly and count the failure.
  void ExpectAccessCorrupt() {
    metrics::Counter& failures = metrics::MetricsRegistry::Instance().GetCounter(
        "core.processing_log.verify_failures");
    const std::uint64_t before = failures.Value();
    auto access = os_->RightOfAccess(1);
    ASSERT_FALSE(access.ok()) << "served: " << *access;
    EXPECT_EQ(access.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(failures.Value(), before + 1);
  }

  std::unique_ptr<core::RgpdOs> os_;
  inodefs::InodeId active_ = inodefs::kInvalidInode;
  Bytes tail_;
};

TEST_F(AccessTamperTest, FlippedByteInServedEntryIsCorruption) {
  const Bytes needle = ToBytes("proc-target");
  const auto at =
      std::search(tail_.begin(), tail_.end(), needle.begin(), needle.end());
  ASSERT_NE(at, tail_.end());
  *(at + 8) ^= 0x20;  // "proc-tarGet"
  WriteTail(tail_);
  ExpectAccessCorrupt();
}

TEST_F(AccessTamperTest, RewrittenEntryWithRecomputedChainIsCorruption) {
  const Bytes forged = log_testing::ForgeEntry(
      tail_,
      [](const core::LogEntry& e) { return e.processing == "proc-target"; },
      [](core::LogEntry& e) { e.processing = "proc-forged"; });
  ASSERT_FALSE(forged.empty());
  WriteTail(forged);
  ExpectAccessCorrupt();
}

// ---- Art. 33 drill over the processing log --------------------------------

TEST_F(RightsMatrixTest, BreachDrillAttributesOnlyPdFlowSubjects) {
  auto os = BootWorld();
  PutUser(*os, 1, "touched");
  PutUser(*os, 2, "objector");
  const auto processing = RegisterPurpose3(*os);
  ASSERT_TRUE(os->RightToObject(2, "purpose3").ok());
  ASSERT_EQ(Processed(*os, processing), 1u);

  auto drill = core::DrillCompromisedPurpose(os->processing_log(),
                                             "purpose3");
  ASSERT_TRUE(drill.ok()) << drill.status().ToString();
  EXPECT_TRUE(drill->chain_verified);
  // Subject 1's PD flowed; subject 2 was filtered by the objection and
  // never exposed — a correct Art. 33 notification lists only subject 1.
  EXPECT_EQ(drill->subjects, std::set<dbfs::SubjectId>{1});
  EXPECT_GT(drill->pd_touches, 0u);
  EXPECT_NE(drill->notification.find("Art.33"), std::string::npos);
  const std::string json = drill->ToJson();
  EXPECT_NE(json.find("\"purpose\":\"purpose3\""), std::string::npos);
  EXPECT_NE(json.find("\"chain_verified\":true"), std::string::npos);

  // A purpose that never ran has nothing to notify.
  auto clean = core::DrillCompromisedPurpose(os->processing_log(),
                                             "never_registered");
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->subjects.empty());
  EXPECT_EQ(clean->pd_touches, 0u);
}

// ---- Art. 20 import idempotence -------------------------------------------

TEST_F(RightsMatrixTest, ReimportingTheSameExportAddsNothing) {
  auto os = BootWorld();
  PutUser(*os, 9, "mover");
  PutUser(*os, 9, "mover_second_record");
  auto exported = os->dbfs().ExportSubject(kDed, 9);
  ASSERT_TRUE(exported.ok());

  auto other = BootWorld();
  auto first = other->rights().ImportSubject(*exported);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, 2u);
  auto snapshot = other->RightToPortability(9);
  ASSERT_TRUE(snapshot.ok());

  // The same export again: zero new records, and the subject's
  // portability document is byte-identical — the receiving operator's
  // PD holdings did not change at all.
  auto second = other->rights().ImportSubject(*exported);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(*second, 0u);
  auto after = other->RightToPortability(9);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*snapshot, *after);
  auto records = other->dbfs().RecordsOfSubject(kDed, 9);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
}

TEST_F(RightsMatrixTest, PortabilityRoundTripPreservesRowsAndConsents) {
  auto os = BootWorld();
  const dbfs::RecordId id = PutUser(*os, 9, "mover");
  // A non-default consent state must travel: objection + revocation.
  ASSERT_TRUE(os->RightToObject(9, "purpose3").ok());
  ASSERT_TRUE(
      os->builtins().RevokeConsent(PdRef{id, "user"}, "purpose1").ok());
  auto exported = os->dbfs().ExportSubject(kDed, 9);
  ASSERT_TRUE(exported.ok());

  auto other = BootWorld();
  ASSERT_TRUE(other->rights().ImportSubject(*exported).ok());
  auto records = other->dbfs().RecordsOfSubject(kDed, 9);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  auto record = other->dbfs().Get(kDed, (*records)[0]);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(*record->row[0].AsString(), "mover");
  EXPECT_EQ(record->membrane.consents.at("purpose1").kind,
            membrane::ConsentKind::kNone);
  EXPECT_TRUE(record->membrane.ObjectedTo("purpose3"));

  // And the new operator ENFORCES the travelled objection: an invoke
  // there filters the imported record.
  const auto processing = RegisterPurpose3(*other);
  EXPECT_EQ(Processed(*other, processing), 0u);
}

// ---- the shared JSON escaper ----------------------------------------------

TEST(JsonEscapeTest, EscapesEveryControlCharPerRfc8259) {
  // RFC 8259 §7: U+0000..U+001F MUST be escaped. Exhaustively.
  for (int c = 0x00; c <= 0x1F; ++c) {
    const std::string in(1, static_cast<char>(c));
    const std::string out = JsonEscape(in);
    std::string expect;
    switch (c) {
      case '\n': expect = "\\n"; break;
      case '\r': expect = "\\r"; break;
      case '\t': expect = "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        expect = "\\u00";
        expect += kHex[(c >> 4) & 0xF];
        expect += kHex[c & 0xF];
      }
    }
    EXPECT_EQ(out, expect) << "control char 0x" << std::hex << c;
    for (const char byte : out) {
      EXPECT_GE(static_cast<unsigned char>(byte), 0x20u);
    }
  }
  EXPECT_EQ(JsonEscape("say \"hi\"\\now"), "say \\\"hi\\\"\\\\now");
  // Printable ASCII and UTF-8 multibyte sequences pass through.
  EXPECT_EQ(JsonEscape("plain text 123"), "plain text 123");
  EXPECT_EQ(JsonEscape("caf\xC3\xA9"), "caf\xC3\xA9");
  EXPECT_EQ(JsonEscape(""), "");
  // Embedded NUL mid-string does not truncate.
  EXPECT_EQ(JsonEscape(std::string_view("a\0b", 3)), "a\\u0000b");
}

}  // namespace
}  // namespace rgpdos
