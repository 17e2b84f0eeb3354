// Regulator audit — the right-of-access machinery from the regulator's
// side (paper §4): per-PD processing history, tamper-evident logs, the
// sentinel's denial trail, and GDPR-penalty statistics (Fig 1).
#include <algorithm>
#include <cstdio>

#include "core/regulator_export.hpp"
#include "core/rgpdos.hpp"
#include "penalties/penalties.hpp"
#include "sentinel/breach.hpp"

using namespace rgpdos;

namespace {

constexpr std::string_view kTypes = R"(
type account {
  fields { holder: string, iban: string, balance_cents: int };
  view v_balance { balance_cents };
  consent {
    fraud_detection: all,
    credit_scoring: v_balance,
    marketing: none
  };
  origin: subject;
  age: 5Y;
  sensitivity: high;
}
type risk_score {
  fields { score: int };
  consent { fraud_detection: all };
  origin: subject;
  sensitivity: medium;
}
)";

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main() {
  auto booted = core::RgpdOs::Boot(core::BootConfig{});
  if (!booted.ok()) return Fail(booted.status());
  auto& os = **booted;
  std::printf("== regulator audit ==\n");

  if (auto d = os.DeclareTypes(kTypes); !d.ok()) return Fail(d.status());
  auto type = os.dbfs().GetType(sentinel::Domain::kDed, "account");
  if (!type.ok()) return Fail(type.status());
  for (std::uint64_t subject = 1; subject <= 5; ++subject) {
    membrane::Membrane m =
        (*type)->DefaultMembrane(subject, os.clock().Now());
    auto id = os.dbfs().Put(
        sentinel::Domain::kDed, subject, "account",
        db::Row{db::Value("holder_" + std::to_string(subject)),
                db::Value("FR76" + std::to_string(1000 + subject)),
                db::Value(std::int64_t(subject) * 12345)},
        std::move(m));
    if (!id.ok()) return Fail(id.status());
  }

  // Run two legitimate processings and one that gets filtered.
  core::ImplManifest scoring;
  scoring.claimed_purpose = "credit_scoring";
  scoring.fields_read = {"balance_cents"};
  scoring.output_type = "risk_score";
  auto credit = os.RegisterProcessingSource(
      R"(purpose credit_scoring {
           input: account.v_balance;
           output: risk_score;
           description: "score accounts by balance";
         })",
      [](core::ProcessingInput& input) -> Result<core::ProcessingOutput> {
        core::ProcessingOutput output;
        RGPD_ASSIGN_OR_RETURN(db::Value balance,
                              input.Field("balance_cents"));
        output.derived_row =
            db::Row{db::Value(*balance.AsInt() > 30000 ? std::int64_t{1}
                                                       : std::int64_t{5})};
        return output;
      },
      scoring);
  if (!credit.ok()) return Fail(credit.status());
  if (auto r = os.ps().Invoke(sentinel::Domain::kApplication, *credit, {});
      !r.ok()) {
    return Fail(r.status());
  }

  core::ImplManifest marketing;
  marketing.claimed_purpose = "marketing";
  auto ads = os.RegisterProcessingSource(
      "purpose marketing { input: account; }",
      [](core::ProcessingInput&) -> Result<core::ProcessingOutput> {
        return core::ProcessingOutput{};
      },
      marketing);
  if (!ads.ok()) return Fail(ads.status());
  if (auto r = os.ps().Invoke(sentinel::Domain::kApplication, *ads, {});
      !r.ok()) {
    return Fail(r.status());
  }

  // A hostile probing burst, for the denial trail and breach detector.
  for (int i = 0; i < 8; ++i) {
    (void)os.dbfs().Get(sentinel::Domain::kOutside, 1 + i);
  }

  // ---- The audit itself ---------------------------------------------------
  std::printf("\n-- processing log (per-PD history) --\n");
  const core::ProcessingLog& log = os.processing_log();
  std::printf("log entries: %zu, hash chain intact: %s\n",
              log.entries().size(), log.VerifyChain() ? "yes" : "NO");
  const auto history = log.ForSubject(3);
  if (!history.ok()) return Fail(history.status());
  const std::vector<core::LogEntry>& subject3 = *history;
  std::printf("history of subject 3's PD (%zu events):\n", subject3.size());
  for (const core::LogEntry& e : subject3) {
    std::printf("  [%llu] %s purpose=%s record=%llu outcome=%s %s\n",
                static_cast<unsigned long long>(e.seq),
                e.processing.c_str(), e.purpose.c_str(),
                static_cast<unsigned long long>(e.record_id),
                std::string(core::LogOutcomeName(e.outcome)).c_str(),
                e.detail.c_str());
  }

  std::printf("\n-- sentinel decisions --\n");
  std::printf("allowed: %llu, denied: %llu\n",
              static_cast<unsigned long long>(os.audit().allowed_count()),
              static_cast<unsigned long long>(os.audit().denied_count()));
  for (const sentinel::AuditEntry& e :
       os.audit().Query([](const sentinel::AuditEntry& entry) {
         return !entry.allowed;
       })) {
    std::printf("  DENIED %s -> %s (%s) %s\n",
                std::string(sentinel::DomainName(e.request.subject)).c_str(),
                std::string(sentinel::DomainName(e.request.object)).c_str(),
                std::string(sentinel::OperationName(e.request.op)).c_str(),
                e.request.detail.c_str());
  }

  // The structured bundle a supervisory authority actually receives:
  // deterministic JSONL derived from the durable hash-chained logs, so
  // two exports (or one before and one after a restart) diff clean.
  std::printf("\n-- structured regulator export (JSONL) --\n");
  const core::RegulatorExporter exporter(&log);
  auto subject_export = exporter.ExportSubject(3);
  if (!subject_export.ok()) return Fail(subject_export.status());
  std::printf("subject 3 processing history (%zu bytes):\n%s",
              subject_export->size(), subject_export->c_str());
  if (os.audit_pipeline() != nullptr) {
    if (auto f = os.audit_pipeline()->Flush(); !f.ok()) return Fail(f);
    auto trail = core::RegulatorExporter::ExportAuditTrail(
        &os.dbfs_store(), os.dbfs().audit_manifest_inode());
    if (!trail.ok()) return Fail(trail.status());
    const std::size_t lines =
        std::count(trail->begin(), trail->end(), '\n');
    std::printf("durable audit trail: %zu chain-verified decisions "
                "(%zu JSONL bytes)\n",
                lines > 0 ? lines - 1 : 0, trail->size());
  }

  std::printf("\n-- breach sweep (Art. 33) --\n");
  const auto breaches =
      sentinel::DetectBreaches(os.audit(), sentinel::BreachPolicy{});
  for (const sentinel::BreachFinding& finding : breaches) {
    std::printf("  %s\n", finding.notification.c_str());
  }
  if (breaches.empty()) std::printf("  no denial bursts found\n");

  std::printf("\n-- sensitivity segregation --\n");
  auto sensitivity = os.dbfs().ReportSensitivity(sentinel::Domain::kSysadmin);
  if (!sensitivity.ok()) return Fail(sensitivity.status());
  std::printf("  low=%zu medium=%zu high=%zu\n", sensitivity->by_level[0],
              sensitivity->by_level[1], sensitivity->by_level[2]);
  for (const auto& [type, count] : sensitivity->high_by_type) {
    std::printf("  high-sensitivity type '%s': %zu records\n", type.c_str(),
                count);
  }

  std::printf("\n-- what non-compliance costs (paper Fig 1) --\n");
  for (const auto& [year, total] : penalties::TotalsByYear()) {
    std::printf("  %d: %.1f MEUR\n", year, total / 1e6);
  }
  std::printf("  top sanctioned sectors by amount:\n");
  for (const auto& [sector, amount] : penalties::TopSectorsByAmount(5)) {
    std::printf("    %-12s %.1f MEUR\n", sector.c_str(), amount / 1e6);
  }

  std::printf("\nregulator audit complete.\n");
  return 0;
}
