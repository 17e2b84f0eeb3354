#include "core/rights.hpp"

#include "common/hex.hpp"
#include "common/json.hpp"

namespace rgpdos::core {

namespace {
constexpr sentinel::Domain kDed = sentinel::Domain::kDed;

void AppendValueJson(std::string& out, const db::Value& value) {
  switch (value.type()) {
    case db::ValueType::kNull: out += "null"; break;
    case db::ValueType::kInt: out += std::to_string(*value.AsInt()); break;
    case db::ValueType::kDouble:
      out += std::to_string(*value.AsDouble());
      break;
    case db::ValueType::kBool: out += *value.AsBool() ? "true" : "false"; break;
    case db::ValueType::kString:
      out += '"';
      out += JsonEscape(*value.AsString());
      out += '"';
      break;
    case db::ValueType::kBytes:
      out += '"';
      out += HexEncode(*value.AsBytes());
      out += '"';
      break;
  }
}

void AppendRecordJson(std::string& out, const dbfs::PdRecord& record,
                      const dsl::TypeDecl& type) {
  out += "{\"record_id\":" + std::to_string(record.record_id);
  out += ",\"type\":\"" + JsonEscape(record.type_name) + "\"";
  out += ",\"erased\":";
  out += record.erased ? "true" : "false";
  if (!record.erased) {
    out += ",\"fields\":{";
    const auto& fields = type.fields;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) out += ',';
      out += '"';
      out += JsonEscape(fields[i].name);
      out += "\":";
      AppendValueJson(out, record.row[i]);
    }
    out += '}';
  }
  out += ",\"membrane\":{";
  out += "\"origin\":\"" +
         std::string(membrane::OriginName(record.membrane.origin)) + "\"";
  out += ",\"sensitivity\":\"" +
         std::string(membrane::SensitivityName(record.membrane.sensitivity)) +
         "\"";
  out += ",\"created_at\":" + std::to_string(record.membrane.created_at);
  out += ",\"ttl\":" + std::to_string(record.membrane.ttl);
  out += ",\"consents\":{";
  bool first = true;
  for (const auto& [purpose, consent] : record.membrane.consents) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += JsonEscape(purpose);
    out += "\":\"";
    switch (consent.kind) {
      case membrane::ConsentKind::kNone: out += "none"; break;
      case membrane::ConsentKind::kAll: out += "all"; break;
      case membrane::ConsentKind::kView:
        out += "view:" + JsonEscape(consent.view);
        break;
    }
    out += '"';
  }
  out += "},\"objections\":[";
  first = true;
  for (const std::string& purpose : record.membrane.objections) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += JsonEscape(purpose);
    out += '"';
  }
  out += "],\"no_automated_decision\":";
  out += record.membrane.no_automated_decision ? "true" : "false";
  out += "}}";
}

}  // namespace

std::string JsonEscape(std::string_view text) {
  return rgpdos::JsonEscape(text);
}

Result<std::string> Rights::Access(dbfs::SubjectId subject) const {
  RGPD_ASSIGN_OR_RETURN(dbfs::SubjectExport data,
                        dbfs_->ExportSubject(kDed, subject));
  std::string out = "{\"subject_id\":" + std::to_string(subject);
  out += ",\"records\":[";
  for (std::size_t i = 0; i < data.records.size(); ++i) {
    if (i > 0) out += ',';
    RGPD_ASSIGN_OR_RETURN(const dsl::TypeDecl* type,
                          dbfs_->GetType(kDed, data.records[i].type_name));
    AppendRecordJson(out, data.records[i], *type);
  }
  out += "],\"processings\":[";
  RGPD_ASSIGN_OR_RETURN(const std::vector<LogEntry> history,
                        log_->ForSubject(subject));
  for (std::size_t i = 0; i < history.size(); ++i) {
    if (i > 0) out += ',';
    const LogEntry& e = history[i];
    out += "{\"at\":" + std::to_string(e.at);
    out += ",\"processing\":\"" + JsonEscape(e.processing) + "\"";
    out += ",\"purpose\":\"" + JsonEscape(e.purpose) + "\"";
    out += ",\"record_id\":" + std::to_string(e.record_id);
    out += ",\"outcome\":\"" + std::string(LogOutcomeName(e.outcome)) + "\"}";
  }
  out += "]}";
  log_->Append("rights.access", "right_of_access", subject, 0,
               LogOutcome::kExported);
  return out;
}

Result<std::string> Rights::Portability(dbfs::SubjectId subject) const {
  RGPD_ASSIGN_OR_RETURN(dbfs::SubjectExport data,
                        dbfs_->ExportSubject(kDed, subject));
  std::string out = "{\"subject_id\":" + std::to_string(subject);
  out += ",\"records\":[";
  bool first = true;
  for (const dbfs::PdRecord& record : data.records) {
    if (record.erased) continue;  // erased PD is not portable
    if (!first) out += ',';
    first = false;
    RGPD_ASSIGN_OR_RETURN(const dsl::TypeDecl* type,
                          dbfs_->GetType(kDed, record.type_name));
    AppendRecordJson(out, record, *type);
  }
  out += "]}";
  log_->Append("rights.portability", "right_to_portability", subject, 0,
               LogOutcome::kExported);
  return out;
}

Result<std::size_t> Rights::Forget(
    dbfs::SubjectId subject, const crypto::RsaPublicKey& authority_key) {
  RGPD_ASSIGN_OR_RETURN(std::vector<dbfs::RecordId> records,
                        dbfs_->RecordsOfSubject(kDed, subject));
  std::size_t erased = 0;
  for (dbfs::RecordId id : records) {
    RGPD_ASSIGN_OR_RETURN(dbfs::PdRecord record, dbfs_->Get(kDed, id));
    if (record.erased) continue;
    RGPD_RETURN_IF_ERROR(builtins_->EraseWithHold(
        PdRef{id, record.type_name}, authority_key));
    ++erased;
  }
  return erased;
}

Status Rights::Rectify(const PdRef& ref, const db::Row& row) {
  return builtins_->Update(ref, row);
}

Result<std::size_t> Rights::ForEachCopyGroup(
    dbfs::SubjectId subject,
    const std::function<Status(const PdRef&)>& apply) {
  RGPD_ASSIGN_OR_RETURN(std::vector<dbfs::RecordId> records,
                        dbfs_->RecordsOfSubject(kDed, subject));
  std::set<std::uint64_t> groups;
  std::size_t touched = 0;
  for (dbfs::RecordId id : records) {
    RGPD_ASSIGN_OR_RETURN(membrane::Membrane m,
                          dbfs_->GetMembrane(kDed, id));
    // The builtin propagates across the whole copy group; visiting one
    // member per group is enough (and keeps version bumps minimal).
    if (!groups.insert(m.copy_group).second) continue;
    RGPD_RETURN_IF_ERROR(apply(PdRef{id, m.type_name}));
    ++touched;
  }
  return touched;
}

Result<std::size_t> Rights::Object(dbfs::SubjectId subject,
                                   const std::string& purpose) {
  return ForEachCopyGroup(subject, [&](const PdRef& ref) {
    return builtins_->Object(ref, purpose);
  });
}

Result<std::size_t> Rights::WithdrawObjection(dbfs::SubjectId subject,
                                              const std::string& purpose) {
  return ForEachCopyGroup(subject, [&](const PdRef& ref) {
    return builtins_->WithdrawObjection(ref, purpose);
  });
}

Result<std::size_t> Rights::OptOutAutomatedDecisions(dbfs::SubjectId subject,
                                                     bool opt_out) {
  return ForEachCopyGroup(subject, [&](const PdRef& ref) {
    return builtins_->SetAutomatedDecisionOptOut(ref, opt_out);
  });
}

namespace {

/// Identity of an imported record for dedupe purposes: subject + type +
/// encoded row + the membrane as it would be stored here (origin forced
/// to third-party; copy group and version masked — Put assigns a fresh
/// group, and unrelated mutations bump version without changing what
/// the record *is*).
std::string ImportKey(dbfs::SubjectId subject, const std::string& type_name,
                      const db::Schema& schema, const db::Row& row,
                      membrane::Membrane m) {
  m.origin = membrane::Origin::kThirdParty;
  m.copy_group = 0;
  m.version = 0;
  std::string key = std::to_string(subject) + '/' + type_name + '/';
  const Bytes row_bytes = schema.EncodeRow(row);
  key.append(reinterpret_cast<const char*>(row_bytes.data()),
             row_bytes.size());
  key += '/';
  const Bytes membrane_bytes = m.Serialize();
  key.append(reinterpret_cast<const char*>(membrane_bytes.data()),
             membrane_bytes.size());
  return key;
}

}  // namespace

Result<std::size_t> Rights::ImportSubject(const dbfs::SubjectExport& data) {
  // Idempotence: importing the same export twice must not duplicate PD
  // (Art. 5(1)(c) data minimisation — silent copies are how operators
  // end up holding more PD than the subject ever moved). Build the set
  // of records already present, keyed by content, and skip matches.
  std::set<std::string> existing;
  std::set<dbfs::SubjectId> seen_subjects;
  for (const dbfs::PdRecord& record : data.records) {
    if (record.erased || !seen_subjects.insert(record.subject_id).second) {
      continue;
    }
    RGPD_ASSIGN_OR_RETURN(std::vector<dbfs::RecordId> here,
                          dbfs_->RecordsOfSubject(kDed, record.subject_id));
    for (dbfs::RecordId id : here) {
      RGPD_ASSIGN_OR_RETURN(dbfs::PdRecord mine, dbfs_->Get(kDed, id));
      if (mine.erased) continue;
      RGPD_ASSIGN_OR_RETURN(const dsl::TypeDecl* type,
                            dbfs_->GetType(kDed, mine.type_name));
      existing.insert(ImportKey(mine.subject_id, mine.type_name,
                                type->ToSchema(), mine.row, mine.membrane));
    }
  }
  std::size_t imported = 0;
  for (const dbfs::PdRecord& record : data.records) {
    if (record.erased) continue;
    // The receiving operator's schema tree must know the type; a type
    // mismatch is the importer's problem to resolve, not ours to guess.
    RGPD_ASSIGN_OR_RETURN(const dsl::TypeDecl* type,
                          dbfs_->GetType(kDed, record.type_name));
    const std::string key =
        ImportKey(record.subject_id, record.type_name, type->ToSchema(),
                  record.row, record.membrane);
    if (!existing.insert(key).second) {
      log_->Append("rights.import", "right_to_portability",
                   record.subject_id, record.record_id,
                   LogOutcome::kCollected, "already imported; skipped");
      continue;
    }
    membrane::Membrane m = record.membrane;
    m.origin = membrane::Origin::kThirdParty;  // it came from elsewhere
    m.copy_group = 0;                          // fresh group here
    RGPD_ASSIGN_OR_RETURN(
        dbfs::RecordId id,
        dbfs_->Put(kDed, record.subject_id, record.type_name, record.row,
                   std::move(m)));
    log_->Append("rights.import", "right_to_portability",
                 record.subject_id, id, LogOutcome::kCollected,
                 "imported from another operator");
    ++imported;
  }
  return imported;
}

}  // namespace rgpdos::core
