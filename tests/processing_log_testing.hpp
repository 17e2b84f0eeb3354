// Test helpers for ProcessingLog::ForSubject: an oracle (the per-subject
// index must answer exactly what a full, chain-verified ForEach scan
// filtered on the subject answers) and a forger that rewrites one entry
// of a raw entry stream the way an attacker with device access would.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <vector>

#include "core/processing_log.hpp"

namespace rgpdos::log_testing {

/// Every subject the scan saw, plus `extra` (e.g. subjects with no
/// entries), is checked: same entries, same order, identical encodings.
inline void ExpectIndexMatchesScan(const core::ProcessingLog& log,
                                   const std::vector<dbfs::SubjectId>& extra =
                                       {}) {
  std::map<dbfs::SubjectId, std::vector<core::LogEntry>> scanned;
  const Status walked = log.ForEach([&](const core::LogEntry& e) {
    scanned[e.subject_id].push_back(e);
  });
  ASSERT_TRUE(walked.ok()) << walked.ToString();
  for (dbfs::SubjectId s : extra) scanned[s];
  for (const auto& [subject, want] : scanned) {
    const auto indexed = log.ForSubject(subject);
    ASSERT_TRUE(indexed.ok())
        << "subject " << subject << ": " << indexed.status().ToString();
    ASSERT_EQ(indexed->size(), want.size()) << "subject " << subject;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(core::ProcessingLog::EncodeEntry((*indexed)[i]),
                core::ProcessingLog::EncodeEntry(want[i]))
          << "subject " << subject << " entry " << i;
    }
  }
}

/// `stream` with the first entry matching `target` changed by `edit` and
/// its chain digest recomputed over its stored predecessor: locally
/// consistent, globally a forgery. Empty when no entry matches.
inline Bytes ForgeEntry(const Bytes& stream,
                        const std::function<bool(const core::LogEntry&)>& target,
                        const std::function<void(core::LogEntry&)>& edit) {
  ByteReader reader(stream);
  crypto::Sha256Digest prev{};
  Bytes forged;
  bool rewritten = false;
  while (!reader.exhausted()) {
    const std::size_t start = reader.position();
    auto entry = core::ProcessingLog::DecodeEntry(reader);
    if (!entry.ok()) return {};
    if (!rewritten && target(*entry)) {
      edit(*entry);
      entry->chain = core::ProcessingLog::HashEntry(*entry, prev);
      const Bytes image = core::ProcessingLog::EncodeEntry(*entry);
      forged.insert(forged.end(), image.begin(), image.end());
      rewritten = true;
    } else {
      forged.insert(forged.end(), stream.begin() + start,
                    stream.begin() + reader.position());
    }
    prev = entry->chain;
  }
  return rewritten ? forged : Bytes{};
}

}  // namespace rgpdos::log_testing
