// The benchmark's world: one BootConfig for every workload, a subject
// population generated from the workload seed, the `analytics` purpose,
// and a model of what the store must hold so every result can be checked.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/rgpdos.hpp"
#include "dsl/parser.hpp"
#include "workload/workload.hpp"

namespace rgpdos::perfbench {

// Listing-1-shaped type: `analytics` sees only the anonymising view.
inline constexpr std::string_view kTypes = R"(
type user {
  fields { name: string, pwd: string, year_of_birthdate: int };
  view v_ano { year_of_birthdate };
  consent { analytics: v_ano, full: all };
  origin: subject;
  sensitivity: high;
}
)";

inline const dsl::TypeDecl& UserDecl() {
  static const dsl::TypeDecl decl = dsl::Parse(kTypes)->types.front();
  return decl;
}

/// Defaults, except store sizing for the population, the NVMe cost model
/// (so a simulated-device column exists) and DED lanes taken from the
/// kernel's CPU partition. The store holds `subjects` records plus `room`
/// more, and `log_blocks` of durable log beyond the set-up's.
inline core::BootConfig BenchConfig(std::size_t subjects, std::size_t room,
                                    std::uint64_t log_blocks) {
  const std::size_t records = subjects + room;
  core::BootConfig config;
  config.latency = blockdev::LatencyProfile::Nvme();
  config.worker_threads = 0;
  // A user record takes a row inode and a membrane inode, one block each,
  // plus subject-tree and index nodes (two inodes per record run the table
  // out); shard 0 also carries the durable audit log and processing log.
  config.inode_count = static_cast<std::uint32_t>(records * 3 + 4096);
  config.dbfs_blocks = records * 4 + 32768 + log_blocks;
  // One invoke over the population appends its processing-log entries in
  // a single transaction, which must fit the journal (20k records need
  // more than 256 blocks and fit in 512).
  config.journal_blocks = std::max<std::uint64_t>(256, subjects / 32);
  // The NPD store shares inode_count, so its inode table grows with the
  // population too: 128-byte inodes, 32 to a 4 KiB block.
  const std::uint64_t inode_table_blocks =
      (std::uint64_t{config.inode_count} * 128 + config.block_size - 1) /
      config.block_size;
  config.npd_blocks = inode_table_blocks + config.journal_blocks + 4096;
  return config;
}

/// Boot with BenchConfig, or print why not and return null.
inline std::unique_ptr<core::RgpdOs> BootWorld(std::size_t subjects,
                                               std::size_t room,
                                               std::uint64_t log_blocks) {
  auto booted = core::RgpdOs::Boot(BenchConfig(subjects, room, log_blocks));
  if (!booted.ok()) {
    std::fprintf(stderr, "boot failed: %s\n",
                 booted.status().ToString().c_str());
    return nullptr;
  }
  auto os = std::move(booted).value();
  if (!os->DeclareTypes(kTypes).ok()) return nullptr;
  return os;
}

/// What the store must hold, kept by the benchmark beside it.
struct Model {
  struct Record {
    dbfs::RecordId id = 0;
    db::Row row;
    bool analytics = true;  ///< `analytics` consent still granted
  };
  /// Live records per subject; subject s is index s - 1.
  std::vector<std::vector<Record>> live;
  /// Subjects erased by the right to be forgotten.
  std::vector<bool> forgotten;
  /// Records that a hard delete or an erasure removed.
  std::vector<dbfs::RecordId> gone;

  [[nodiscard]] std::size_t subjects() const { return live.size(); }
  std::vector<Record>& of(std::uint64_t subject) { return live[subject - 1]; }
};

/// Fresh row for `subject`: the name carries the subject and a serial so
/// a read-back can tell versions apart.
inline db::Row UserRow(std::uint64_t subject, std::uint64_t serial,
                       std::int64_t year) {
  return db::Row{db::Value("user" + std::to_string(subject) + "v" +
                           std::to_string(serial)),
                 db::Value(std::string("pw")), db::Value(year)};
}

/// Put `subjects` users, one record each; subject s keeps its `analytics`
/// consent unless s is listed in `revoked`. Returns false on any failure.
inline bool Populate(core::RgpdOs& os, std::size_t subjects,
                     const std::vector<bool>& revoked, std::uint64_t seed,
                     Model& model) {
  model.live.assign(subjects, {});
  model.forgotten.assign(subjects, false);
  model.gone.clear();
  Rng rng(seed);
  for (std::uint64_t s = 1; s <= subjects; ++s) {
    Model::Record record;
    record.row = UserRow(s, 0, rng.NextInRange(1940, 2010));
    membrane::Membrane m = UserDecl().DefaultMembrane(s, os.clock().Now());
    if (revoked[s - 1]) {
      m.RevokeConsent("analytics");
      record.analytics = false;
    }
    auto id = os.dbfs().Put(sentinel::Domain::kDed, s, "user", record.row,
                            std::move(m));
    if (!id.ok()) {
      std::fprintf(stderr, "put failed: %s\n",
                   id.status().ToString().c_str());
      return false;
    }
    record.id = *id;
    model.of(s).push_back(std::move(record));
  }
  return true;
}

/// How many records the `analytics` implementation was handed.
struct Served {
  std::atomic<std::uint64_t> calls{0};
};

/// Register the read-only `analytics` purpose (no derived output).
inline Result<core::ProcessingId> RegisterAnalytics(core::RgpdOs& os,
                                                    Served& served) {
  core::ImplManifest manifest;
  manifest.claimed_purpose = "analytics";
  manifest.fields_read = {"year_of_birthdate"};
  return os.RegisterProcessingSource(
      "purpose analytics { input: user.v_ano; }",
      [&served](core::ProcessingInput& input)
          -> Result<core::ProcessingOutput> {
        served.calls.fetch_add(1, std::memory_order_relaxed);
        RGPD_ASSIGN_OR_RETURN(db::Value year,
                              input.Field("year_of_birthdate"));
        if (!year.AsInt().ok()) return InvalidArgument("year is not an int");
        return core::ProcessingOutput{};
      },
      manifest);
}

}  // namespace rgpdos::perfbench
