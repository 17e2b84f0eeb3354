// perfbench — the repository benchmark.
//
//   perfbench --workload <controller|rights|invoke> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Boots core::RgpdOs and drives one workload from a single client thread
// in a closed loop: each call waits for the previous one, as an
// application or a data subject does against an in-process OS. Every
// result is checked against a model of what the store must hold; a wrong
// result counts as failed and is printed with its op name.
//
// --trace 0 prints the end-to-end metrics (host wall-clock time only).
// --trace 1 runs the same phase with every other block of the mix traced
// and prints the per-layer ledger: the benchmark's own spans around its
// calls into ProcessingStore, Rights, Builtins and DbfsApi (traced blocks),
// B - A deltas of the counters and histograms the program exports (whole
// phase), and the traced blocks' throughput against the untraced ones.
// Simulated device time is reported in its own column and never added to
// wall time.
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "ledger.hpp"
#include "world.hpp"

extern char** environ;

namespace rgpdos::perfbench {
namespace {

using workload::GdprOp;

// ---- workloads ---------------------------------------------------------------

enum class Kind { kController, kRights, kInvoke };

struct Spec {
  Kind kind;
  const char* name;
  std::size_t subjects;
  double zipf_theta;       ///< 0 = uniform subjects
  double revoked_share;    ///< subjects without `analytics` consent
  bool fill_history;       ///< invoke until the log passes its hot window
  std::size_t block;       ///< ops per stratified block of the mix
  int setups;              ///< set-ups timed per run (median is setup_s)
  std::size_t room;        ///< records the store holds beyond the population
  /// Ops per run at most, 0 = none. Every invoke grows the durable audit
  /// and processing logs by ~70 blocks, and the store must hold them all.
  std::size_t max_ops;
};

/// Store blocks per invoke over the 2k population, with headroom.
constexpr std::size_t kLogBlocksPerInvoke = 100;

constexpr Spec kSpecs[] = {
    // Creates outrun deletes 5:1; room for 20k of them is 10x the
    // controller throughput of today's default build.
    {Kind::kController, "controller", 20000, 0.9, 0.0, false, 100, 1, 20000,
     0},
    {Kind::kRights, "rights", 20000, 0.0, 0.0, true, 20, 1, 0, 0},
    // 400 invokes is 20 s of today's default build.
    {Kind::kInvoke, "invoke", 2000, 0.0, 0.1, false, 5, 3, 0, 400},
};

std::uint64_t LogBlocks(const Spec& spec) {
  return spec.max_ops == 0 ? 0 : (spec.max_ops + 1) * kLogBlocksPerInvoke;
}

// Latency classes reported per op.
enum Class { kRead, kWrite, kDelete, kAccess, kPortability, kWithdraw,
             kErasure, kInvokeCall, kClassCount };
constexpr const char* kClassNames[kClassCount] = {
    "read", "write", "delete", "access", "portability", "withdraw",
    "erasure", "invoke"};

Class ClassOf(GdprOp op) {
  switch (op) {
    case GdprOp::kReadRecord: return kRead;
    case GdprOp::kCreateRecord:
    case GdprOp::kUpdateRecord: return kWrite;
    case GdprOp::kDeleteRecord: return kDelete;
    case GdprOp::kRightOfAccess: return kAccess;
    case GdprOp::kRightToPortability: return kPortability;
    case GdprOp::kConsentWithdrawal: return kWithdraw;
    case GdprOp::kRightToErasure: return kErasure;
    default: return kClassCount;
  }
}

/// The mix as a block of ops with exact shares, shuffled per block: the
/// GDPRBench proportions hold in every block, so a run's median cannot
/// jump between op classes as sampled shares wander.
class Schedule {
 public:
  Schedule(const workload::OpMix& mix, std::size_t block, std::uint64_t seed)
      : rng_(seed) {
    double previous = 0;  // OpMix keeps cumulative weights
    const double total = mix.weights().back().second;
    for (const auto& [op, cumulative] : mix.weights()) {
      const auto n = static_cast<std::size_t>(
          std::lround((cumulative - previous) / total * double(block)));
      previous = cumulative;
      block_.insert(block_.end(), n, op);
    }
  }
  GdprOp Next() {
    if (next_ == order_.size()) {
      order_ = block_;
      for (std::size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_.NextBelow(i)]);
      }
      next_ = 0;
    }
    return order_[next_++];
  }

 private:
  Rng rng_;
  std::vector<GdprOp> block_;
  std::vector<GdprOp> order_;
  std::size_t next_ = 0;
};

// ---- statistics --------------------------------------------------------------

/// Linear interpolation between the two closest ranks, so a quantile that
/// falls between two op classes is not one class's extreme sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - double(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// One span per call into a layer: host wall time, and the part of it
/// spent inside DBFS (from DBFS's own latency histograms), so
/// `wall - dbfs` is the caller layer's self time.
struct SpanSum {
  double calls = 0;
  double wall_ns = 0;
  double dbfs_ns = 0;
  [[nodiscard]] double SelfNsPerCall() const {
    return calls == 0 ? 0 : (wall_ns - dbfs_ns) / calls;
  }
};

// ---- one measured phase ------------------------------------------------------

/// Completed ops and records over the wall time of a set of blocks.
struct Tally {
  std::uint64_t completed = 0;
  std::uint64_t records = 0;
  double wall_s = 0;
};

struct Phase {
  std::vector<double> all_ns;
  std::vector<double> class_ns[kClassCount];
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t records = 0;  ///< PD records served or changed
  double wall_s = 0;          ///< measured wall time, checks excluded
  std::vector<std::uint32_t> timeline;  ///< ops finished in each second
  std::map<std::string, SpanSum> spans;  ///< traced blocks only
  /// Untraced [0] and traced [1] blocks. A traced run alternates the two
  /// block by block, so both see the same world state and the same host.
  Tally blocks[2];
};

class Harness {
 public:
  Harness(const Spec& spec, std::uint64_t seed) : spec_(spec), seed_(seed) {}

  /// Boot, populate and (rights) fill the history; `setups` times, keeping
  /// the last world. Returns the median set-up time, or nullopt.
  std::optional<double> SetUp() {
    std::vector<double> times;
    for (int i = 0; i < spec_.setups; ++i) {
      os_.reset();
      before_setup_ = std::make_unique<Probe>(MetricsProbe());
      Stopwatch watch;
      if (!SetUpOnce()) return std::nullopt;
      times.push_back(double(watch.ElapsedNanos()) / 1e9);
      after_setup_ = std::make_unique<Probe>(TakeProbe(*os_));
    }
    for (double t : times) std::printf("setup_s sample: %.4f\n", t);
    return Median(times);
  }

  /// Untimed preparation between set-up and the phase.
  bool Prepare() {
    if (spec_.kind != Kind::kInvoke) return true;
    auto warm = os_->ps().Invoke(sentinel::Domain::kApplication, analytics_);
    return warm.ok() && warm->records_processed == Consenting();
  }

  /// The measured phase: whole blocks of the mix until `seconds` or
  /// `max_ops` is reached, so a cut-off never leaves a partial block whose
  /// share of expensive ops decides the throughput. With `trace`, every
  /// other block is traced.
  Phase Run(double seconds, std::size_t max_ops, bool trace) {
    Phase phase;
    Rng rng(seed_ * 7919 + 1);
    Zipf zipf(spec_.subjects, spec_.zipf_theta > 0 ? spec_.zipf_theta : 0.5,
              seed_ + 17);
    const workload::OpMix mix = spec_.kind == Kind::kRights
                                    ? workload::OpMix::Customer()
                                    : workload::OpMix::Controller();
    Schedule schedule(mix, spec_.block, seed_ + 29);
    const auto deadline_ns = static_cast<std::int64_t>(seconds * 1e9);
    Stopwatch phase_watch;
    std::size_t block_ops = 0;
    bool traced = false;
    Stopwatch block_watch;
    double block_check_ns = 0;
    std::uint64_t block_failed = phase.failed;
    std::uint64_t block_records = phase.records;
    auto close_block = [&] {
      const double wall_s =
          (double(block_watch.ElapsedNanos()) - block_check_ns) / 1e9;
      Tally& t = phase.blocks[traced ? 1 : 0];
      t.wall_s += wall_s;
      t.completed += block_ops - (phase.failed - block_failed);
      t.records += phase.records - block_records;
      phase.wall_s += wall_s;
    };
    while (block_ops != 0 || (phase_watch.ElapsedNanos() < deadline_ns &&
                              (max_ops == 0 || phase.attempted < max_ops))) {
      const std::uint64_t attempted = phase.attempted;
      if (spec_.kind == Kind::kInvoke) {
        RunInvoke(phase, traced);
      } else {
        const GdprOp op = schedule.Next();
        if (op == GdprOp::kCreateRecord &&
            live_records_ >= spec_.subjects + spec_.room) {
          std::printf("store full after %.3f s: phase ends early\n",
                      double(phase_watch.ElapsedNanos()) / 1e9);
          break;
        }
        const std::optional<std::uint64_t> subject =
            PickSubject(op, rng, zipf);
        if (subject) RunOp(op, *subject, rng, phase, traced, block_check_ns);
      }
      if (phase.attempted == attempted) continue;  // no subject to act on
      const auto second =
          static_cast<std::size_t>(phase_watch.ElapsedNanos() / 1000000000);
      if (phase.timeline.size() <= second) phase.timeline.resize(second + 1);
      ++phase.timeline[second];
      if (++block_ops == spec_.block) {
        close_block();
        block_ops = 0;
        traced = trace && !traced;
        block_watch.Restart();
        block_check_ns = 0;
        block_failed = phase.failed;
        block_records = phase.records;
      }
    }
    if (block_ops != 0) close_block();  // the store filled up mid-block
    return phase;
  }

  struct Checked {
    std::uint64_t checks = 0;
    std::uint64_t wrong = 0;
  };

  /// Untimed end-of-run checks, one invoke targeted at each record checked
  /// (an invoke over the whole store would be one journal transaction
  /// bigger than a fast run's growth allows): a deleted or erased record
  /// reads back nothing readable and is never served; a record whose
  /// consent was withdrawn is never served (zero stale serves); a sample
  /// of the other live records reads back its last row and is served once.
  Checked Verify() {
    Checked c;
    auto wrong = [&](const char* what, dbfs::RecordId id) {
      ++c.wrong;
      std::printf("WRONG verify: record %llu %s\n",
                  static_cast<unsigned long long>(id), what);
    };
    for (dbfs::RecordId id : model_.gone) {
      ++c.checks;
      auto r = os_->dbfs().Get(sentinel::Domain::kDed, id);
      if (r.ok() && !r->erased) wrong("readable after erasure", id);
      if (Serves(id) != 0) wrong("served after erasure", id);
    }
    std::vector<const Model::Record*> consenting;
    for (const auto& records : model_.live) {
      for (const Model::Record& rec : records) {
        if (rec.analytics) {
          consenting.push_back(&rec);
          continue;
        }
        ++c.checks;
        if (Serves(rec.id) != 0) wrong("served after consent withdrawal", rec.id);
      }
    }
    const std::size_t stride = std::max<std::size_t>(1, consenting.size() / 256);
    for (std::size_t i = 0; i < consenting.size(); i += stride) {
      const Model::Record& rec = *consenting[i];
      ++c.checks;
      auto r = os_->dbfs().Get(sentinel::Domain::kDed, rec.id);
      if (!r.ok() || r->erased || r->row != rec.row) {
        wrong("does not read back its last row", rec.id);
      }
      if (Serves(rec.id) != 1) wrong("not served once with consent", rec.id);
    }
    return c;
  }

  core::RgpdOs& os() { return *os_; }
  [[nodiscard]] const Probe& before_setup() const { return *before_setup_; }
  [[nodiscard]] const Probe& after_setup() const { return *after_setup_; }
  [[nodiscard]] std::size_t history_invokes() const {
    return history_invokes_;
  }

 private:
  bool SetUpOnce() {
    os_ = BootWorld(spec_.subjects, spec_.room, LogBlocks(spec_));
    if (os_ == nullptr) return false;
    std::vector<bool> revoked(spec_.subjects, false);
    const auto n_revoked =
        static_cast<std::size_t>(spec_.revoked_share * double(spec_.subjects));
    std::fill_n(revoked.begin(), n_revoked, true);
    Rng rng(seed_);
    for (std::size_t i = revoked.size(); i > 1; --i) {
      std::vector<bool>::swap(revoked[i - 1], revoked[rng.NextBelow(i)]);
    }
    if (!Populate(*os_, spec_.subjects, revoked, seed_, model_)) return false;
    live_records_ = spec_.subjects;
    auto id = RegisterAnalytics(*os_, served_);
    if (!id.ok()) return false;
    analytics_ = *id;
    history_invokes_ = 0;
    if (spec_.fill_history) {
      core::ProcessingLog& log = os_->processing_log();
      while (log.total_entries() <= log.hot_window()) {
        auto r = os_->ps().Invoke(sentinel::Domain::kApplication, analytics_);
        if (!r.ok() || r->records_processed != Consenting()) return false;
        ++history_invokes_;
      }
    }
    return true;
  }

  /// Records one invoke targeted at `id` processed; -1 when the count
  /// disagrees with what the implementation saw. An invoke refused because
  /// the record is gone served nothing.
  int Serves(dbfs::RecordId id) {
    core::InvokeOptions options;
    options.target = core::PdRef{id, "user"};
    const std::uint64_t calls_before = served_.calls.load();
    auto r = os_->ps().Invoke(sentinel::Domain::kApplication, analytics_,
                              options);
    const std::uint64_t calls = served_.calls.load() - calls_before;
    if (!r.ok()) return calls == 0 ? 0 : -1;
    return r->records_processed == calls ? int(calls) : -1;
  }

  [[nodiscard]] std::size_t Consenting() const {
    std::size_t n = 0;
    for (const auto& records : model_.live) {
      for (const Model::Record& rec : records) n += rec.analytics ? 1 : 0;
    }
    return n;
  }

  std::optional<std::uint64_t> PickSubject(GdprOp op, Rng& rng, Zipf& zipf) {
    const bool needs_record = op != GdprOp::kCreateRecord &&
                              op != GdprOp::kRightOfAccess &&
                              op != GdprOp::kRightToPortability;
    for (int attempt = 0; attempt < 64; ++attempt) {
      const std::uint64_t s = spec_.zipf_theta > 0
                                  ? 1 + zipf.Next()
                                  : 1 + rng.NextBelow(spec_.subjects);
      if (model_.forgotten[s - 1]) continue;
      if (needs_record && model_.of(s).empty()) continue;
      return s;
    }
    return std::nullopt;
  }

  void Wrong(Phase& phase, GdprOp op, std::uint64_t subject,
             const std::string& why) {
    ++phase.failed;
    std::printf("WRONG %s subject=%llu: %s\n",
                std::string(workload::GdprOpName(op)).c_str(),
                static_cast<unsigned long long>(subject), why.c_str());
  }

  /// Ids of the records an access or portability document lists as not
  /// erased; false when the document is not `subject`'s.
  static bool ParseDoc(const std::string& doc, std::uint64_t subject,
                       std::set<dbfs::RecordId>& live) {
    const std::string head =
        "{\"subject_id\":" + std::to_string(subject) + ",\"records\":[";
    if (doc.compare(0, head.size(), head) != 0) return false;
    const std::size_t end = doc.find("],\"processings\":[");
    const std::string_view records(doc.data(), end == std::string::npos
                                                   ? doc.size()
                                                   : end);
    constexpr std::string_view kKey = "{\"record_id\":";
    for (std::size_t at = records.find(kKey, head.size());
         at != std::string_view::npos; at = records.find(kKey, at + 1)) {
      const dbfs::RecordId id =
          std::strtoull(records.data() + at + kKey.size(), nullptr, 10);
      const std::size_t flag = records.find("\"erased\":", at);
      if (flag == std::string_view::npos) return false;
      if (records.compare(flag + 9, 4, "true") != 0) live.insert(id);
    }
    return true;
  }

  void RunOp(GdprOp op, std::uint64_t subject, Rng& rng, Phase& phase,
             bool traced, double& check_ns) {
    std::vector<Model::Record>& recs = model_.of(subject);
    // Targets and fresh rows are drawn before the clock starts.
    const std::size_t pick = recs.empty() ? 0 : rng.NextBelow(recs.size());
    const db::Row row = UserRow(subject, ++serial_, rng.NextInRange(1940, 2010));
    const core::PdRef ref{recs.empty() ? 0 : recs[pick].id, "user"};

    auto dbfs_sum = [&] {
      std::uint64_t sum = 0;
      for (const auto& h : dbfs_hists_) sum += h.Sum();
      return sum;
    };
    const std::uint64_t dbfs_before = traced ? dbfs_sum() : 0;

    Status status = Status::Ok();
    Result<dbfs::RecordId> put_id = dbfs::RecordId{0};
    Result<dbfs::PdRecord> got = dbfs::PdRecord{};
    Result<std::string> doc = std::string();
    Result<std::size_t> forgotten = std::size_t{0};
    const char* span = nullptr;

    Stopwatch op_watch;
    switch (op) {
      case GdprOp::kCreateRecord:
        span = "dbfs.put";
        put_id = os_->dbfs().Put(
            sentinel::Domain::kDed, subject, "user", row,
            UserDecl().DefaultMembrane(subject, os_->clock().Now()));
        break;
      case GdprOp::kReadRecord:
        span = "dbfs.get";
        got = os_->dbfs().Get(sentinel::Domain::kDed, ref.record_id);
        break;
      case GdprOp::kUpdateRecord:
        span = "core.builtins.update";
        status = os_->builtins().Update(ref, row);
        break;
      case GdprOp::kDeleteRecord:
        span = "core.builtins.hard_delete";
        status = os_->builtins().HardDelete(ref);
        break;
      case GdprOp::kConsentWithdrawal:
        span = "core.builtins.revoke_consent";
        status = os_->builtins().RevokeConsent(ref, "analytics");
        break;
      case GdprOp::kRightOfAccess:
        span = "core.rights.access";
        doc = os_->rights().Access(subject);
        break;
      case GdprOp::kRightToPortability:
        span = "core.rights.portability";
        doc = os_->rights().Portability(subject);
        break;
      case GdprOp::kRightToErasure:
        span = "core.rights.forget";
        forgotten = os_->RightToBeForgotten(subject);
        break;
      default:
        return;
    }
    const auto elapsed = double(op_watch.ElapsedNanos());
    if (traced) {
      SpanSum& s = phase.spans[span];
      s.calls += 1;
      s.wall_ns += elapsed;
      s.dbfs_ns += double(dbfs_sum() - dbfs_before);
    }
    Stopwatch check_watch;
    ++phase.attempted;
    phase.all_ns.push_back(elapsed);
    phase.class_ns[ClassOf(op)].push_back(elapsed);

    // Check the result against the model, then apply the op to it.
    switch (op) {
      case GdprOp::kCreateRecord:
        if (!put_id.ok()) {
          Wrong(phase, op, subject, put_id.status().ToString());
        } else {
          recs.push_back({*put_id, row, true});
          ++live_records_;
          phase.records += 1;
        }
        break;
      case GdprOp::kReadRecord:
        if (!got.ok()) {
          Wrong(phase, op, subject, got.status().ToString());
        } else if (got->erased || got->subject_id != subject ||
                   got->row != recs[pick].row) {
          Wrong(phase, op, subject, "read back a different row");
        } else {
          phase.records += 1;
        }
        break;
      case GdprOp::kUpdateRecord:
        if (!status.ok()) {
          Wrong(phase, op, subject, status.ToString());
        } else {
          recs[pick].row = row;
          phase.records += 1;
        }
        break;
      case GdprOp::kDeleteRecord:
        if (!status.ok()) {
          Wrong(phase, op, subject, status.ToString());
        } else {
          model_.gone.push_back(recs[pick].id);
          --live_records_;
          recs.erase(recs.begin() + static_cast<std::ptrdiff_t>(pick));
          phase.records += 1;
        }
        break;
      case GdprOp::kConsentWithdrawal:
        if (!status.ok()) {
          Wrong(phase, op, subject, status.ToString());
        } else {
          recs[pick].analytics = false;
          phase.records += 1;
        }
        break;
      case GdprOp::kRightOfAccess:
      case GdprOp::kRightToPortability: {
        std::set<dbfs::RecordId> live;
        std::set<dbfs::RecordId> expected;
        for (const Model::Record& rec : recs) expected.insert(rec.id);
        if (!doc.ok()) {
          Wrong(phase, op, subject, doc.status().ToString());
        } else if (!ParseDoc(*doc, subject, live)) {
          Wrong(phase, op, subject, "malformed document");
        } else if (live != expected) {
          Wrong(phase, op, subject,
                "document lists " + std::to_string(live.size()) +
                    " live records, expected " +
                    std::to_string(expected.size()));
        } else {
          phase.records += live.size();
        }
        break;
      }
      case GdprOp::kRightToErasure:
        if (!forgotten.ok()) {
          Wrong(phase, op, subject, forgotten.status().ToString());
        } else if (*forgotten != recs.size()) {
          Wrong(phase, op, subject,
                "erased " + std::to_string(*forgotten) + " of " +
                    std::to_string(recs.size()) + " records");
        } else {
          for (const Model::Record& rec : recs) model_.gone.push_back(rec.id);
          phase.records += recs.size();
          live_records_ -= recs.size();
          recs.clear();
          model_.forgotten[subject - 1] = true;
        }
        break;
      default:
        break;
    }
    check_ns += double(check_watch.ElapsedNanos());
  }

  void RunInvoke(Phase& phase, bool traced) {
    const std::uint64_t calls_before = served_.calls.load();
    Stopwatch watch;
    auto result = os_->ps().Invoke(sentinel::Domain::kApplication, analytics_);
    const auto elapsed = double(watch.ElapsedNanos());
    ++phase.attempted;
    phase.all_ns.push_back(elapsed);
    phase.class_ns[kInvokeCall].push_back(elapsed);
    if (traced) {
      SpanSum& s = phase.spans["core.ps.invoke"];
      s.calls += 1;
      s.wall_ns += elapsed;
    }
    const std::size_t expected = Consenting();
    const std::uint64_t calls = served_.calls.load() - calls_before;
    if (!result.ok()) {
      ++phase.failed;
      std::printf("WRONG invoke: %s\n", result.status().ToString().c_str());
    } else if (result->records_processed != expected || calls != expected) {
      ++phase.failed;
      std::printf("WRONG invoke: processed %llu, implementation saw %llu, "
                  "expected %zu consenting records\n",
                  static_cast<unsigned long long>(result->records_processed),
                  static_cast<unsigned long long>(calls), expected);
    } else {
      phase.records += result->records_processed;
    }
  }

  const Spec& spec_;
  std::uint64_t seed_;
  std::unique_ptr<core::RgpdOs> os_;
  Model model_;
  Served served_;
  core::ProcessingId analytics_{};
  std::uint64_t serial_ = 0;
  std::size_t history_invokes_ = 0;
  std::size_t live_records_ = 0;
  // Every DBFS latency scope a single-threaded op can cross.
  const HistSumReader dbfs_hists_[4] = {
      HistSumReader("dbfs.put.latency_ns"), HistSumReader("dbfs.get.latency_ns"),
      HistSumReader("dbfs.update.latency_ns"),
      HistSumReader("dbfs.erase.latency_ns")};
  std::unique_ptr<Probe> before_setup_;
  std::unique_ptr<Probe> after_setup_;
};

// ---- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string ResultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Completed ops per measured wall second.
double OpsPerS(const Phase& p) {
  return Ratio(double(p.attempted - p.failed), p.wall_s);
}

std::vector<Metric> EndToEnd(const Phase& p, double setup_s) {
  return {
      {"setup_s", setup_s, "s"},
      {"ops_per_s", OpsPerS(p), "ops/s"},
      {"records_per_s", Ratio(double(p.records), p.wall_s), "records/s"},
      {"p50_us", Percentile(p.all_ns, 0.50) / 1e3, "us"},
      {"peak_rss_mb", PeakRssMib(), "MiB"},
  };
}

std::vector<Metric> PerLayer(const Phase& p, const PhaseDelta& ph,
                             const PhaseDelta& setup) {
  const double ops = double(p.attempted);
  auto per_op = [&](double v) { return Ratio(v, ops); };
  auto span = [&](const char* name) {
    auto it = p.spans.find(name);
    return it == p.spans.end() ? SpanSum{} : it->second;
  };
  const double records = double(p.records);
  const double consent_total =
      ph.Counter("core.consent.approved") + ph.Counter("core.consent.filtered");
  const blockdev::DeviceStats dev = ph.Device();
  const blockdev::BlockCacheStats bc = ph.Cache();
  const double user_bytes = ph.Counter("dbfs.put.logical_bytes");
  const Tally& untraced = p.blocks[0];
  const Tally& traced = p.blocks[1];
  const double ops_untraced = Ratio(double(untraced.completed), untraced.wall_s);
  const double ops_traced = Ratio(double(traced.completed), traced.wall_s);
  const double rec_untraced = Ratio(double(untraced.records), untraced.wall_s);
  const double rec_traced = Ratio(double(traced.records), traced.wall_s);

  std::vector<Metric> m = {
      // core
      {"core.ps.invoke_ns_per_record",
       Ratio(span("core.ps.invoke").wall_ns, double(traced.records)), "ns"},
      {"core.ded.execute_ns_per_record",
       Ratio(ph.HistSum("core.ded_execute.latency_ns"), records), "ns"},
      {"core.cache.decision_hit_ratio",
       Ratio(ph.Counter("cache.decision.hit"),
             ph.Counter("cache.decision.hit") +
                 ph.Counter("cache.decision.miss")),
       "ratio"},
      {"core.consent.filtered_ratio",
       Ratio(ph.Counter("core.consent.filtered"), consent_total), "ratio"},
      {"core.processing_log.window_evictions_setup",
       setup.Counter("core.processing_log.window_evictions"), "count"},
      {"core.processing_log.window_evictions",
       ph.Counter("core.processing_log.window_evictions"), "count"},
      {"core.rights.access_self_ns",
       span("core.rights.access").SelfNsPerCall(), "ns"},
      {"core.rights.portability_self_ns",
       span("core.rights.portability").SelfNsPerCall(), "ns"},
      {"core.rights.forget_self_ns",
       span("core.rights.forget").SelfNsPerCall(), "ns"},
      {"core.builtins.update_self_ns",
       span("core.builtins.update").SelfNsPerCall(), "ns"},
      {"core.builtins.hard_delete_self_ns",
       span("core.builtins.hard_delete").SelfNsPerCall(), "ns"},
      {"core.builtins.revoke_consent_self_ns",
       span("core.builtins.revoke_consent").SelfNsPerCall(), "ns"},
      // sentinel / auditlog
      {"sentinel.audit.entries_per_op",
       per_op(ph.Counter("sentinel.audit.entries")), "count"},
      {"sentinel.enforce.gates_per_op",
       per_op(ph.Counter("sentinel.enforce.allowed") +
              ph.Counter("sentinel.enforce.denied")),
       "count"},
      {"sentinel.audit.backpressure_wait_us_per_op",
       per_op(ph.Counter("sentinel.audit.backpressure.wait_us")), "us"},
      {"auditlog.segments_sealed_per_kop",
       per_op(ph.Counter("auditlog.segments.sealed")) * 1000, "count"},
      {"auditlog.stored_bytes_per_op",
       per_op(ph.Counter("auditlog.segments.stored_bytes")), "B"},
      {"auditlog.compression_ratio",
       Ratio(ph.Counter("auditlog.segments.raw_bytes"),
             ph.Counter("auditlog.segments.stored_bytes")),
       "ratio"},
      // dbfs
      {"dbfs.put_ns", ph.HistMean("dbfs.put.latency_ns"), "ns"},
      {"dbfs.get_ns", ph.HistMean("dbfs.get.latency_ns"), "ns"},
      {"dbfs.erase_ns", ph.HistMean("dbfs.erase.latency_ns"), "ns"},
      {"dbfs.update_ns", ph.HistMean("dbfs.update.latency_ns"), "ns"},
      {"dbfs.record_cache.hit_ratio",
       Ratio(ph.Counter("cache.record.hit"),
             ph.Counter("cache.record.hit") + ph.Counter("cache.record.miss")),
       "ratio"},
      {"dbfs.record_cache.evictions_per_op",
       per_op(ph.Counter("cache.record.evict")), "count"},
      {"dbfs.record_index.contention_per_op",
       per_op(ph.Counter("lock.contention.dbfs.record_index")), "count"},
      {"dbfs.subject_shard.contention_per_op",
       per_op(ph.Counter("lock.contention.dbfs.subject_shard")), "count"},
      // inodefs
      {"inodefs.txn.commits_per_op", per_op(ph.Counter("inodefs.txn.commits")),
       "count"},
      {"inodefs.txn.commit_ns", ph.HistMean("inodefs.txn.commit_latency_ns"),
       "ns"},
      {"inodefs.group_commit.flushes_per_op",
       per_op(ph.Counter("inodefs.group_commit.flushes")), "count"},
      {"inodefs.journal.bytes_per_user_byte",
       Ratio(ph.JournalBytes(), user_bytes), "ratio"},
      {"inodefs.journal.scrubs_per_op",
       per_op(ph.Counter("inodefs.journal.scrubs")), "count"},
      {"inodefs.journal.scrub_ns",
       ph.HistMean("inodefs.journal.scrub_latency_ns"), "ns"},
      // blockdev
      {"blockdev.device.reads_per_op", per_op(double(dev.reads)), "count"},
      {"blockdev.device.writes_per_op", per_op(double(dev.writes)), "count"},
      {"blockdev.device.flushes_per_op", per_op(double(dev.flushes)), "count"},
      {"blockdev.device.bytes_written_per_user_byte",
       Ratio(double(dev.bytes_written), user_bytes), "ratio"},
      {"blockdev.cache.hit_ratio", bc.HitRatio(), "ratio"},
      {"blockdev.cache.evictions_per_op", per_op(double(bc.evictions)),
       "count"},
      {"blockdev.cache.invalidations_per_op", per_op(double(bc.invalidations)),
       "count"},
      {"blockdev.sim_device_ns_per_op", per_op(ph.SimDeviceNs()), "ns"},
      // process
      {"process.cpu_s_per_op", per_op(ph.CpuSeconds()), "s"},
      {"process.cpu_per_wall", Ratio(ph.CpuSeconds(), p.wall_s), "ratio"},
      // the traced run against the untraced one
      {"trace.ops_per_s_overhead_pct",
       Ratio(ops_untraced - ops_traced, ops_untraced) * 100, "%"},
      {"trace.records_per_s_overhead_pct",
       Ratio(rec_untraced - rec_traced, rec_untraced) * 100, "%"},
  };
  // Tails sit on thread hand-offs that a loaded host stretches, so they
  // are reported here, without a bound. p99 rests on a few samples in a
  // rights or invoke run.
  m.push_back({"p90_us", Percentile(p.all_ns, 0.90) / 1e3, "us"});
  m.push_back({"p99_us", Percentile(p.all_ns, 0.99) / 1e3, "us"});
  for (int c = 0; c < kClassCount; ++c) {
    if (c == kInvokeCall) continue;
    m.push_back({std::string(kClassNames[c]) + "_p50_us",
                 Percentile(p.class_ns[c], 0.5) / 1e3, "us"});
  }
  return m;
}

void PrintClasses(const Phase& p) {
  std::printf("measured %.3f s, %llu ops, %llu failed, %llu records\n",
              p.wall_s, static_cast<unsigned long long>(p.attempted),
              static_cast<unsigned long long>(p.failed),
              static_cast<unsigned long long>(p.records));
  std::printf("  ops finished per second:");
  for (std::uint32_t n : p.timeline) std::printf(" %u", n);
  std::printf("\n");
  auto print = [](const char* name, const std::vector<double>& ns) {
    std::printf("  %-12s n=%-7zu p50=%.1f us  p90=%.1f us  p99=%.1f us\n",
                name, ns.size(), Percentile(ns, 0.5) / 1e3,
                Percentile(ns, 0.9) / 1e3, Percentile(ns, 0.99) / 1e3);
  };
  for (int c = 0; c < kClassCount; ++c) {
    if (!p.class_ns[c].empty()) print(kClassNames[c], p.class_ns[c]);
  }
  print("all", p.all_ns);
}

void EchoConfig(const Spec& spec, std::uint64_t seed, double seconds,
                bool trace, core::RgpdOs& os) {
  const core::BootConfig c =
      BenchConfig(spec.subjects, spec.room, LogBlocks(spec));
  std::printf("workload=%s seed=%llu seconds=%g trace=%d nproc=%u\n",
              spec.name, static_cast<unsigned long long>(seed), seconds,
              trace ? 1 : 0, std::thread::hardware_concurrency());
  const std::string draw = spec.zipf_theta > 0
                               ? "zipf " + std::to_string(spec.zipf_theta)
                               : "uniform";
  std::printf("population: %zu subjects drawn %s, %.0f%% analytics consent "
              "revoked\n",
              spec.subjects, draw.c_str(), spec.revoked_share * 100);
  std::printf("boot: dbfs_blocks=%llu npd_blocks=%llu inode_count=%u "
              "journal_blocks=%llu cache_blocks=%llu cache_record_entries=%zu "
              "cache_decisions=%d latency=nvme worker_threads=%u "
              "(ded lanes=%u) shards=%zu audit_hot_window=%zu\n",
              static_cast<unsigned long long>(c.dbfs_blocks),
              static_cast<unsigned long long>(c.npd_blocks), c.inode_count,
              static_cast<unsigned long long>(c.journal_blocks),
              static_cast<unsigned long long>(c.cache_blocks),
              c.cache_record_entries, c.cache_decisions ? 1 : 0,
              c.worker_threads,
              os.executor() == nullptr ? 1u : os.executor()->worker_count() + 1,
              os.shard_count(), c.audit_hot_window);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <controller|rights|invoke> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

int Main(int argc, char** argv) {
  // CI legs export RGPDOS_* knobs that would silently measure a different
  // program; the benchmark measures the default build only.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "RGPDOS_", 7) == 0) {
      std::fprintf(stderr, "refusing to run with %s set\n", *env);
      return 2;
    }
  }
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") name = value;
    else if (flag == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(value, nullptr);
    else if (flag == "--trace") trace = std::atoi(value);
    else return Usage();
  }
  if (argc % 2 == 0 || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (name == s.name) spec = &s;
  }
  if (spec == nullptr) return Usage();

  const Probe start = MetricsProbe();
  Harness harness(*spec, seed);
  const std::optional<double> setup_s = harness.SetUp();
  if (!setup_s || !harness.Prepare()) {
    std::fprintf(stderr, "set-up failed\n");
    return 1;
  }
  EchoConfig(*spec, seed, seconds, trace == 1, harness.os());
  const PhaseDelta setup(harness.before_setup(), harness.after_setup());
  std::printf("set-up: %.4f s median of %d, %zu history invokes, "
              "processing log %llu entries (hot window %zu), "
              "window evictions %.0f\n",
              *setup_s, spec->setups, harness.history_invokes(),
              static_cast<unsigned long long>(
                  harness.os().processing_log().total_entries()),
              harness.os().processing_log().hot_window(),
              setup.Counter("core.processing_log.window_evictions"));

  const Probe a = TakeProbe(harness.os());
  const Phase phase = harness.Run(seconds, spec->max_ops, trace == 1);
  const Probe b = TakeProbe(harness.os());
  PrintClasses(phase);
  std::uint64_t attempted = phase.attempted;
  std::uint64_t failed = phase.failed;
  const std::vector<Metric> metrics =
      trace == 0 ? EndToEnd(phase, *setup_s)
                 : PerLayer(phase, PhaseDelta(a, b), setup);
  const Harness::Checked checked = harness.Verify();
  std::printf("verified %llu records after the phase, %llu wrong\n",
              static_cast<unsigned long long>(checked.checks),
              static_cast<unsigned long long>(checked.wrong));
  attempted += checked.checks;
  failed += checked.wrong;
  // Lost durable evidence is a wrong result even when every call returned.
  const Probe end = TakeProbe(harness.os());
  const PhaseDelta run(start, end);
  for (const char* loss :
       {"core.processing_log.write_errors", "sentinel.audit.write_errors",
        "sentinel.audit.dropped", "inodefs.io.retry_exhausted"}) {
    if (run.Counter(loss) != 0) {
      ++failed;
      std::printf("WRONG run: %s = %.0f\n", loss, run.Counter(loss));
    }
  }
  for (const Metric& m : metrics) {
    std::printf("%-48s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", ResultLine(failed == 0, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace rgpdos::perfbench

int main(int argc, char** argv) { return rgpdos::perfbench::Main(argc, argv); }
