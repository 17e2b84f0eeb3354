// Checks of the benchmark's own machinery: the 20,000-subject world boots
// with the benchmark's store sizing, an empty phase moves no counter, and
// a phase with one put moves the put counters. Exits non-zero on failure.
#include <cstdio>

#include "ledger.hpp"
#include "world.hpp"

namespace rgpdos::perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void WorldOf20kSubjectsBoots() {
  // The NPD store shares inode_count; a fixed 4,096-block NPD device is
  // too small for this population's inode table. 40k records is the
  // controller world: 20k subjects plus room for 20k creates.
  auto os = BootWorld(20000, 20000, 0);
  Expect(os != nullptr, "a world sized for 20k subjects and 20k creates boots");
  Expect(os != nullptr && BenchConfig(20000, 20000, 0).npd_blocks > 4096,
         "the NPD store grows with the population");
}

void EmptyPhaseMovesNothing() {
  auto os = BootWorld(16, 48, 0);
  Model model;
  if (os == nullptr ||
      !Populate(*os, 16, std::vector<bool>(16, false), 1, model)) {
    Expect(false, "small world boots and populates");
    return;
  }
  const Probe a = TakeProbe(*os);
  const Probe b = TakeProbe(*os);
  const PhaseDelta empty(a, b);
  const std::string moved = empty.Moved();
  if (!moved.empty()) std::printf("moved:\n%s", moved.c_str());
  Expect(moved.empty(), "an empty phase gives all-zero deltas");
  Expect(empty.Counter("dbfs.put.count") == 0, "no puts in an empty phase");

  const Probe c = TakeProbe(*os);
  auto id = os->dbfs().Put(sentinel::Domain::kDed, 99, "user",
                           UserRow(99, 0, 1990),
                           UserDecl().DefaultMembrane(99, os->clock().Now()));
  const Probe d = TakeProbe(*os);
  const PhaseDelta one_put(c, d);
  Expect(id.ok(), "put succeeds");
  Expect(one_put.Counter("dbfs.put.count") == 1, "one put counts once");
  Expect(one_put.HistCount("dbfs.put.latency_ns") == 1,
         "one put is one latency sample");
  Expect(one_put.Device().writes > 0, "a put reaches the device");
  Expect(one_put.JournalBytes() > 0, "a put is journaled");
  Expect(one_put.SimDeviceNs() > 0, "a put costs simulated device time");
}

}  // namespace
}  // namespace rgpdos::perfbench

int main() {
  rgpdos::perfbench::WorldOf20kSubjectsBoots();
  rgpdos::perfbench::EmptyPhaseMovesNothing();
  return rgpdos::perfbench::failures == 0 ? 0 : 1;
}
