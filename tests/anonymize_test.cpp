// Anonymization built-in tests: generalisation, k-anonymity suppression,
// the PD -> NPD boundary, and transparency logging.
#include <gtest/gtest.h>

#include "core/rgpdos.hpp"

namespace rgpdos::core {
namespace {

constexpr sentinel::Domain kDed = sentinel::Domain::kDed;

class AnonymizeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BootConfig config;
    config.use_sim_clock = true;
    auto os = RgpdOs::Boot(config);
    ASSERT_TRUE(os.ok());
    os_ = std::move(os).value();
    ASSERT_TRUE(os_->DeclareTypes(R"(
type patient {
  fields { name: string, zip: string, year_of_birthdate: int };
  consent { care: all };
  origin: subject;
  age: 10Y;
  sensitivity: high;
}
)")
                    .ok());
  }

  void PutPatient(std::uint64_t subject, const std::string& name,
                  const std::string& zip, std::int64_t year) {
    auto type = os_->dbfs().GetType(kDed, "patient");
    membrane::Membrane m =
        (*type)->DefaultMembrane(subject, os_->clock().Now());
    ASSERT_TRUE(os_->dbfs()
                    .Put(kDed, subject, "patient",
                         db::Row{db::Value(name), db::Value(zip),
                                 db::Value(year)},
                         std::move(m))
                    .ok());
  }

  AnonymizationSpec DecadeByZipPrefix() {
    AnonymizationSpec spec;
    spec.rules["zip"] = FieldRule::Prefix(2);
    spec.rules["year_of_birthdate"] = FieldRule::Bucket(10);
    spec.k = 2;
    return spec;
  }

  std::unique_ptr<RgpdOs> os_;
};

TEST_F(AnonymizeTest, ReleasesKAnonymousGroupsAsCsv) {
  // Three patients share (zip=69*, decade 1980s); one is unique.
  PutPatient(1, "alice_unique_name", "69001", 1983);
  PutPatient(2, "bob_unique_name", "69100", 1987);
  PutPatient(3, "carol_unique_name", "69800", 1981);
  PutPatient(4, "dave_unique_name", "75001", 1950);

  auto result = os_->anonymizer().Release("patient", DecadeByZipPrefix(),
                                          &os_->npd_fs(), "/anon.csv");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->source_records, 4u);
  EXPECT_EQ(result->released_groups, 1u);
  EXPECT_EQ(result->suppressed_groups, 1u);
  EXPECT_EQ(result->suppressed_records, 1u);

  auto csv = os_->npd_fs().ReadFile("/anon.csv");
  ASSERT_TRUE(csv.ok());
  const std::string text = ToString(*csv);
  EXPECT_NE(text.find("zip,year_of_birthdate,count"), std::string::npos);
  EXPECT_NE(text.find("69*,1980..1989,3"), std::string::npos);
  // The suppressed singleton (75*, 1950s) must NOT appear.
  EXPECT_EQ(text.find("75*"), std::string::npos);
  // No identifying field ever reaches the NPD side.
  EXPECT_EQ(text.find("alice_unique_name"), std::string::npos);
  EXPECT_EQ(text.find("69001"), std::string::npos);
}

TEST_F(AnonymizeTest, ReleaseIsLoggedPerContributingRecord) {
  PutPatient(1, "a", "69001", 1983);
  PutPatient(2, "b", "69100", 1987);
  ASSERT_TRUE(os_->anonymizer()
                  .Release("patient", DecadeByZipPrefix(), &os_->npd_fs(),
                           "/anon.csv")
                  .ok());
  // Both subjects see the release in their processing history.
  for (std::uint64_t subject : {1u, 2u}) {
    bool found = false;
    const auto history = os_->processing_log().ForSubject(subject);
    ASSERT_TRUE(history.ok()) << history.status().ToString();
    for (const LogEntry& e : *history) {
      found |= e.purpose == "anonymized_release";
    }
    EXPECT_TRUE(found) << subject;
  }
}

TEST_F(AnonymizeTest, ExpiredAndErasedRecordsDoNotContribute) {
  PutPatient(1, "a", "69001", 1983);
  PutPatient(2, "b", "69100", 1987);
  PutPatient(3, "c", "69200", 1985);
  // Erase subject 3; expire nobody yet.
  ASSERT_TRUE(os_->RightToBeForgotten(3).ok());
  auto result = os_->anonymizer().Release("patient", DecadeByZipPrefix(),
                                          &os_->npd_fs(), "/anon.csv");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->source_records, 2u);

  // Push everything past the 10Y TTL: nothing releases at all.
  os_->sim_clock()->Advance(10 * kMicrosPerYear + 1);
  result = os_->anonymizer().Release("patient", DecadeByZipPrefix(),
                                     &os_->npd_fs(), "/anon2.csv");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->source_records, 0u);
  EXPECT_EQ(result->released_groups, 0u);
}

TEST_F(AnonymizeTest, SpecValidation) {
  PutPatient(1, "a", "69001", 1983);
  AnonymizationSpec empty;
  EXPECT_FALSE(os_->anonymizer()
                   .Release("patient", empty, &os_->npd_fs(), "/x.csv")
                   .ok());
  AnonymizationSpec k1 = DecadeByZipPrefix();
  k1.k = 1;
  EXPECT_FALSE(os_->anonymizer()
                   .Release("patient", k1, &os_->npd_fs(), "/x.csv")
                   .ok());
  AnonymizationSpec bad_field = DecadeByZipPrefix();
  bad_field.rules["no_such_field"] = FieldRule::Keep();
  EXPECT_FALSE(os_->anonymizer()
                   .Release("patient", bad_field, &os_->npd_fs(), "/x.csv")
                   .ok());
  EXPECT_FALSE(os_->anonymizer()
                   .Release("no_such_type", DecadeByZipPrefix(),
                            &os_->npd_fs(), "/x.csv")
                   .ok());
}

TEST_F(AnonymizeTest, BucketHandlesNegativeAndBoundaryValues) {
  PutPatient(1, "a", "69001", -5);
  PutPatient(2, "b", "69100", -1);
  PutPatient(3, "c", "69200", 0);
  PutPatient(4, "d", "69300", 9);
  AnonymizationSpec spec;
  spec.rules["year_of_birthdate"] = FieldRule::Bucket(10);
  spec.k = 2;
  auto result = os_->anonymizer().Release("patient", spec, &os_->npd_fs(),
                                          "/buckets.csv");
  ASSERT_TRUE(result.ok());
  const std::string text =
      ToString(*os_->npd_fs().ReadFile("/buckets.csv"));
  // -5 and -1 fall into [-10..-1]; 0 and 9 into [0..9].
  EXPECT_NE(text.find("-10..-1,2"), std::string::npos);
  EXPECT_NE(text.find("0..9,2"), std::string::npos);
}

}  // namespace
}  // namespace rgpdos::core
