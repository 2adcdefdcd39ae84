#include <gtest/gtest.h>

#include <cmath>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/spec.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace th {
namespace {

TEST(Error, ChecksThrowWithContext) {
  EXPECT_THROW(TH_CHECK(1 == 2), Error);
  try {
    TH_CHECK_MSG(false, "value=" << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("value=42"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, UniformRealInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const real_t v = r.next_real();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, NextBelowIsUnbiasedEnough) {
  Rng r(11);
  int counts[5] = {0};
  for (int i = 0; i < 50000; ++i) ++counts[r.next_below(5)];
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(Rng, IndexInCoversBounds) {
  Rng r(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const index_t v = r.index_in(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Stats, GeomeanOfConstantIsConstant) {
  EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Stats, GeomeanKnownValue) {
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(Stats, GeomeanRejectsNonPositive) {
  EXPECT_THROW(geomean({1.0, 0.0}), Error);
  EXPECT_THROW(geomean({}), Error);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<real_t> v{1, 2, 3, 4};
  EXPECT_NEAR(quantile(v, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(quantile(v, 1.0), 4.0, 1e-12);
  EXPECT_NEAR(quantile(v, 0.5), 2.5, 1e-12);
}

TEST(Stats, SummaryOrdering) {
  const Summary s = summarize({5, 1, 3, 2, 4});
  EXPECT_LE(s.min, s.q25);
  EXPECT_LE(s.q25, s.median);
  EXPECT_LE(s.median, s.q75);
  EXPECT_LE(s.q75, s.max);
  EXPECT_NEAR(s.mean, 3.0, 1e-12);
}

TEST(Stats, HistogramClampsOutOfRange) {
  const auto h = histogram({-1.0, 0.5, 2.0}, 0.0, 1.0, 2);
  EXPECT_EQ(h[0], 1);  // -1 clamped into first bucket
  EXPECT_EQ(h[1], 2);  // 0.5 and 2.0 (clamped)
}

TEST(Stats, SparklineShape) {
  EXPECT_EQ(sparkline({}), "");
  const std::string s = sparkline({0, 1, 8});
  EXPECT_FALSE(s.empty());
}

TEST(Table, RendersAlignedRows) {
  Table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, CsvEscapesCommas) {
  Table t;
  t.set_header({"k", "v"});
  t.add_row({"x,y", "1"});
  EXPECT_NE(t.to_csv().find("x;y"), std::string::npos);
}

TEST(Format, Helpers) {
  EXPECT_EQ(fmt_speedup(5.468), "5.47x");
  EXPECT_EQ(fmt_count(12991278), "12,991,278");
  EXPECT_EQ(fmt_si(2.03e6, 2), "2.03M");
  EXPECT_EQ(fmt_si(4.61e9, 2), "4.61G");
  EXPECT_EQ(fmt_percent(0.011, 2), "1.10%");
}

// ---- --rhs-batch spec codec -----------------------------------------------

TEST(RhsSpec, RoundTripsAndRejectsNonsense) {
  for (const spec::RhsSpec& s :
       {spec::RhsSpec{}, spec::RhsSpec{1, "levelset"},
        spec::RhsSpec{64, "priority"}}) {
    const spec::RhsSpec back = spec::parse_rhs_spec(spec::render_rhs_spec(s));
    EXPECT_EQ(back.width, s.width);
    EXPECT_EQ(back.schedule, s.schedule);
  }
  const spec::RhsSpec parsed = spec::parse_rhs_spec("sched=levelset,width=8");
  EXPECT_EQ(parsed.width, 8);
  EXPECT_EQ(parsed.schedule, "levelset");

  EXPECT_THROW(spec::parse_rhs_spec("width=0"), spec::SpecError);
  EXPECT_THROW(spec::parse_rhs_spec("sched=bogus"), spec::SpecError);
  try {
    spec::parse_rhs_spec("wait=1");  // the wait bound is gone
    FAIL() << "expected SpecError";
  } catch (const spec::SpecError& e) {
    EXPECT_EQ(e.key(), "wait");
  }
}

}  // namespace
}  // namespace th
