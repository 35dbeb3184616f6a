#include <cmath>
#include <filesystem>
#include <limits>
#include <numbers>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "htmpll/util/check.hpp"
#include "htmpll/util/grid.hpp"
#include "htmpll/util/table.hpp"

namespace htmpll {
namespace {

TEST(Grid, LinspaceEndpointsAndSpacing) {
  const auto g = linspace(1.0, 2.0, 5);
  ASSERT_EQ(g.size(), 5u);
  EXPECT_DOUBLE_EQ(g.front(), 1.0);
  EXPECT_DOUBLE_EQ(g.back(), 2.0);
  EXPECT_NEAR(g[1] - g[0], 0.25, 1e-15);
  EXPECT_NEAR(g[3] - g[2], 0.25, 1e-15);
}

TEST(Grid, LinspaceSinglePoint) {
  const auto g = linspace(3.0, 7.0, 1);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_DOUBLE_EQ(g[0], 3.0);
}

TEST(Grid, LogspaceEndpointsExact) {
  const auto g = logspace(1e-3, 1e3, 7);
  ASSERT_EQ(g.size(), 7u);
  EXPECT_DOUBLE_EQ(g.front(), 1e-3);
  EXPECT_DOUBLE_EQ(g.back(), 1e3);
  EXPECT_NEAR(g[3], 1.0, 1e-12);
}

TEST(Grid, LogspaceIsGeometric) {
  const auto g = logspace(2.0, 32.0, 5);
  for (std::size_t i = 1; i + 1 < g.size(); ++i) {
    EXPECT_NEAR(g[i + 1] / g[i], g[1] / g[0], 1e-12);
  }
}

TEST(Grid, LogspaceRejectsBadRange) {
  EXPECT_THROW(logspace(0.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(logspace(2.0, 1.0, 4), std::invalid_argument);
}

TEST(Grid, PerDecadeCount) {
  const auto g = log_grid_per_decade(1.0, 1000.0, 10);
  EXPECT_EQ(g.size(), 31u);  // 3 decades * 10 + 1
  EXPECT_DOUBLE_EQ(g.front(), 1.0);
  EXPECT_DOUBLE_EQ(g.back(), 1000.0);
}

TEST(Grid, PerDecadeRejectsBadRange) {
  // Each of these used to reach the double-to-size_t cast with a negative,
  // NaN or infinite count, which is undefined behaviour.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [lo, hi] : std::vector<std::pair<double, double>>{
           {2.0, 1.0}, {1.0, 1.0}, {0.0, 1.0}, {-1.0, 1.0}, {nan, 1.0},
           {1.0, nan}, {1.0, inf}, {1e-300, 1e300}}) {
    EXPECT_THROW(log_grid_per_decade(lo, hi, 10), std::invalid_argument)
        << "[" << lo << ", " << hi << "]";
  }
  // A count that does not fit std::size_t is rejected, not cast.
  EXPECT_THROW(log_grid_per_decade(1.0, 10.0, std::size_t{1} << 63),
               std::invalid_argument);
  try {
    log_grid_per_decade(2.0, 1.0, 10);
    FAIL() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("[2, 1]"), std::string::npos)
        << e.what();
  }
}

TEST(Grid, TrapezoidRmsIsExactOnLinearPsd) {
  // The trapezoid rule integrates a linear PSD exactly on any grid:
  // integral of (1 + w) over [1, 3] is 6, so the rms is sqrt(6 / pi).
  const std::vector<double> w = {1.0, 1.5, 2.25, 3.0};
  std::vector<double> psd;
  for (double x : w) psd.push_back(1.0 + x);
  EXPECT_NEAR(trapezoid_rms(w, psd), std::sqrt(6.0 / std::numbers::pi),
              1e-15);
  psd.pop_back();
  EXPECT_THROW(trapezoid_rms(w, psd), std::invalid_argument);
}

TEST(Table, AlignedPrintAndCsv) {
  Table t({"w", "mag_db"});
  t.add_row(std::vector<double>{1.0, -3.0103});
  t.add_row(std::vector<std::string>{"10", "-20"});
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 2u);

  std::ostringstream csv;
  t.write_csv(csv);
  EXPECT_EQ(csv.str(), "w,mag_db\n1,-3.0103\n10,-20\n");

  std::ostringstream pretty;
  t.print(pretty);
  EXPECT_NE(pretty.str().find("mag_db"), std::string::npos);
  EXPECT_NE(pretty.str().find("-3.0103"), std::string::npos);
}

TEST(Table, RejectsRaggedRow) {
  Table t({"a", "b", "c"});
  EXPECT_THROW(t.add_row(std::vector<std::string>{"1", "2"}),
               std::invalid_argument);
}

TEST(Table, WriteCsvFileReportsWriteFailure) {
  // /dev/full opens fine and fails every write: the failure must
  // surface as an exception naming the path, not a silent success.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is not available";
  }
  Table t({"w", "mag_db"});
  t.add_row(std::vector<double>{1.0, -3.0103});
  try {
    t.write_csv_file("/dev/full");
    FAIL() << "write_csv_file to /dev/full did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
        << e.what();
  }
}

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW(HTMPLL_REQUIRE(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(HTMPLL_REQUIRE(true, "fine"));
}

TEST(Check, AssertThrowsLogicErrorInDebugOnly) {
#ifdef NDEBUG
  // Release builds compile HTMPLL_ASSERT out entirely.
  EXPECT_NO_THROW(HTMPLL_ASSERT(false));
#else
  EXPECT_THROW(HTMPLL_ASSERT(false), std::logic_error);
#endif
  EXPECT_NO_THROW(HTMPLL_ASSERT(true));
}

}  // namespace
}  // namespace htmpll
