#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/histogram.h"
#include "util/mrc.h"

namespace krr {
namespace {

TEST(DistanceHistogram, RejectsZeroQuantum) {
  EXPECT_THROW(DistanceHistogram(0), std::invalid_argument);
}

TEST(DistanceHistogram, TracksTotalsAndInfinite) {
  DistanceHistogram h;
  h.record(3);
  h.record(3, 2.0);
  h.record_infinite(1.5);
  EXPECT_DOUBLE_EQ(h.total_weight(), 4.5);
  EXPECT_DOUBLE_EQ(h.infinite_weight(), 1.5);
  EXPECT_EQ(h.bin_count(), 1u);
}

TEST(DistanceHistogram, QuantumRoundsUp) {
  DistanceHistogram h(10);
  h.record(1);
  h.record(10);
  h.record(11);
  const auto bins = h.sorted_bins();
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_EQ(bins[0].first, 10u);
  EXPECT_DOUBLE_EQ(bins[0].second, 2.0);
  EXPECT_EQ(bins[1].first, 20u);
}

TEST(DistanceHistogram, ToMrcComputesTailProbabilities) {
  DistanceHistogram h;
  // 4 reuses at distance 2, 4 at distance 5, 2 cold.
  for (int i = 0; i < 4; ++i) h.record(2);
  for (int i = 0; i < 4; ++i) h.record(5);
  h.record_infinite(2.0);
  const MissRatioCurve mrc = h.to_mrc();
  EXPECT_DOUBLE_EQ(mrc.eval(0), 1.0);
  EXPECT_DOUBLE_EQ(mrc.eval(1), 1.0);   // nothing fits below distance 2
  EXPECT_DOUBLE_EQ(mrc.eval(2), 0.6);   // distance-2 reuses hit
  EXPECT_DOUBLE_EQ(mrc.eval(4), 0.6);
  EXPECT_DOUBLE_EQ(mrc.eval(5), 0.2);   // only cold misses remain
  EXPECT_DOUBLE_EQ(mrc.eval(1000), 0.2);
}

TEST(DistanceHistogram, EmptyHistogramYieldsEmptyCurve) {
  DistanceHistogram h;
  EXPECT_TRUE(h.to_mrc().empty());
}

TEST(DistanceHistogram, MergeAddsWeights) {
  DistanceHistogram a, b;
  a.record(1);
  b.record(1, 2.0);
  b.record(7);
  b.record_infinite();
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.total_weight(), 5.0);
  EXPECT_EQ(a.sorted_bins().size(), 2u);
  DistanceHistogram c(4);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(DistanceHistogram, ClearResets) {
  DistanceHistogram h;
  h.record(9);
  h.record_infinite();
  h.clear();
  EXPECT_DOUBLE_EQ(h.total_weight(), 0.0);
  EXPECT_EQ(h.bin_count(), 0u);
}

TEST(MissRatioCurve, EmptyCurveEvaluatesToOne) {
  MissRatioCurve curve;
  EXPECT_DOUBLE_EQ(curve.eval(100), 1.0);
  EXPECT_DOUBLE_EQ(curve.max_size(), 0.0);
}

TEST(MissRatioCurve, StepInterpolationUsesLastBreakpointAtOrBelow) {
  MissRatioCurve curve({{0, 1.0}, {10, 0.5}, {20, 0.25}});
  EXPECT_DOUBLE_EQ(curve.eval(0), 1.0);
  EXPECT_DOUBLE_EQ(curve.eval(9.99), 1.0);
  EXPECT_DOUBLE_EQ(curve.eval(10), 0.5);
  EXPECT_DOUBLE_EQ(curve.eval(15), 0.5);
  EXPECT_DOUBLE_EQ(curve.eval(20), 0.25);
  EXPECT_DOUBLE_EQ(curve.eval(1e9), 0.25);
}

TEST(MissRatioCurve, ConstructorSortsAndDeduplicates) {
  MissRatioCurve curve({{20, 0.2}, {10, 0.5}, {10, 0.4}, {0, 1.0}});
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_DOUBLE_EQ(curve.eval(10), 0.4);  // later duplicate wins
  EXPECT_DOUBLE_EQ(curve.max_size(), 20.0);
}

TEST(MissRatioCurve, AddPointKeepsOrder) {
  MissRatioCurve curve;
  curve.add_point(5, 0.5);
  curve.add_point(1, 0.9);
  curve.add_point(3, 0.7);
  curve.add_point(3, 0.6);  // overwrite
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_DOUBLE_EQ(curve.points()[0].size, 1.0);
  EXPECT_DOUBLE_EQ(curve.points()[1].miss_ratio, 0.6);
}

TEST(MissRatioCurve, MaeAveragesAbsoluteDifferences) {
  MissRatioCurve a({{0, 1.0}, {10, 0.4}});
  MissRatioCurve b({{0, 1.0}, {10, 0.6}});
  EXPECT_DOUBLE_EQ(a.mae(b, {5, 10, 20}), (0.0 + 0.2 + 0.2) / 3.0);
  EXPECT_DOUBLE_EQ(a.max_error(b, {5, 10, 20}), 0.2);
  EXPECT_THROW(a.mae(b, {}), std::invalid_argument);
}

TEST(MissRatioCurve, CsvOutputHasHeaderAndRows) {
  MissRatioCurve curve({{0, 1.0}, {4, 0.25}});
  std::ostringstream os;
  curve.write_csv(os);
  EXPECT_EQ(os.str(), "size,miss_ratio\n0,1\n4,0.25\n");
  std::ostringstream labeled;
  curve.write_csv(labeled, "x");
  EXPECT_EQ(labeled.str(), "label,size,miss_ratio\nx,0,1\nx,4,0.25\n");
}

TEST(MissRatioCurve, CsvBytesMatchOstreamFormatting) {
  // write_csv formats with std::to_chars (general, precision 6); the bytes
  // must equal what a default ostream writes, for object counts, byte sizes
  // past 1e6 (exponent form), ratios near 0 and 1, and enough rows to cross
  // the writer's 64 KiB flushes.
  std::mt19937_64 rng(5);
  std::vector<MissRatioCurve::Point> points;
  for (int i = 0; i < 20000; ++i) {
    double size = static_cast<double>(i);  // an object count
    if (i % 3 == 1) {  // up to ~2^40: six significant digits, then exponents
      size = std::ldexp(1.0 + static_cast<double>(rng() % 1000) / 997.0, i % 40);
    } else if (i % 3 == 2) {  // fractional sizes
      size = static_cast<double>(rng() % 4000000000ULL) / 7.0;
    }
    const double ratio = std::ldexp(static_cast<double>(rng() >> 11), -53) /
                         std::ldexp(1.0, static_cast<int>(rng() % 30));
    points.push_back({size, ratio});
  }
  points.push_back({1e300, 1.0});
  const MissRatioCurve curve(points);
  for (const std::string label : {"", "krr:k=5"}) {
    SCOPED_TRACE(label);
    std::ostringstream expected;
    expected << (label.empty() ? "size,miss_ratio\n" : "label,size,miss_ratio\n");
    for (const auto& p : curve.points()) {
      if (!label.empty()) expected << label << ',';
      expected << p.size << ',' << p.miss_ratio << '\n';
    }
    std::ostringstream os;
    curve.write_csv(os, label);
    const std::string got = os.str(), want = expected.str();
    const auto diff = std::mismatch(got.begin(), got.end(), want.begin(), want.end());
    const std::size_t at = static_cast<std::size_t>(diff.first - got.begin());
    EXPECT_TRUE(got == want) << "first difference at byte " << at << ": \""
                             << got.substr(at, 40) << "\" vs \"" << want.substr(at, 40)
                             << '"';
  }
}

TEST(EvenlySpacedSizes, CoversUpToMax) {
  const auto sizes = evenly_spaced_sizes(100.0, 4);
  ASSERT_EQ(sizes.size(), 4u);
  EXPECT_DOUBLE_EQ(sizes[0], 25.0);
  EXPECT_DOUBLE_EQ(sizes[3], 100.0);
  EXPECT_THROW(evenly_spaced_sizes(0.0, 4), std::invalid_argument);
  EXPECT_THROW(evenly_spaced_sizes(10.0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace krr
