#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
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

// The histogram as a std::map from bin to weight: each bin sums its
// weights in record order, and the curve is built point by point with a
// sorted insert, as DistanceHistogram first did.
class MapHistogram {
 public:
  explicit MapHistogram(std::uint64_t quantum = 1) : quantum_(quantum) {}

  void record(std::uint64_t distance, double weight = 1.0) {
    bins_[((distance + quantum_ - 1) / quantum_) * quantum_] += weight;
    total_ += weight;
  }
  void record_infinite(double weight = 1.0) {
    infinite_ += weight;
    total_ += weight;
  }
  void merge(const MapHistogram& other) {
    for (const auto& [bin, weight] : other.bins_) bins_[bin] += weight;
    infinite_ += other.infinite_;
    total_ += other.total_;
  }
  void scale(double factor) {
    for (auto& [bin, weight] : bins_) weight *= factor;
    infinite_ *= factor;
    total_ *= factor;
  }

  std::vector<std::pair<std::uint64_t, double>> sorted_bins() const {
    return {bins_.begin(), bins_.end()};
  }

  std::vector<MissRatioCurve::Point> curve() const {
    std::vector<MissRatioCurve::Point> points;
    if (total_ <= 0.0) return points;
    const auto add = [&points](double size, double ratio) {
      auto it = std::lower_bound(points.begin(), points.end(), size,
                                 [](const MissRatioCurve::Point& a, double s) { return a.size < s; });
      if (it != points.end() && it->size == size) {
        it->miss_ratio = ratio;
      } else {
        points.insert(it, {size, ratio});
      }
    };
    add(0.0, 1.0);
    double cum = 0.0;
    for (const auto& [bin, weight] : bins_) {
      cum += weight;
      add(static_cast<double>(bin), std::clamp((total_ - cum) / total_, 0.0, 1.0));
    }
    return points;
  }

  double infinite() const { return infinite_; }
  double total() const { return total_; }

 private:
  std::uint64_t quantum_;
  std::map<std::uint64_t, double> bins_;
  double infinite_ = 0.0;
  double total_ = 0.0;
};

// Bitwise equality of everything the histogram reports against the map.
void expect_same(const DistanceHistogram& got, const MapHistogram& want) {
  const auto got_bins = got.sorted_bins();
  const auto want_bins = want.sorted_bins();
  ASSERT_EQ(got.bin_count(), want_bins.size());
  ASSERT_EQ(got_bins.size(), want_bins.size());
  for (std::size_t i = 0; i < want_bins.size(); ++i) {
    ASSERT_EQ(got_bins[i].first, want_bins[i].first) << "bin " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got_bins[i].second),
              std::bit_cast<std::uint64_t>(want_bins[i].second))
        << "weight of bin " << got_bins[i].first;
  }
  ASSERT_EQ(std::bit_cast<std::uint64_t>(got.infinite_weight()),
            std::bit_cast<std::uint64_t>(want.infinite()));
  ASSERT_EQ(std::bit_cast<std::uint64_t>(got.total_weight()),
            std::bit_cast<std::uint64_t>(want.total()));
  const auto want_points = want.curve();
  const MissRatioCurve curve = got.to_mrc();
  ASSERT_EQ(curve.points().size(), want_points.size());
  ASSERT_EQ(std::memcmp(curve.points().data(), want_points.data(),
                        want_points.size() * sizeof(MissRatioCurve::Point)),
            0);
}

// Weights as the profilers record them: 1, 1/R for a sampled stream, and
// SHARDS-adj's negative corrections.
double random_weight(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0: return 1.0;
    case 1: return 1.0 / 0.01;
    case 2: return -0.37 * static_cast<double>(rng() % 5);
    default: return std::ldexp(static_cast<double>(rng() % 1000), -7);
  }
}

TEST(DistanceHistogram, MatchesMapReferenceBitForBit) {
  for (const std::uint64_t quantum : {1ULL, 7ULL, 4096ULL}) {
    SCOPED_TRACE("quantum " + std::to_string(quantum));
    std::mt19937_64 rng(quantum);
    DistanceHistogram got(quantum);
    MapHistogram want(quantum);
    for (int i = 0; i < 50000; ++i) {
      if (rng() % 10 == 0) {
        got.record_infinite();
        want.record_infinite();
        continue;
      }
      // Heavy repeats at small distances, a long tail of byte distances.
      const std::uint64_t distance =
          rng() % 2 == 0 ? rng() % 64 : (rng() % 3000000) * (1 + rng() % 3);
      const double weight = random_weight(rng);
      got.record(distance, weight);
      want.record(distance, weight);
    }
    expect_same(got, want);
  }
}

TEST(DistanceHistogram, MergeScaleAndRestoreMatchMapReference) {
  std::mt19937_64 rng(11);
  DistanceHistogram a, b;
  MapHistogram ma, mb;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t distance = rng() % 5000;
    const double weight = random_weight(rng);
    if (i % 3 == 0) {
      b.record(distance, weight);
      mb.record(distance, weight);
    } else {
      a.record(distance, weight);
      ma.record(distance, weight);
    }
  }
  a.record_infinite(3.0);
  ma.record_infinite(3.0);
  a.merge(b);
  ma.merge(mb);
  expect_same(a, ma);
  a.scale(0.37);
  ma.scale(0.37);
  expect_same(a, ma);

  DistanceHistogram restored;
  restored.record(12345, 9.0);  // replaced, not merged
  restored.restore(a.sorted_bins(), a.infinite_weight(), a.total_weight());
  expect_same(restored, ma);
  restored.record(17, -2.5);
  ma.record(17, -2.5);
  expect_same(restored, ma);
}

TEST(DistanceHistogram, GrowsPastTwoToTheSeventeenBins) {
  std::mt19937_64 rng(3);
  DistanceHistogram got;
  MapHistogram want;
  constexpr std::uint64_t kBins = (1u << 17) + 40000;
  for (std::uint64_t i = 0; i < kBins; ++i) {
    // Each bin twice, the second time after the table has grown past it.
    const std::uint64_t distance = i * 3 + 1;
    got.record(distance);
    want.record(distance);
    if (i >= kBins / 2) {
      const std::uint64_t again = (i - kBins / 2) * 3 + 1;
      const double weight = random_weight(rng);
      got.record(again, weight);
      want.record(again, weight);
    }
  }
  EXPECT_EQ(got.bin_count(), kBins);
  expect_same(got, want);
}

TEST(DistanceHistogram, BinZeroAndAllOnesBinAreOrdinaryBins) {
  constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};
  DistanceHistogram got;
  MapHistogram want;
  const std::vector<std::uint64_t> distances = {kAllOnes, 0, 5, kAllOnes, 0, kAllOnes - 1};
  for (const std::uint64_t distance : distances) {
    got.record(distance, 1.5);
    want.record(distance, 1.5);
  }
  got.record_infinite();
  want.record_infinite();
  EXPECT_EQ(got.bin_count(), 4u);
  expect_same(got, want);
  EXPECT_EQ(got.sorted_bins().back().first, kAllOnes);

  DistanceHistogram other;
  MapHistogram other_want;
  other.record(kAllOnes, 2.0);
  other_want.record(kAllOnes, 2.0);
  got.merge(other);
  want.merge(other_want);
  got.scale(0.5);
  want.scale(0.5);
  expect_same(got, want);

  DistanceHistogram restored;
  restored.restore(got.sorted_bins(), got.infinite_weight(), got.total_weight());
  expect_same(restored, want);
  restored.clear();
  EXPECT_EQ(restored.bin_count(), 0u);
  EXPECT_TRUE(restored.sorted_bins().empty());
}

TEST(DistanceHistogram, SelfMergeDoublesEveryWeight) {
  // 12 bins fill a 16-entry table to the brim and 98304 bins a 2^17-entry
  // one: one more insertion would grow either, so a self-merge that
  // inserted, or grew before looking, would rehash under its own loop.
  for (const std::uint64_t bins : {12ULL, 98304ULL, 1000ULL}) {
    SCOPED_TRACE("bins " + std::to_string(bins));
    std::mt19937_64 rng(bins);
    DistanceHistogram got;
    MapHistogram want;
    for (std::uint64_t i = 0; i < bins; ++i) {
      const double weight = random_weight(rng);
      got.record(i * 11, weight);
      want.record(i * 11, weight);
    }
    got.record(~std::uint64_t{0}, 4.0);
    want.record(~std::uint64_t{0}, 4.0);
    got.record_infinite(2.0);
    want.record_infinite(2.0);
    MapHistogram copy = want;
    want.merge(copy);
    got.merge(got);
    EXPECT_EQ(got.bin_count(), bins + 1);
    expect_same(got, want);
  }
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
