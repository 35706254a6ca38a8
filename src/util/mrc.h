#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace krr {

/// A miss ratio curve: a monotone non-increasing step function from cache
/// size (objects or bytes) to miss ratio, represented by its breakpoints.
///
/// `eval(c)` returns the miss ratio of the largest breakpoint size <= c,
/// i.e. the curve is right-continuous: between breakpoints the miss ratio of
/// the last known size applies.
class MissRatioCurve {
 public:
  struct Point {
    double size;        ///< cache size (number of objects, or bytes)
    double miss_ratio;  ///< miss ratio at exactly this size
  };

  MissRatioCurve() = default;

  /// Points need not be sorted; they are sorted on construction. Duplicate
  /// sizes keep the last-given miss ratio.
  explicit MissRatioCurve(std::vector<Point> points);

  /// Adds a breakpoint, keeping the representation sorted; a point at or
  /// beyond the largest size so far costs O(1).
  void add_point(double size, double miss_ratio);

  /// Miss ratio at cache size c (step interpolation). An empty curve
  /// evaluates to 1.0 (everything misses); sizes below the first breakpoint
  /// also evaluate to the first breakpoint's miss ratio.
  double eval(double size) const;

  bool empty() const noexcept { return points_.empty(); }
  std::size_t size() const noexcept { return points_.size(); }
  const std::vector<Point>& points() const noexcept { return points_; }

  /// Largest breakpoint size (the working set size for curves produced by a
  /// full stack model). Returns 0 for an empty curve.
  double max_size() const;

  /// Mean absolute error against another curve, evaluated at the given
  /// cache sizes (the paper's accuracy metric, §5.3).
  double mae(const MissRatioCurve& other, const std::vector<double>& sizes) const;

  /// Maximum absolute error over the given sizes.
  double max_error(const MissRatioCurve& other, const std::vector<double>& sizes) const;

  /// Writes "size,miss_ratio" CSV lines (with header) to the stream.
  void write_csv(std::ostream& os, const std::string& label = "") const;

 private:
  std::vector<Point> points_;  // sorted by size ascending
};

/// n sizes evenly spaced over (0, max_size], i.e. max_size/n, 2*max_size/n,
/// ..., max_size — the evaluation grid the paper uses (40 sizes over the
/// working set size).
std::vector<double> evenly_spaced_sizes(double max_size, std::size_t n);

}  // namespace krr
