#include "util/mrc.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ostream>
#include <stdexcept>

namespace krr {

MissRatioCurve::MissRatioCurve(std::vector<Point> points) : points_(std::move(points)) {
  std::stable_sort(points_.begin(), points_.end(),
                   [](const Point& a, const Point& b) { return a.size < b.size; });
  // Collapse duplicate sizes, keeping the last-given value.
  auto out = points_.begin();
  for (auto it = points_.begin(); it != points_.end(); ++it) {
    if (out != points_.begin() && std::prev(out)->size == it->size) {
      *std::prev(out) = *it;
    } else {
      *out++ = *it;
    }
  }
  points_.erase(out, points_.end());
}

void MissRatioCurve::add_point(double size, double miss_ratio) {
  Point p{size, miss_ratio};
  auto it = std::lower_bound(points_.begin(), points_.end(), size,
                             [](const Point& a, double s) { return a.size < s; });
  if (it != points_.end() && it->size == size) {
    it->miss_ratio = miss_ratio;
  } else {
    points_.insert(it, p);
  }
}

double MissRatioCurve::eval(double size) const {
  if (points_.empty()) return 1.0;
  auto it = std::upper_bound(points_.begin(), points_.end(), size,
                             [](double s, const Point& p) { return s < p.size; });
  if (it == points_.begin()) return it->miss_ratio;
  return std::prev(it)->miss_ratio;
}

double MissRatioCurve::max_size() const {
  return points_.empty() ? 0.0 : points_.back().size;
}

double MissRatioCurve::mae(const MissRatioCurve& other,
                           const std::vector<double>& sizes) const {
  if (sizes.empty()) throw std::invalid_argument("mae needs at least one size");
  double sum = 0.0;
  for (double s : sizes) sum += std::abs(eval(s) - other.eval(s));
  return sum / static_cast<double>(sizes.size());
}

double MissRatioCurve::max_error(const MissRatioCurve& other,
                                 const std::vector<double>& sizes) const {
  if (sizes.empty()) throw std::invalid_argument("max_error needs at least one size");
  double worst = 0.0;
  for (double s : sizes) worst = std::max(worst, std::abs(eval(s) - other.eval(s)));
  return worst;
}

void MissRatioCurve::write_csv(std::ostream& os, const std::string& label) const {
  // std::to_chars in general format at precision 6 is printf's %.6g, the
  // bytes an unmodified ostream writes for a double, without the locale and
  // stream-state machinery per number. Rows go out in ~64 KiB writes.
  constexpr std::size_t kFlushBytes = 1 << 16;
  std::string buf =
      label.empty() ? "size,miss_ratio\n" : "label,size,miss_ratio\n";
  buf.reserve(kFlushBytes + label.size() + 64);
  const auto append = [&buf](double v) {
    char digits[32];
    const auto result = std::to_chars(digits, digits + sizeof(digits), v,
                                      std::chars_format::general, 6);
    buf.append(digits, result.ptr);
  };
  for (const Point& p : points_) {
    if (!label.empty()) buf.append(label).push_back(',');
    append(p.size);
    buf.push_back(',');
    append(p.miss_ratio);
    buf.push_back('\n');
    if (buf.size() >= kFlushBytes) {
      os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

std::vector<double> evenly_spaced_sizes(double max_size, std::size_t n) {
  if (n == 0 || max_size <= 0.0) {
    throw std::invalid_argument("evenly_spaced_sizes needs n>0 and max_size>0");
  }
  std::vector<double> sizes;
  sizes.reserve(n);
  for (std::size_t i = 1; i <= n; ++i) {
    sizes.push_back(max_size * static_cast<double>(i) / static_cast<double>(n));
  }
  return sizes;
}

}  // namespace krr
