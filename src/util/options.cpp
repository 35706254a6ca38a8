#include "util/options.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace krr {

Options::Options(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        named_[arg.substr(2)] = "";
      } else {
        named_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

std::optional<std::string> Options::get(const std::string& name) const {
  auto it = named_.find(name);
  if (it == named_.end()) return std::nullopt;
  return it->second;
}

bool Options::has(const std::string& name) const { return named_.count(name) != 0; }

std::string Options::get_string(const std::string& name, const std::string& def) const {
  auto v = get(name);
  return v ? *v : def;
}

namespace {

/// Parses all of `text` as a T; a partial parse (trailing junk, "1e2" for an
/// integer) or an out-of-range value throws, naming `source` (the flag or
/// environment variable).
template <typename T>
T parse_whole(const std::string& source, const std::string& text, const char* kind) {
  T out{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument(source + ": bad " + kind + " '" + text + "'");
  }
  return out;
}

}  // namespace

std::int64_t Options::get_int(const std::string& name, std::int64_t def) const {
  auto v = get(name);
  if (!v || v->empty()) return def;
  return parse_whole<std::int64_t>("--" + name, *v, "integer");
}

double Options::get_double(const std::string& name, double def) const {
  auto v = get(name);
  if (!v || v->empty()) return def;
  return parse_whole<double>("--" + name, *v, "number");
}

double parse_bench_scale(const char* text) {
  if (text == nullptr || *text == '\0') return 1.0;
  const double v = parse_whole<double>("KRR_BENCH_SCALE", text, "number");
  if (!std::isfinite(v) || v <= 0.0) {
    throw std::invalid_argument("KRR_BENCH_SCALE: bad number '" +
                                std::string(text) +
                                "' (want a finite number above 0)");
  }
  return v;
}

double bench_scale() {
  static const double scale = parse_bench_scale(std::getenv("KRR_BENCH_SCALE"));
  return scale;
}

std::uint64_t scaled(std::uint64_t n, std::uint64_t min_value) {
  const double v = static_cast<double>(n) * bench_scale();
  return std::max<std::uint64_t>(min_value, static_cast<std::uint64_t>(v));
}

}  // namespace krr
