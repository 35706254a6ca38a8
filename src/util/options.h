#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace krr {

/// Tiny command-line/environment option parser shared by the bench and
/// example binaries. Understands `--name=value` and bare `--flag` arguments;
/// unknown positional arguments are kept in order.
class Options {
 public:
  Options() = default;
  Options(int argc, char** argv);

  /// Value of --name=..., if present.
  std::optional<std::string> get(const std::string& name) const;

  /// True if --name was given (with or without a value).
  bool has(const std::string& name) const;

  std::string get_string(const std::string& name, const std::string& def) const;
  /// Numeric values must parse in full; otherwise std::invalid_argument
  /// naming the flag (e.g. "--n: bad integer '2000x'").
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;

  const std::vector<std::string>& positional() const noexcept { return positional_; }

 private:
  std::map<std::string, std::string> named_;
  std::vector<std::string> positional_;
};

/// Parses a KRR_BENCH_SCALE value: null or empty means 1.0; anything else
/// must parse in full as a finite number above 0, or std::invalid_argument
/// naming the variable is thrown ("0,3", "0.3x", "-1", "inf" are all bad).
double parse_bench_scale(const char* text);

/// Global benchmark scale factor, from the KRR_BENCH_SCALE environment
/// variable (default 1.0). paper_bench multiplies its trace lengths by
/// this, so `KRR_BENCH_SCALE=10 paper_bench table5_1` approaches
/// paper-sized runs while the default stays laptop-friendly. Throws like
/// parse_bench_scale on a malformed value.
double bench_scale();

/// n scaled by bench_scale(), never below min_value.
std::uint64_t scaled(std::uint64_t n, std::uint64_t min_value = 1);

}  // namespace krr
