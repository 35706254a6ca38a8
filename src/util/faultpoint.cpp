#include "util/faultpoint.h"

#include <cstring>
#include <memory>
#include <vector>

namespace krr::faults {

namespace detail {
std::atomic<bool> g_armed{false};
}  // namespace detail

namespace {

enum class TriggerMode { kNthHit, kEveryK };

/// One armed trigger. `hits` is the per-trigger matching-hit counter; the
/// counter (not wall time or randomness) decides firing, so a plan is a
/// pure function of the run's call sequence.
struct Trigger {
  std::string point;
  bool has_detail = false;
  std::uint64_t detail = 0;
  TriggerMode mode = TriggerMode::kNthHit;
  std::uint64_t n = 1;  // Nth hit, or period K
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> fired{0};
};

/// The armed plan. Installed wholesale by arm() before any pipeline thread
/// exists (see header contract), then only read — the atomics inside each
/// trigger carry the cross-thread counting.
std::vector<std::unique_ptr<Trigger>>& plan() {
  static std::vector<std::unique_ptr<Trigger>> p;
  return p;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

Status parse_trigger(const std::string& spec, Trigger* out) {
  const std::size_t at = spec.find('@');
  if (at == std::string::npos || at == 0) {
    return invalid_argument_error("fault plan: trigger '" + spec +
                                  "' missing '@mode'");
  }
  std::string target = spec.substr(0, at);
  const std::string mode = spec.substr(at + 1);
  const std::size_t hash = target.find('#');
  if (hash != std::string::npos) {
    if (!parse_u64(target.substr(hash + 1), &out->detail)) {
      return invalid_argument_error("fault plan: bad detail in '" + spec + "'");
    }
    out->has_detail = true;
    target = target.substr(0, hash);
  }
  if (target.empty()) {
    return invalid_argument_error("fault plan: empty point name in '" + spec +
                                  "'");
  }
  out->point = target;
  if (mode == "once") {
    out->mode = TriggerMode::kNthHit;
    out->n = 1;
    return Status::ok();
  }
  if (mode.rfind("hit=", 0) == 0) {
    out->mode = TriggerMode::kNthHit;
    if (!parse_u64(mode.substr(4), &out->n) || out->n == 0) {
      return invalid_argument_error("fault plan: bad hit count in '" + spec +
                                    "'");
    }
    return Status::ok();
  }
  if (mode.rfind("every=", 0) == 0) {
    out->mode = TriggerMode::kEveryK;
    if (!parse_u64(mode.substr(6), &out->n) || out->n == 0) {
      return invalid_argument_error("fault plan: bad period in '" + spec + "'");
    }
    return Status::ok();
  }
  return invalid_argument_error(
      "fault plan: unknown mode '" + mode +
      "' (expected hit=N, every=K, or once) in '" + spec + "'");
}

}  // namespace

Status arm(const std::string& plan_spec) {
  disarm();
  if (plan_spec.empty()) return Status::ok();
  std::vector<std::unique_ptr<Trigger>> parsed;
  std::size_t start = 0;
  while (start <= plan_spec.size()) {
    std::size_t end = plan_spec.find_first_of(";,", start);
    if (end == std::string::npos) end = plan_spec.size();
    const std::string spec = plan_spec.substr(start, end - start);
    if (!spec.empty()) {
      auto trigger = std::make_unique<Trigger>();
      const Status status = parse_trigger(spec, trigger.get());
      if (!status.is_ok()) return status;
      parsed.push_back(std::move(trigger));
    }
    start = end + 1;
  }
  if (parsed.empty()) {
    return invalid_argument_error("fault plan: no triggers in '" + plan_spec +
                                  "'");
  }
  plan() = std::move(parsed);
  detail::g_armed.store(true, std::memory_order_release);
  return Status::ok();
}

void disarm() {
  detail::g_armed.store(false, std::memory_order_release);
  plan().clear();
}

namespace detail {

bool should_fire_impl(const char* point, std::uint64_t detail) noexcept {
  bool fire = false;
  for (const auto& trigger : plan()) {
    if (trigger->point != point) continue;
    if (trigger->has_detail && trigger->detail != detail) continue;
    const std::uint64_t hit =
        trigger->hits.fetch_add(1, std::memory_order_relaxed) + 1;
    const bool hit_fires = trigger->mode == TriggerMode::kNthHit
                               ? hit == trigger->n
                               : hit % trigger->n == 0;
    if (hit_fires) {
      trigger->fired.fetch_add(1, std::memory_order_relaxed);
      fire = true;  // keep counting the other triggers' hits
    }
  }
  return fire;
}

}  // namespace detail

std::uint64_t hits(const std::string& point) {
  std::uint64_t total = 0;
  for (const auto& trigger : plan()) {
    if (trigger->point == point) {
      total += trigger->hits.load(std::memory_order_relaxed);
    }
  }
  return total;
}

std::uint64_t fires(const std::string& point) {
  std::uint64_t total = 0;
  for (const auto& trigger : plan()) {
    if (trigger->point == point) {
      total += trigger->fired.load(std::memory_order_relaxed);
    }
  }
  return total;
}

std::uint64_t total_fires() {
  std::uint64_t total = 0;
  for (const auto& trigger : plan()) {
    total += trigger->fired.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace krr::faults
