#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/status.h"

namespace krr::faults {

/// Deterministic fault injection: named fault points compiled into the
/// production code paths (shard workers, queue pushes, checkpoint writes,
/// trace reads) that fire according to an armed trigger plan. The plan
/// grammar is
///
///   plan    := trigger (';' trigger)*
///   trigger := point ['#' detail] '@' mode
///   mode    := 'hit=' N          fire on the Nth matching hit (one-shot)
///            | 'every=' K        fire on every Kth matching hit
///            | 'once'            fire on the first matching hit (== hit=1)
///
/// e.g. "sharded.worker#1@hit=500" crashes shard 1's worker at its 500th
/// record, "checkpoint.write@every=2" fails every second snapshot write.
/// The optional '#detail' restricts the trigger to hits carrying that
/// detail value (shard index for the sharded points; points without a
/// natural detail pass 0). Hit counting is per trigger and deterministic:
/// the same plan against the same run fires at the same instant every
/// time, which is what lets recovery tests assert bit-identical outcomes.
///
/// Fault points are always compiled in and armed only at run time. When
/// disarmed — the production state — a fault point costs one relaxed
/// atomic load.
///
/// Arming is process-global and not thread-safe against in-flight
/// should_fire() racing arm(): arm the plan before the run starts (the CLI
/// arms from --fault-plan / KRR_FAULT_PLAN before any pipeline exists, and
/// tests arm before constructing estimators).

/// Fault points wired into the pipeline. Call sites pass these exact
/// strings; plans name them verbatim.
inline constexpr const char* kShardWorker = "sharded.worker";
inline constexpr const char* kQueuePush = "sharded.queue_push";
inline constexpr const char* kCheckpointWrite = "checkpoint.write";
inline constexpr const char* kTraceRead = "trace.read";

/// Thrown by maybe_fire() at throwing call sites (shard workers). Derives
/// from std::runtime_error so existing failure handling (strict rethrow,
/// best-effort shard death) treats an injected crash like a real one.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Parses and arms a trigger plan (replacing any armed plan). Empty plan ==
/// disarm. kInvalidArgument on a malformed spec.
Status arm(const std::string& plan);

/// Drops the armed plan and zeroes all hit/fire accounting.
void disarm();

namespace detail {
extern std::atomic<bool> g_armed;
bool should_fire_impl(const char* point, std::uint64_t detail) noexcept;
}  // namespace detail

inline bool armed() noexcept {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// True when an armed trigger matches this hit of `point` and elects to
/// fire. Status-returning call sites (checkpoint writes, trace reads) use
/// this directly and surface the fault as a typed Status.
inline bool should_fire(const char* point, std::uint64_t detail = 0) noexcept {
  return armed() && detail::should_fire_impl(point, detail);
}

/// Throwing form for exception-based call sites (shard workers): fires as a
/// FaultInjectedError carrying the point name and detail.
inline void maybe_fire(const char* point, std::uint64_t detail = 0) {
  if (should_fire(point, detail)) {
    throw FaultInjectedError(std::string("injected fault at ") + point + "#" +
                             std::to_string(detail));
  }
}

/// Accounting for tests and the CLI summary: matching hits observed and
/// faults actually fired at this point, summed over the armed plan's
/// triggers. Zero when disarmed or unknown.
std::uint64_t hits(const std::string& point);
std::uint64_t fires(const std::string& point);

/// Total faults fired across all points since the last arm().
std::uint64_t total_fires();

}  // namespace krr::faults
