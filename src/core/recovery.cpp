#include "core/recovery.hpp"

namespace meda::core {

std::string_view to_string(RecoveryAction action) {
  switch (action) {
    case RecoveryAction::kWatchdogResense: return "watchdog-resense";
    case RecoveryAction::kSynthesisRetry: return "synthesis-retry";
    case RecoveryAction::kBackoff: return "backoff";
    case RecoveryAction::kQuarantine: return "quarantine";
    case RecoveryAction::kContentionDetour: return "contention-detour";
    case RecoveryAction::kJobAbort: return "job-abort";
    case RecoveryAction::kQuarantineParole: return "quarantine-parole";
    case RecoveryAction::kReplicaFailover: return "replica-failover";
  }
  return "?";
}

}  // namespace meda::core
