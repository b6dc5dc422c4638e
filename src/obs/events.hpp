#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// @file events.hpp
/// Structured run-event log: the single event stream of one execution.
///
/// Every notable happening — recovery-ladder rungs, stall classifications,
/// health-change adoptions, job lifecycle — is one Event with a category, a
/// name, an optional scope (the affected MO), and free-form detail.

namespace meda::obs {

/// One structured run event.
struct Event {
  std::uint64_t cycle = 0;   ///< operational cycle, relative to run start
  std::string category;      ///< "recovery", "stall", "health", "job", ...
  std::string name;          ///< e.g. "watchdog-resense", "blocked-by-droplet"
  int scope = -1;            ///< affected MO id; -1 = execution-wide
  std::string detail;

  friend bool operator==(const Event&, const Event&) = default;
};

/// Renders events one per line:
/// `cycle 412 [recovery/quarantine] MO 3: 5 cell(s) ...`.
std::string format_events(const std::vector<Event>& events);

/// Renders events as a JSON array (for machine consumption and reports).
std::string events_json(const std::vector<Event>& events);

}  // namespace meda::obs
