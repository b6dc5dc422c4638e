#pragma once

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

/// @file capture.hpp
/// Holding back what a thread records into a context, to commit or drop it
/// later as a whole.
///
/// While a Capture::Scope is alive, every metrics record and trace event
/// the calling thread makes into the target context's sinks goes into the
/// capture instead. commit() then replays the records in the order they
/// were made, as if they were made at that moment: the registry ends in the
/// state direct recording would have left at that point of the run,
/// bit for bit, and the trace events join the buffer on the recording
/// thread's own track with their original timestamps. drop() forgets them,
/// and the target is left exactly as it was, the tracer's track table
/// included.
///
/// The scheduler uses this for a synthesis a helper thread runs ahead of
/// the route that needs it (util::Handoff): what the synthesis records is
/// committed when the route adopts its result and dropped when the route
/// synthesizes itself instead, so the metrics a run leaves do not depend on
/// which thread did the work.
///
/// A capture is recorded into by one thread at a time and committed or
/// dropped by its owner once that thread is done with it (the handoff's
/// settle orders the two).

namespace meda::obs {

class Capture {
 public:
  /// A capture of what is recorded into @p target's sinks.
  explicit Capture(Context& target = ctx()) : target_(target) {}

  Capture(const Capture&) = delete;
  Capture& operator=(const Capture&) = delete;

  /// Diverts the calling thread's records into a capture while alive
  /// (scopes nest; the innermost wins).
  class Scope {
   public:
    explicit Scope(Capture& capture);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Capture* previous_;
  };

  /// Replays every held record into the target and empties the capture.
  void commit();
  /// Forgets every held record.
  void drop();
  /// True when nothing is held.
  bool empty() const { return metrics_.empty() && events_.empty(); }

 private:
  friend class MetricsRegistry;
  friend class Tracer;

  /// One held metrics record: the call and its arguments.
  struct MetricRecord {
    enum class Kind : unsigned char { kAdd, kSet, kObserve, kObserveLog2 };
    Kind kind;
    std::string name;
    std::uint64_t delta = 0;
    double value = 0.0;
    std::vector<double> bounds;  ///< kObserve: the histogram's layout
  };
  /// One held trace event; `thread` is the recording thread for events on
  /// a thread's track, and empty for events that name their own track.
  struct HeldEvent {
    TraceEvent event;
    std::thread::id thread;
  };

  /// The capture the calling thread's records into @p registry (or
  /// @p tracer) go to, or nullptr when they are recorded directly.
  static Capture* diverting(const MetricsRegistry& registry);
  static Capture* diverting(const Tracer& tracer);

  Context& target_;
  std::vector<MetricRecord> metrics_;
  std::vector<HeldEvent> events_;
};

}  // namespace meda::obs
