#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

/// @file trace.hpp
/// Span-based tracer with Chrome `trace_event` JSON export.
///
/// The tracer records three kinds of telemetry:
///
///  - **Duration spans** (`ph: "B"/"E"`) — RAII-scoped via SpanScope; spans
///    nest naturally on the wall-clock thread track, giving the
///    scheduler → job → synthesis → value-iteration breakdown.
///  - **Async spans** (`ph: "b"/"e"`) — long-lived work such as a routing
///    job's whole lifetime, rendered on its own track so overlapping jobs
///    stay readable.
///  - **Counter samples** (`ph: "C"`) — cycle-accurate counter tracks
///    (droplets on chip, in-flight syntheses, health-change events) keyed by
///    the *operational cycle*, not wall time, on a dedicated pid so Perfetto
///    shows them as an aligned cycle-domain timeline.
///
/// Export with to_json()/write_json() and load the file in chrome://tracing
/// or https://ui.perfetto.dev. The tracer is a null sink until enable() is
/// called: every record call first checks one flag and returns, so an
/// instrumented hot path costs a predicted branch when tracing is off.
///
/// Thread safety: record calls may come from any thread of a campaign loop
/// (util::parallel_for runs it on the calling thread and on the process's
/// helper threads) and from the helper a scheduler handed a synthesis to
/// (util::Handoff), so the event buffer is mutex-protected and each
/// recording thread gets its own tid — the construction thread is the
/// scheduler track (kMainTid), every other thread is assigned
/// kFirstWorkerTid, kFirstWorkerTid+1, … on first use and labelled
/// "worker-N" in the export. A helper's synthesis spans reach the buffer
/// through an obs::Capture, on the helper's own track, when the scheduler
/// adopts the synthesis.
/// Duration spans therefore nest correctly per thread; events from
/// different threads interleave in wall-clock order, which is
/// nondeterministic — run with jobs = 1 when a reproducible trace matters
/// (metrics and campaign results stay deterministic either way).
/// enable()/disable()/clear() and the accessors are meant for the quiet
/// phases before and after a parallel section.

namespace meda::obs {

class Capture;

/// Monotonic interval timer; the single source of truth for all wall-time
/// measurements reported by the library (spans and the timing fields of
/// SynthesisResult / ExecutionStats are derived from the same readings).
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()), lap_(start_) {}

  /// Seconds since construction.
  double total_seconds() const { return seconds(start_, clock::now()); }

  /// Seconds since the last lap() (or construction), then restarts the lap.
  double lap_seconds() {
    const clock::time_point now = clock::now();
    const double s = seconds(lap_, now);
    lap_ = now;
    return s;
  }

 private:
  using clock = std::chrono::steady_clock;
  static double seconds(clock::time_point a, clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  }
  clock::time_point start_;
  clock::time_point lap_;
};

/// One recorded trace event (subset of the Chrome trace_event model).
struct TraceEvent {
  char ph = 'i';           ///< B, E, X, b, e, i, C
  std::uint64_t ts = 0;    ///< microseconds (or cycles on the cycle pid)
  std::uint64_t dur = 0;   ///< X only
  std::uint64_t id = 0;    ///< async pairing id (b/e only)
  int pid = 1;
  int tid = 1;
  std::string name;
  std::string cat;
  /// Pre-rendered JSON fragments: {"key", "3"} or {"key", "\"text\""}.
  std::vector<std::pair<std::string, std::string>> args;
};

/// Escapes and quotes @p text as a JSON string literal.
std::string json_quote(std::string_view text);

/// Process/thread ids used by the exporter.
struct TraceTrack {
  static constexpr int kWallPid = 1;    ///< wall-clock domain (ts = µs)
  static constexpr int kCyclePid = 2;   ///< cycle domain (ts = op. cycle)
  static constexpr int kSweepPid = 3;   ///< sweep domain (ts = GS sweep index)
  static constexpr int kMainTid = 1;    ///< nested scheduler/synthesis spans
  static constexpr int kJobTid = 2;     ///< async per-job lifetime spans
  static constexpr int kFirstWorkerTid = 3;  ///< others count up from here
};

/// Event recorder. All record methods are no-ops until enable().
class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }

  /// Drops every recorded event (the enabled flag is unchanged).
  void clear();

  std::size_t event_count() const;
  /// Direct buffer access; only valid while no other thread records.
  const std::vector<TraceEvent>& events() const { return events_; }

  /// Microseconds since the tracer's epoch (process start of the tracer).
  std::uint64_t now_us() const;

  // Recording -------------------------------------------------------------
  void begin(std::string_view cat, std::string_view name);
  void end(std::vector<std::pair<std::string, std::string>> args = {});
  void complete(std::string_view cat, std::string_view name,
                std::uint64_t start_us, std::uint64_t dur_us, int tid,
                std::vector<std::pair<std::string, std::string>> args = {});
  void async_begin(std::string_view cat, std::string_view name,
                   std::uint64_t id);
  void async_end(std::string_view cat, std::string_view name,
                 std::uint64_t id,
                 std::vector<std::pair<std::string, std::string>> args = {});
  void instant(std::string_view cat, std::string_view name,
               std::string_view detail = {});
  /// One cycle-domain counter sample: track @p name gets @p value at
  /// operational cycle @p cycle (rendered on the cycle pid).
  void cycle_counter(std::string_view name, double value,
                     std::uint64_t cycle);
  /// One cycle-domain instant marker (e.g. a health-change event).
  void cycle_instant(std::string_view name, std::uint64_t cycle);
  /// One sweep-domain counter sample: track @p name gets @p value at
  /// Gauss-Seidel sweep @p sweep (rendered on the sweep pid, so the
  /// per-sweep max-residual decay of one solve reads as a curve).
  void sweep_counter(std::string_view name, double value,
                     std::uint64_t sweep);

  // Export ----------------------------------------------------------------
  /// Chrome trace_event JSON ({"traceEvents": [...]}); parses in
  /// chrome://tracing and Perfetto.
  std::string to_json() const;
  void write_json(const std::string& path) const;

 private:
  friend class Capture;  // commits held events into the buffer

  /// Thread @p thread's track id under mu_: the construction thread maps
  /// to TraceTrack::kMainTid, every other thread gets the next worker tid
  /// on first use.
  int tid_locked(std::thread::id thread);
  /// Records @p e, on the calling thread's track when @p thread_track
  /// (otherwise e.tid stands), or holds it in the thread's capture.
  void push(TraceEvent e, bool thread_track = false);

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::thread::id main_thread_ = std::this_thread::get_id();
  std::map<std::thread::id, int> thread_tids_;  ///< assigned worker tids
  int next_worker_tid_ = TraceTrack::kFirstWorkerTid;
  std::vector<TraceEvent> events_;
};

/// RAII duration span on the main wall-clock track. Collect argument pairs
/// with arg(); they are attached to the closing event.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, std::string_view cat, std::string_view name)
      : tracer_(tracer), live_(tracer.enabled()) {
    if (live_) tracer_.begin(cat, name);
  }
  ~SpanScope() {
    if (live_) tracer_.end(std::move(args_));
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void arg(std::string_view key, std::int64_t value) {
    if (live_) args_.emplace_back(std::string(key), std::to_string(value));
  }
  void arg(std::string_view key, double value);
  void arg(std::string_view key, std::string_view text) {
    if (live_) args_.emplace_back(std::string(key), json_quote(text));
  }

 private:
  Tracer& tracer_;
  bool live_;
  std::vector<std::pair<std::string, std::string>> args_;
};

/// Stand-in for SpanScope when instrumentation is compiled out
/// (-DMEDA_OBS_DISABLED): every member is a no-op.
struct NullSpan {
  template <typename T>
  void arg(std::string_view, T&&) {}
};

}  // namespace meda::obs
