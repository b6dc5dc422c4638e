#pragma once

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

/// @file obs.hpp
/// Unified observability context: one process-wide tracer + metrics
/// registry, and the instrumentation macros the hot layers use.
///
/// Design:
///  - **Null sink by default.** Both sinks start disabled; every macro
///    checks one flag and returns, so instrumented code costs a predicted
///    branch per site when observability is off — and exactly nothing when
///    it is compiled out.
///  - **Compile-time toggle.** Configure with `-DMEDA_OBS=OFF` (which
///    defines `MEDA_OBS_DISABLED`) to compile every macro to a no-op; the
///    obs library itself stays available for direct use.
///  - **One context.** A process-global context keeps the instrumentation
///    non-invasive: no plumbing of sink pointers through
///    Synthesizer/Scheduler/SimulatedChip constructors. Several threads may
///    record at once: campaign workers (util::ThreadPool) each run their own
///    scheduler, and a scheduler may hand a synthesis to a helper thread
///    (util::Handoff). Both sinks lock. A helper records into an
///    obs::Capture (capture.hpp) that the scheduler commits when it adopts
///    the synthesis, so every record lands where the scheduler's own
///    thread would have made it.
///
/// Typical use (see examples/run_assay.cpp):
///
///     meda::obs::ctx().tracer().enable();
///     meda::obs::ctx().metrics().enable();
///     ... run ...
///     meda::obs::ctx().tracer().write_json("trace.json");
///     meda::obs::ctx().metrics().write_snapshot("metrics.json");

namespace meda::obs {

/// The process-wide observability context.
class Context {
 public:
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// True when any sink records (instrumentation worth computing inputs for).
  bool any_enabled() const {
    return tracer_.enabled() || metrics_.enabled();
  }

  /// Disables both sinks and drops all recorded data (test isolation).
  void reset() {
    tracer_.disable();
    tracer_.clear();
    metrics_.disable();
    metrics_.clear();
  }

 private:
  Tracer tracer_;
  MetricsRegistry metrics_;
};

/// The global context (null sinks until enabled).
Context& ctx();

/// Writes the global context's trace/metrics outputs when destroyed, so
/// every exit path — normal return or uncaught exception — leaves valid,
/// parseable files on disk. Construct one at the top of a driver's main
/// after enabling the sinks; call disarm() on paths that handle their own
/// writes, or flush() to write early (destruction then rewrites the files
/// with any events recorded since, which is idempotent for a finished
/// run). Empty paths and disabled sinks are skipped.
class FlushGuard {
 public:
  FlushGuard(std::string trace_path, std::string metrics_path)
      : trace_path_(std::move(trace_path)),
        metrics_path_(std::move(metrics_path)) {}
  ~FlushGuard() { flush(); }

  FlushGuard(const FlushGuard&) = delete;
  FlushGuard& operator=(const FlushGuard&) = delete;

  void flush();
  void disarm() { armed_ = false; }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  bool armed_ = true;
};

}  // namespace meda::obs

// Instrumentation macros ----------------------------------------------------
//
// MEDA_OBS_SPAN(var, cat, name)   RAII duration span named `var`
// MEDA_OBS_COUNT(name, delta)     bump a registry counter
// MEDA_OBS_GAUGE(name, value)     set a registry gauge
// MEDA_OBS_OBSERVE(name, v, b)    observe into a fixed-bucket histogram
// MEDA_OBS_OBSERVE_LOG2(name, v)  observe into a log2-bucket histogram
// MEDA_OBS_INSTANT(cat, name, d)  instant trace marker (wall clock)
// MEDA_OBS_CYCLE_COUNTER(n, v, c) cycle-domain counter sample
// MEDA_OBS_CYCLE_INSTANT(n, c)    cycle-domain instant marker
// MEDA_OBS_ACTIVE()               any sink enabled (gate derived inputs)

#ifndef MEDA_OBS_DISABLED

#define MEDA_OBS_SPAN(var, cat, name) \
  ::meda::obs::SpanScope var { ::meda::obs::ctx().tracer(), cat, name }
#define MEDA_OBS_COUNT(name, delta) \
  ::meda::obs::ctx().metrics().add(name, delta)
#define MEDA_OBS_GAUGE(name, value) \
  ::meda::obs::ctx().metrics().set(name, value)
#define MEDA_OBS_OBSERVE(name, value, bounds) \
  ::meda::obs::ctx().metrics().observe(name, value, bounds)
#define MEDA_OBS_OBSERVE_LOG2(name, value) \
  ::meda::obs::ctx().metrics().observe_log2(name, value)
#define MEDA_OBS_INSTANT(cat, name, detail) \
  ::meda::obs::ctx().tracer().instant(cat, name, detail)
#define MEDA_OBS_CYCLE_COUNTER(name, value, cycle) \
  ::meda::obs::ctx().tracer().cycle_counter(name, value, cycle)
#define MEDA_OBS_CYCLE_INSTANT(name, cycle) \
  ::meda::obs::ctx().tracer().cycle_instant(name, cycle)
#define MEDA_OBS_ACTIVE() ::meda::obs::ctx().any_enabled()

#else  // MEDA_OBS_DISABLED: compile instrumentation out entirely.

#define MEDA_OBS_SPAN(var, cat, name) \
  [[maybe_unused]] ::meda::obs::NullSpan var {}
#define MEDA_OBS_COUNT(name, delta) ((void)0)
#define MEDA_OBS_GAUGE(name, value) ((void)0)
#define MEDA_OBS_OBSERVE(name, value, bounds) ((void)0)
#define MEDA_OBS_OBSERVE_LOG2(name, value) ((void)0)
#define MEDA_OBS_INSTANT(cat, name, detail) ((void)0)
#define MEDA_OBS_CYCLE_COUNTER(name, value, cycle) ((void)0)
#define MEDA_OBS_CYCLE_INSTANT(name, cycle) ((void)0)
#define MEDA_OBS_ACTIVE() false

#endif  // MEDA_OBS_DISABLED
