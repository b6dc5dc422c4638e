#include "obs/capture.hpp"

#include <mutex>
#include <utility>

namespace meda::obs {

namespace {

/// The capture the calling thread's records go to (innermost scope).
thread_local Capture* t_active = nullptr;

}  // namespace

Capture::Scope::Scope(Capture& capture)
    : previous_(std::exchange(t_active, &capture)) {}

Capture::Scope::~Scope() { t_active = previous_; }

Capture* Capture::diverting(const MetricsRegistry& registry) {
  Capture* const capture = t_active;
  return capture != nullptr && &capture->target_.metrics() == &registry
             ? capture
             : nullptr;
}

Capture* Capture::diverting(const Tracer& tracer) {
  Capture* const capture = t_active;
  return capture != nullptr && &capture->target_.tracer() == &tracer
             ? capture
             : nullptr;
}

void Capture::commit() {
  MetricsRegistry& registry = target_.metrics();
  for (const MetricRecord& r : metrics_) {
    switch (r.kind) {
      case MetricRecord::Kind::kAdd: registry.add(r.name, r.delta); break;
      case MetricRecord::Kind::kSet: registry.set(r.name, r.value); break;
      case MetricRecord::Kind::kObserve:
        registry.observe(r.name, r.value, r.bounds);
        break;
      case MetricRecord::Kind::kObserveLog2:
        registry.observe_log2(r.name, r.value);
        break;
    }
  }
  if (!events_.empty()) {
    Tracer& tracer = target_.tracer();
    const std::lock_guard<std::mutex> lock(tracer.mu_);
    for (HeldEvent& held : events_) {
      if (held.thread != std::thread::id{})
        held.event.tid = tracer.tid_locked(held.thread);
      tracer.events_.push_back(std::move(held.event));
    }
  }
  drop();
}

void Capture::drop() {
  metrics_.clear();
  events_.clear();
}

}  // namespace meda::obs
