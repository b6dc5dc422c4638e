#include "obs/trace.hpp"

#include <fstream>
#include <sstream>

#include "obs/capture.hpp"
#include "util/check.hpp"

namespace meda::obs {

namespace {

/// Length of the valid UTF-8 sequence starting at @p at, or 0 when the
/// bytes there are not well-formed UTF-8 (bad lead byte, truncated or
/// malformed continuation, overlong encoding, surrogate, or > U+10FFFF).
std::size_t utf8_sequence_length(std::string_view text, std::size_t at) {
  const auto byte = [&](std::size_t i) {
    return static_cast<unsigned char>(text[i]);
  };
  const unsigned char lead = byte(at);
  std::size_t len = 0;
  unsigned char lo = 0x80;  // bounds for the first continuation byte,
  unsigned char hi = 0xBF;  // tightened per RFC 3629 table 3-7
  if (lead >= 0xC2 && lead <= 0xDF) {
    len = 2;
  } else if (lead >= 0xE0 && lead <= 0xEF) {
    len = 3;
    if (lead == 0xE0) lo = 0xA0;  // reject overlong
    if (lead == 0xED) hi = 0x9F;  // reject surrogates
  } else if (lead >= 0xF0 && lead <= 0xF4) {
    len = 4;
    if (lead == 0xF0) lo = 0x90;  // reject overlong
    if (lead == 0xF4) hi = 0x8F;  // reject > U+10FFFF
  } else {
    return 0;  // 0x80–0xC1 and 0xF5–0xFF are never valid leads
  }
  if (at + len > text.size()) return 0;
  if (byte(at + 1) < lo || byte(at + 1) > hi) return 0;
  for (std::size_t i = 2; i < len; ++i) {
    if (byte(at + i) < 0x80 || byte(at + i) > 0xBF) return 0;
  }
  return len;
}

}  // namespace

std::string json_quote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (std::size_t i = 0; i < text.size();) {
    const char c = text[i];
    const unsigned char u = static_cast<unsigned char>(c);
    if (u < 0x80) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (u < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", u);
            out += buf;
          } else {
            out.push_back(c);
          }
      }
      ++i;
      continue;
    }
    // Multi-byte: pass well-formed UTF-8 through verbatim; replace each
    // ill-formed byte with U+FFFD so the output is always valid JSON text.
    const std::size_t len = utf8_sequence_length(text, i);
    if (len > 0) {
      out.append(text.substr(i, len));
      i += len;
    } else {
      out += "\\ufffd";
      ++i;
    }
  }
  out.push_back('"');
  return out;
}

std::uint64_t Tracer::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  // Drop worker tid assignments too: pool threads are gone by the time a
  // test resets the context, and their ids may be recycled.
  thread_tids_.clear();
  next_worker_tid_ = TraceTrack::kFirstWorkerTid;
}

std::size_t Tracer::event_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

int Tracer::tid_locked(std::thread::id thread) {
  if (thread == main_thread_) return TraceTrack::kMainTid;
  const auto it = thread_tids_.find(thread);
  if (it != thread_tids_.end()) return it->second;
  const int tid = next_worker_tid_++;
  thread_tids_.emplace(thread, tid);
  return tid;
}

void Tracer::push(TraceEvent e, bool thread_track) {
  const std::thread::id self = std::this_thread::get_id();
  if (Capture* capture = Capture::diverting(*this)) {
    capture->events_.push_back(
        {std::move(e), thread_track ? self : std::thread::id{}});
    return;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  if (thread_track) e.tid = tid_locked(self);
  events_.push_back(std::move(e));
}

void Tracer::begin(std::string_view cat, std::string_view name) {
  if (!enabled()) return;
  TraceEvent e;
  e.ph = 'B';
  e.ts = now_us();
  e.name = name;
  e.cat = cat;
  push(std::move(e), /*thread_track=*/true);
}

void Tracer::end(std::vector<std::pair<std::string, std::string>> args) {
  if (!enabled()) return;
  TraceEvent e;
  e.ph = 'E';
  e.ts = now_us();
  e.args = std::move(args);
  push(std::move(e), /*thread_track=*/true);
}

void Tracer::complete(std::string_view cat, std::string_view name,
                      std::uint64_t start_us, std::uint64_t dur_us, int tid,
                      std::vector<std::pair<std::string, std::string>> args) {
  if (!enabled()) return;
  TraceEvent e;
  e.ph = 'X';
  e.ts = start_us;
  e.dur = dur_us;
  e.tid = tid;
  e.name = name;
  e.cat = cat;
  e.args = std::move(args);
  push(std::move(e));
}

void Tracer::async_begin(std::string_view cat, std::string_view name,
                         std::uint64_t id) {
  if (!enabled()) return;
  TraceEvent e;
  e.ph = 'b';
  e.ts = now_us();
  e.id = id;
  e.tid = TraceTrack::kJobTid;
  e.name = name;
  e.cat = cat;
  push(std::move(e));
}

void Tracer::async_end(std::string_view cat, std::string_view name,
                       std::uint64_t id,
                       std::vector<std::pair<std::string, std::string>> args) {
  if (!enabled()) return;
  TraceEvent e;
  e.ph = 'e';
  e.ts = now_us();
  e.id = id;
  e.tid = TraceTrack::kJobTid;
  e.name = name;
  e.cat = cat;
  e.args = std::move(args);
  push(std::move(e));
}

void Tracer::instant(std::string_view cat, std::string_view name,
                     std::string_view detail) {
  if (!enabled()) return;
  TraceEvent e;
  e.ph = 'i';
  e.ts = now_us();
  e.name = name;
  e.cat = cat;
  if (!detail.empty())
    e.args.emplace_back("detail", json_quote(detail));
  push(std::move(e));
}

void Tracer::cycle_counter(std::string_view name, double value,
                           std::uint64_t cycle) {
  if (!enabled()) return;
  TraceEvent e;
  e.ph = 'C';
  e.ts = cycle;
  e.pid = TraceTrack::kCyclePid;
  e.tid = TraceTrack::kMainTid;
  e.name = name;
  e.cat = "cycle";
  std::ostringstream v;
  v << value;
  e.args.emplace_back("value", v.str());
  push(std::move(e));
}

void Tracer::sweep_counter(std::string_view name, double value,
                           std::uint64_t sweep) {
  if (!enabled()) return;
  TraceEvent e;
  e.ph = 'C';
  e.ts = sweep;
  e.pid = TraceTrack::kSweepPid;
  e.tid = TraceTrack::kMainTid;
  e.name = name;
  e.cat = "sweep";
  std::ostringstream v;
  v << value;
  e.args.emplace_back("value", v.str());
  push(std::move(e));
}

void Tracer::cycle_instant(std::string_view name, std::uint64_t cycle) {
  if (!enabled()) return;
  TraceEvent e;
  e.ph = 'i';
  e.ts = cycle;
  e.pid = TraceTrack::kCyclePid;
  e.tid = TraceTrack::kMainTid;
  e.name = name;
  e.cat = "cycle";
  push(std::move(e));
}

namespace {

void emit_args(std::ostringstream& os,
               const std::vector<std::pair<std::string, std::string>>& args) {
  os << "{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    os << (i ? "," : "") << json_quote(args[i].first) << ":"
       << args[i].second;
  }
  os << "}";
}

void emit_metadata(std::ostringstream& os, int pid, int tid,
                   const char* kind, const char* label) {
  os << ",\n{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
     << ",\"name\":\"" << kind << "\",\"args\":{\"name\":"
     << json_quote(label) << "}}";
}

}  // namespace

std::string Tracer::to_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  // Track naming metadata so Perfetto labels the two time domains.
  os << "{\"ph\":\"M\",\"pid\":" << TraceTrack::kWallPid
     << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":"
     << json_quote("meda-routing (wall clock, ts = us)") << "}}";
  emit_metadata(os, TraceTrack::kWallPid, TraceTrack::kMainTid,
                "thread_name", "scheduler");
  emit_metadata(os, TraceTrack::kWallPid, TraceTrack::kJobTid, "thread_name",
                "routing jobs");
  // Label every pool worker that recorded spans (campaign --jobs > 1).
  for (int tid = TraceTrack::kFirstWorkerTid; tid < next_worker_tid_; ++tid) {
    const std::string label =
        "worker-" + std::to_string(tid - TraceTrack::kFirstWorkerTid + 1);
    emit_metadata(os, TraceTrack::kWallPid, tid, "thread_name",
                  label.c_str());
  }
  os << ",\n{\"ph\":\"M\",\"pid\":" << TraceTrack::kCyclePid
     << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":"
     << json_quote("per-cycle telemetry (ts = operational cycle)") << "}}";
  os << ",\n{\"ph\":\"M\",\"pid\":" << TraceTrack::kSweepPid
     << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":"
     << json_quote("solver convergence (ts = Gauss-Seidel sweep)") << "}}";
  for (const TraceEvent& e : events_) {
    os << ",\n{\"ph\":\"" << e.ph << "\",\"ts\":" << e.ts
       << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid;
    if (!e.name.empty()) os << ",\"name\":" << json_quote(e.name);
    if (!e.cat.empty()) os << ",\"cat\":" << json_quote(e.cat);
    if (e.ph == 'X') os << ",\"dur\":" << e.dur;
    if (e.ph == 'b' || e.ph == 'e') os << ",\"id\":" << e.id;
    if (e.ph == 'i') os << ",\"s\":\"t\"";  // thread-scoped instant
    if (!e.args.empty()) {
      os << ",\"args\":";
      emit_args(os, e.args);
    }
    os << "}";
  }
  os << "\n]}\n";
  return os.str();
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  MEDA_REQUIRE(out.is_open(), "cannot open " + path + " for writing");
  out << to_json();
}

void SpanScope::arg(std::string_view key, double value) {
  if (!live_) return;
  std::ostringstream os;
  os << value;
  args_.emplace_back(std::string(key), os.str());
}

}  // namespace meda::obs
