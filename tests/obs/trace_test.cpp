#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/events.hpp"
#include "json_lint.hpp"

namespace meda::obs {
namespace {

using meda::testing::JsonLint;

TEST(Stopwatch, TotalAndLapAreMonotonic) {
  Stopwatch watch;
  const double a = watch.total_seconds();
  const double lap = watch.lap_seconds();
  const double b = watch.total_seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(lap, 0.0);
  EXPECT_GE(b, a);
}

TEST(JsonQuote, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_quote("a\nb"), "\"a\\nb\"");
  EXPECT_TRUE(JsonLint::valid(json_quote(std::string("\x01\x1f tab\t"))));
}

TEST(JsonQuote, EscapesEveryControlCharacter) {
  for (int c = 0x00; c < 0x20; ++c) {
    const std::string quoted = json_quote(std::string(1, static_cast<char>(c)));
    EXPECT_TRUE(JsonLint::valid(quoted)) << "control byte " << c;
    // The raw control byte must not survive into the output.
    EXPECT_EQ(quoted.find(static_cast<char>(c)), std::string::npos) << c;
  }
  EXPECT_EQ(json_quote(std::string(1, '\x01')), "\"\\u0001\"");
  EXPECT_EQ(json_quote(std::string(1, '\x1f')), "\"\\u001f\"");
}

TEST(JsonQuote, PassesThroughValidUtf8) {
  // 2-, 3-, and 4-byte sequences: µ, →, and a droplet emoji.
  EXPECT_EQ(json_quote("5\xC2\xB5m"), "\"5\xC2\xB5m\"");
  EXPECT_EQ(json_quote("a\xE2\x86\x92" "b"), "\"a\xE2\x86\x92" "b\"");
  EXPECT_EQ(json_quote("\xF0\x9F\x92\xA7"), "\"\xF0\x9F\x92\xA7\"");
  EXPECT_TRUE(JsonLint::valid(json_quote("mix \xC2\xB5 \xE2\x86\x92 end")));
}

TEST(JsonQuote, ReplacesInvalidUtf8WithReplacementEscape) {
  // Each malformed byte becomes the escaped replacement character so the
  // emitted trace is always valid JSON regardless of what landed in a name.
  EXPECT_EQ(json_quote("a\xFF"), "\"a\\ufffd\"");           // lone invalid byte
  EXPECT_EQ(json_quote("\x80x"), "\"\\ufffdx\"");           // bare continuation
  EXPECT_EQ(json_quote("\xC0\xAF"), "\"\\ufffd\\ufffd\"");  // overlong 2-byte
  EXPECT_EQ(json_quote("\xED\xA0\x80"),                     // UTF-16 surrogate
            "\"\\ufffd\\ufffd\\ufffd\"");
  EXPECT_EQ(json_quote("a\xE2\x86"), "\"a\\ufffd\\ufffd\"");  // truncated 3-byte
  EXPECT_EQ(json_quote("\xF5\x80\x80\x80"),  // above U+10FFFF
            "\"\\ufffd\\ufffd\\ufffd\\ufffd\"");
  for (const char* bad : {"a\xFF", "\xC0\xAF", "\xED\xA0\x80", "a\xE2\x86"})
    EXPECT_TRUE(JsonLint::valid(json_quote(bad))) << bad;
}

TEST(JsonLint, RejectsRawInvalidUtf8InsideStrings) {
  // The lint itself must catch what json_quote guards against; otherwise the
  // escaping tests above prove nothing.
  EXPECT_TRUE(JsonLint::valid("\"5\xC2\xB5m\""));
  EXPECT_FALSE(JsonLint::valid("\"a\xFF\""));
  EXPECT_FALSE(JsonLint::valid("\"\xC0\xAF\""));
  EXPECT_FALSE(JsonLint::valid("\"\xED\xA0\x80\""));
  EXPECT_FALSE(JsonLint::valid("\"a\xE2\x86\""));
}

TEST(Tracer, NullSinkUntilEnabled) {
  Tracer tracer;
  tracer.begin("cat", "span");
  tracer.end();
  tracer.instant("cat", "marker");
  tracer.cycle_counter("droplets", 3, 17);
  EXPECT_EQ(tracer.event_count(), 0u);
  tracer.enable();
  tracer.instant("cat", "marker");
  EXPECT_EQ(tracer.event_count(), 1u);
  tracer.disable();
  tracer.instant("cat", "marker");
  EXPECT_EQ(tracer.event_count(), 1u);
}

TEST(Tracer, SpansNestAndBalance) {
  Tracer tracer;
  tracer.enable();
  {
    SpanScope outer(tracer, "sched", "execute");
    {
      SpanScope inner(tracer, "synth", "synthesize");
      inner.arg("states", std::int64_t{42});
    }
  }
  const auto& events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].ph, 'B');
  EXPECT_EQ(events[0].name, "execute");
  EXPECT_EQ(events[1].ph, 'B');
  EXPECT_EQ(events[1].name, "synthesize");
  EXPECT_EQ(events[2].ph, 'E');  // inner closes first (proper nesting)
  EXPECT_EQ(events[3].ph, 'E');
  // Timestamps are monotone within the track.
  EXPECT_LE(events[0].ts, events[1].ts);
  EXPECT_LE(events[1].ts, events[2].ts);
  EXPECT_LE(events[2].ts, events[3].ts);
  // The inner span's args rode along on its closing event.
  ASSERT_EQ(events[2].args.size(), 1u);
  EXPECT_EQ(events[2].args[0].first, "states");
  EXPECT_EQ(events[2].args[0].second, "42");
}

TEST(Tracer, AsyncSpansCarryPairingIds) {
  Tracer tracer;
  tracer.enable();
  tracer.async_begin("job", "MO 1 route", 7);
  tracer.async_end("job", "MO 1 route", 7, {{"outcome", "\"arrived\""}});
  const auto& events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ph, 'b');
  EXPECT_EQ(events[1].ph, 'e');
  EXPECT_EQ(events[0].id, 7u);
  EXPECT_EQ(events[1].id, 7u);
  EXPECT_EQ(events[0].tid, TraceTrack::kJobTid);
}

TEST(Tracer, CycleDomainEventsLandOnTheCyclePid) {
  Tracer tracer;
  tracer.enable();
  tracer.cycle_counter("droplets_on_chip", 4, 123);
  tracer.cycle_instant("health-change", 124);
  const auto& events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ph, 'C');
  EXPECT_EQ(events[0].pid, TraceTrack::kCyclePid);
  EXPECT_EQ(events[0].ts, 123u);  // ts IS the operational cycle
  EXPECT_EQ(events[1].ph, 'i');
  EXPECT_EQ(events[1].ts, 124u);
}

TEST(Tracer, SweepCountersLandOnTheSweepPid) {
  Tracer tracer;
  tracer.enable();
  tracer.sweep_counter("vi.residual.pmax", 0.125, 3);
  const auto& events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ph, 'C');
  EXPECT_EQ(events[0].pid, TraceTrack::kSweepPid);
  EXPECT_EQ(events[0].ts, 3u);  // ts IS the Gauss-Seidel sweep index
  EXPECT_EQ(events[0].cat, "sweep");
  // The sweep domain is named in the exported metadata.
  const std::string json = tracer.to_json();
  EXPECT_TRUE(JsonLint::valid(json)) << json;
  EXPECT_NE(json.find("solver convergence"), std::string::npos);
}

TEST(Tracer, ExportsSyntacticallyValidChromeTraceJson) {
  Tracer tracer;
  tracer.enable();
  {
    SpanScope span(tracer, "sched", "execute");
    span.arg("label", "quote\"me\n");
    span.arg("ratio", 0.25);
    tracer.instant("event", "watchdog-resense", "stuck at (3,4)");
  }
  tracer.async_begin("job", "MO 0 route", 1);
  tracer.async_end("job", "MO 0 route", 1);
  tracer.cycle_counter("droplets_on_chip", 2, 9);
  const std::string json = tracer.to_json();
  EXPECT_TRUE(JsonLint::valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // Metadata names both time domains for the trace viewer.
  EXPECT_NE(json.find("process_name"), std::string::npos);
}

TEST(Tracer, WriteJsonRoundTripsThroughAFile) {
  Tracer tracer;
  tracer.enable();
  tracer.instant("cat", "marker");
  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  tracer.write_json(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(JsonLint::valid(buffer.str()));
  EXPECT_EQ(buffer.str(), tracer.to_json());
  std::remove(path.c_str());
}

TEST(Tracer, ClearDropsEventsButKeepsEnabledFlag) {
  Tracer tracer;
  tracer.enable();
  tracer.instant("cat", "marker");
  tracer.clear();
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_TRUE(tracer.enabled());
}

TEST(Events, FormatAndJson) {
  const std::vector<Event> events = {
      {412, "recovery", "quarantine", 3, "5 cell(s) blocking (7,8)"},
      {500, "stall", "blocked-by-droplet", -1, ""},
      {640, "recovery", "quarantine", -1, "2 suspect cell(s)"},
  };
  // One line per event; execution-wide events (scope -1) carry no MO tag.
  EXPECT_EQ(format_events(events),
            "cycle 412 [recovery/quarantine] MO 3: 5 cell(s) blocking (7,8)\n"
            "cycle 500 [stall/blocked-by-droplet]\n"
            "cycle 640 [recovery/quarantine]: 2 suspect cell(s)\n");
  EXPECT_TRUE(JsonLint::valid(events_json(events)));
}

}  // namespace
}  // namespace meda::obs
