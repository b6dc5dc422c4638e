#include "sim/report.hpp"

#include <fstream>
#include <sstream>

#include "core/recovery.hpp"
#include "util/check.hpp"

namespace meda::sim {

namespace {

/// Health-code → fill colour (b = 2 palette; higher b codes are bucketed).
const char* health_color(int code, int bits) {
  const int levels = 1 << bits;
  const double frac =
      levels > 1 ? static_cast<double>(code) / (levels - 1) : 1.0;
  if (frac >= 0.99) return "#e8f5e9";  // healthy
  if (frac >= 0.66) return "#c8e6c9";
  if (frac >= 0.33) return "#ffe082";
  if (frac > 0.0) return "#ff8a65";
  return "#b71c1c";  // dead
}

void emit_summary(std::ostringstream& os, const assay::MoList& assay,
                  const core::ExecutionStats& stats) {
  os << "<h1>" << assay.name << "</h1>\n<table class='kv'>"
     << "<tr><td>result</td><td><b>"
     << (stats.success ? "success" : "FAILED — " + stats.failure_reason)
     << "</b></td></tr>"
     << "<tr><td>operational cycles</td><td>" << stats.cycles << "</td></tr>"
     << "<tr><td>microfluidic operations</td><td>" << assay.ops.size()
     << "</td></tr>"
     << "<tr><td>synthesis calls / library hits / re-syntheses</td><td>"
     << stats.synthesis_calls << " / " << stats.library_hits << " / "
     << stats.resyntheses << "</td></tr>"
     << "<tr><td>synthesis wall time</td><td>"
     << stats.synthesis_seconds * 1e3 << " ms</td></tr>";
  if (stats.completed_mos + stats.aborted_mos > 0) {
    os << "<tr><td>MOs completed / aborted</td><td>" << stats.completed_mos
       << " / " << stats.aborted_mos << "</td></tr>";
  }
  os << "</table>\n";
}

void emit_recovery(std::ostringstream& os,
                   const core::ExecutionStats& stats) {
  if (!stats.recovery.any() && stats.events.empty()) return;
  const core::RecoveryCounters& r = stats.recovery;
  os << "<h2>Recovery ladder</h2>\n<table class='kv'>"
     << "<tr><td>watchdog fires / forced re-senses</td><td>"
     << r.watchdog_fires << " / " << r.forced_resenses << "</td></tr>"
     << "<tr><td>synthesis retries / backoff cycles</td><td>"
     << r.synthesis_retries << " / " << r.backoff_cycles << "</td></tr>"
     << "<tr><td>quarantined cells / contention detours</td><td>"
     << r.quarantined_cells << " / " << r.contention_detours << "</td></tr>"
     << "<tr><td>aborted jobs</td><td>" << r.aborted_jobs
     << "</td></tr></table>\n";
  if (!stats.events.empty()) {
    os << "<h3>Event log</h3>\n<pre style='background:#fafafa;border:1px "
          "solid #ddd;padding:8px'>"
       << obs::format_events(stats.events) << "</pre>\n";
  }
}

void emit_gantt(std::ostringstream& os, const assay::MoList& assay,
                const core::ExecutionStats& stats) {
  if (stats.mo_timings.empty()) return;
  const double width = 720.0;
  const int row_h = 18;
  const double span = static_cast<double>(
      stats.cycles > 0 ? stats.cycles : 1);
  os << "<h2>MO schedule</h2>\n<svg width='" << width + 140 << "' height='"
     << (stats.mo_timings.size() + 1) * row_h << "'>\n";
  for (std::size_t i = 0; i < stats.mo_timings.size(); ++i) {
    const core::MoTiming& t = stats.mo_timings[i];
    const int y = static_cast<int>(i) * row_h;
    os << "<text x='0' y='" << y + 13 << "' font-size='11'>M" << t.mo << ' '
       << to_string(assay.op(t.mo).type) << "</text>\n";
    if (!t.done && t.activated == 0 && t.completed == 0) continue;
    const double x0 = 80 + width * static_cast<double>(t.activated) / span;
    const std::uint64_t end = t.done ? t.completed : stats.cycles;
    const double w =
        width * static_cast<double>(end - t.activated) / span;
    os << "<rect x='" << x0 << "' y='" << y + 3 << "' width='"
       << (w < 2 ? 2 : w) << "' height='" << row_h - 6 << "' fill='"
       << (t.done ? "#1976d2" : "#b71c1c") << "' rx='2'><title>M" << t.mo
       << ": " << t.activated << " – " << end << "</title></rect>\n";
  }
  os << "</svg>\n";
}

void emit_heatmap(std::ostringstream& os, const SimulatedChip& chip) {
  const Biochip& substrate = chip.substrate();
  const IntMatrix& health = substrate.health_matrix();
  const int cell = 10;
  os << "<h2>Final health matrix (b = " << substrate.health_bits()
     << " bits)</h2>\n<svg width='" << substrate.width() * cell
     << "' height='" << substrate.height() * cell << "'>\n";
  for (int y = 0; y < substrate.height(); ++y) {
    for (int x = 0; x < substrate.width(); ++x) {
      // SVG y grows downward; chip y grows upward.
      const int sy = (substrate.height() - 1 - y) * cell;
      os << "<rect x='" << x * cell << "' y='" << sy << "' width='" << cell
         << "' height='" << cell << "' fill='"
         << health_color(health(x, y), substrate.health_bits())
         << "' stroke='#eee'><title>MC(" << x << "," << y
         << ") H=" << health(x, y)
         << " n=" << substrate.mc(x, y).actuations() << "</title></rect>\n";
    }
  }
  os << "</svg>\n";
}

void emit_trace(std::ostringstream& os, const SimulatedChip& chip) {
  const auto& trace = chip.droplet_trace();
  if (trace.empty()) return;
  const Biochip& substrate = chip.substrate();
  // Frames as JSON: [[[id, xa, ya, xb, yb], ...], ...].
  os << "<h2>Droplet trace (" << trace.size()
     << " cycles)</h2>\n<div><input type='range' id='scrub' min='0' max='"
     << trace.size() - 1
     << "' value='0' style='width:720px'> cycle <span id='cyc'>0</span>"
     << "</div>\n<svg id='anim' width='" << substrate.width() * 10
     << "' height='" << substrate.height() * 10
     << "' style='background:#fafafa;border:1px solid #ddd'></svg>\n"
     << "<script>\nconst H=" << substrate.height() << ";\nconst frames=[";
  for (std::size_t f = 0; f < trace.size(); ++f) {
    os << (f ? "," : "") << '[';
    for (std::size_t d = 0; d < trace[f].size(); ++d) {
      const auto& [id, pos] = trace[f][d];
      os << (d ? "," : "") << '[' << id << ',' << pos.xa << ',' << pos.ya
         << ',' << pos.xb << ',' << pos.yb << ']';
    }
    os << ']';
  }
  os << R"(];
const colors=['#1976d2','#388e3c','#f57c00','#7b1fa2','#c2185b','#00838f'];
const svg=document.getElementById('anim');
function draw(f){
  svg.innerHTML='';
  document.getElementById('cyc').textContent=f;
  for(const [id,xa,ya,xb,yb] of frames[f]){
    const r=document.createElementNS('http://www.w3.org/2000/svg','rect');
    r.setAttribute('x',xa*10);
    r.setAttribute('y',(H-1-yb)*10);
    r.setAttribute('width',(xb-xa+1)*10);
    r.setAttribute('height',(yb-ya+1)*10);
    r.setAttribute('fill',colors[id%colors.length]);
    r.setAttribute('rx',3);
    svg.appendChild(r);
  }
}
document.getElementById('scrub').addEventListener('input',
  e=>draw(+e.target.value));
draw(0);
</script>
)";
}

}  // namespace

std::string render_html_report(const assay::MoList& assay,
                               const core::ExecutionStats& stats,
                               const SimulatedChip& chip) {
  std::ostringstream os;
  os << "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>\n<title>"
     << assay.name
     << " — meda-routing report</title>\n<style>body{font-family:sans-serif;"
        "margin:24px;max-width:960px}table.kv td{padding:2px 10px 2px 0}"
        "h2{margin-top:28px}</style>\n</head><body>\n";
  emit_summary(os, assay, stats);
  emit_recovery(os, stats);
  emit_gantt(os, assay, stats);
  emit_heatmap(os, chip);
  emit_trace(os, chip);
  os << "<p style='color:#888'>generated by meda-routing "
        "(DATE 2021 reproduction)</p>\n</body></html>\n";
  return os.str();
}

void write_html_report(const std::string& path, const assay::MoList& assay,
                       const core::ExecutionStats& stats,
                       const SimulatedChip& chip) {
  std::ofstream out(path);
  MEDA_REQUIRE(out.is_open(), "cannot open " + path + " for writing");
  out << render_html_report(assay, stats, chip);
}

}  // namespace meda::sim
