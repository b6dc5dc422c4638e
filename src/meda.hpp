#pragma once

/// @file meda.hpp
/// Umbrella header: the public API of the meda-routing library.
///
/// Layering (see docs/architecture.md): geometry/util < chip < model <
/// assay < core < sim. Include this for application code; include the
/// individual headers for faster builds of library-internal code.

// Foundations
#include "geometry/direction.hpp"
#include "geometry/point.hpp"
#include "geometry/rect.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

// Biochip substrate (Sections III-IV)
#include "chip/biochip.hpp"
#include "chip/degradation.hpp"
#include "chip/fault_injection.hpp"
#include "chip/microelectrode.hpp"
#include "chip/scan_chain.hpp"
#include "mcell/mcell.hpp"
#include "pcb/pcb.hpp"

// Droplet/actuation model and the SMG (Section V)
#include "model/action.hpp"
#include "model/actuation.hpp"
#include "model/frontier.hpp"
#include "model/guards.hpp"
#include "model/outcomes.hpp"
#include "model/smg.hpp"

// Bioassays (Section VI-A/B)
#include "assay/benchmarks.hpp"
#include "assay/concentration.hpp"
#include "assay/helper.hpp"
#include "assay/mo.hpp"
#include "assay/parser.hpp"
#include "assay/registry.hpp"
#include "assay/summary.hpp"

// Synthesis framework (Section VI) and extensions
#include "core/biochip_io.hpp"
#include "core/library.hpp"
#include "core/mdp.hpp"
#include "core/prism_export.hpp"
#include "core/routability.hpp"
#include "core/scheduler.hpp"
#include "core/strategy.hpp"
#include "core/strategy_render.hpp"
#include "core/synthesizer.hpp"
#include "core/value_iteration.hpp"

// Simulation and experiments (Section VII)
#include "sim/adversary.hpp"
#include "sim/analysis.hpp"
#include "sim/campaign.hpp"
#include "sim/experiments.hpp"
#include "sim/report.hpp"
#include "sim/simulated_chip.hpp"
