/// \file frame_loop.hpp
/// \brief The one decision-epoch loop of run_simulation (sim/engine.cpp)
///        and run_multi_simulation (sim/multiapp.cpp), which differ only in
///        the frame and record steps they pass it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "gov/governor.hpp"
#include "hw/platform.hpp"
#include "sim/block_prefetch.hpp"
#include "wl/application.hpp"
#include "wl/frame_block.hpp"

namespace prime::sim {

/// \brief One decider: one per domain in run_simulation, all sharing its
///        governor; one per application in run_multi_simulation. As a plain
///        vector element, `last` (rewritten every epoch) read about 8% below
///        a stack-resident one in 1x4 stream frames/s; aligned, about 3%.
struct alignas(64) DecisionUnit {
  std::optional<gov::EpochObservation> last;  ///< What it decides from.
  gov::Governor* governor = nullptr;
  std::vector<std::size_t> slots;  ///< DecisionContext::slots (and cores).
  std::size_t home = 0;     ///< DecisionContext::domain.
  std::size_t request = 0;  ///< Its decision for this epoch.
};

/// \brief The shortest bounded trace among \p apps, capped at \p max_frames
///        (0: none; throws, naming \p who and \p field, if all stream).
inline std::size_t run_length(std::span<const wl::Application* const> apps,
                              std::size_t max_frames, const std::string& who,
                              const std::string& field) {
  if (max_frames == 0 &&
      std::ranges::all_of(apps, &wl::Application::streaming)) {
    throw std::invalid_argument(
        who + ": application '" + apps.back()->name() +
        "' streams an unbounded frame source and no application bounds the "
        "run; set " + field + " to the intended run length");
  }
  std::size_t frames =
      max_frames == 0 ? std::numeric_limits<std::size_t>::max() : max_frames;
  for (const wl::Application* app : apps) {
    if (!app->streaming()) frames = std::min(frames, app->frame_count());
  }
  return frames;
}

/// \brief Run every block of \p prefetch through \p board. Per frame of
///        `blocks` (one FrameBlock per application, at blocks[0]'s period):
///        `frame_step(blocks, b, mem_fraction)` returns the work row and
///        sets its memory fraction, the units decide, the board-epoch kernel
///        runs and the sensor integrates the frame, and `record_step(blocks,
///        b, epoch, period, reading)` records it.
///
/// A domain runs at the largest request among the units with a slot on it,
/// or keeps its OPP without one. Consecutive units sharing a governor charge
/// its T_OVH once. Forced inline: out of line it ran about 5% below in 1x4
/// stream-ondemand frames/s.
template <typename FrameStep, typename RecordStep>
[[gnu::always_inline]] inline void run_frame_loop(
    hw::Platform& platform, hw::BoardEpoch& board, BlockPrefetcher& prefetch,
    std::span<DecisionUnit> units, FrameStep&& frame_step,
    RecordStep&& record_step) {
  const std::size_t domains = platform.domain_count();
  std::vector<std::vector<std::size_t>> on(domains);  // Units with a slot.
  for (std::size_t u = 0; u < units.size(); ++u) {
    for (const std::size_t s : units[u].slots) {
      std::vector<std::size_t>& here = on[board.slot_domain[s]];
      if (here.empty() || here.back() != u) here.push_back(u);
    }
  }

  hw::PowerSensor& sensor = platform.power_sensor();
  gov::DecisionContext dctx;
  dctx.opps = &platform.opp_table();
  dctx.domains = domains;
  for (std::size_t k = 0; k < prefetch.blocks(); ++k) {
    const std::span<wl::FrameBlock> blocks = prefetch.acquire(k);
    const common::NormalDraw* noise = prefetch.noise(k);
    std::size_t i = blocks[0].start;
    for (std::size_t b = 0; b < blocks[0].count; ++b, ++i) {
      const common::Seconds period = blocks[0].periods[b];
      common::Cycles* const row = frame_step(blocks, b, dctx.mem_fraction);
      dctx.epoch = i;
      dctx.period = period;
      dctx.work = row;
      common::Seconds overhead = 0.0;
      for (std::size_t u = 0; u < units.size(); ++u) {
        DecisionUnit& unit = units[u];
        dctx.domain = unit.home;
        dctx.slots = unit.slots;
        dctx.cores = unit.slots.size();
        unit.request = unit.governor->decide(dctx, unit.last);
        if (u + 1 == units.size() || units[u + 1].governor != unit.governor) {
          overhead += unit.governor->epoch_overhead();
        }
      }
      for (std::size_t d = 0; d < domains; ++d) {
        if (on[d].empty()) continue;
        std::size_t request = 0;
        for (const std::size_t u : on[d]) {
          request = std::max(request, units[u].request);
        }
        platform.domain(d).set_opp(request);
      }

      platform.run_epoch_into(board, row, overhead, period, dctx.mem_fraction);
      const common::Watt reading =
          sensor.integrate(board.avg_power, board.window, noise[b]);
      record_step(blocks, b, i, period, reading);
    }
    prefetch.release(k);
  }
}

}  // namespace prime::sim
