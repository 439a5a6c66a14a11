/**
 * @file
 * Per-layer replay drivers for the traced run. Each driver feeds one
 * simulator layer, through its public API, the workload's own uop and
 * address stream (SyntheticProgram::next) and reports host time per
 * operation plus the layer's own useful-outcome ratio. See METRICS.md
 * for the metric list and which end-to-end metric each should move.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <string>

#include "ledger.hh"
#include "sim/config.hh"

namespace perfbench
{

/** How much of the workload's stream the drivers replay. */
struct LayerBudget
{
    std::uint64_t stream_uops;  ///< uops drawn from core 0's generator
    std::uint64_t core_uops;    ///< uops the Core driver retires
    std::uint64_t dram_reqs;    ///< off-chip misses sent to DRAM
};

/**
 * Run every layer driver for the workload whose cores all run
 * @p profile under @p cfg (seed, cache, DRAM and EMC parameters).
 * Spans go to @p ledger; per-layer numbers come back in the Record.
 */
Record replayLayers(const emc::SystemConfig &cfg, const std::string &profile,
                    const LayerBudget &budget, Ledger &ledger);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
