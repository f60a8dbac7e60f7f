/**
 * @file
 * Layer probes of traced runs: time the public calls into each simulator
 * layer on a workload's own programs, and sum the simulated counters.
 *
 * Every workload feeds its own programs and configurations here, so the
 * common layers (generation, CFG, tables, hashing, the timing core, the
 * validation backend) are measured on the inputs that workload drives.
 */

#ifndef PERFBENCH_PROBES_HPP
#define PERFBENCH_PROBES_HPP

#include <vector>

#include "core/simulator.hpp"
#include "report.hpp"
#include "workloads/profile.hpp"

namespace perfbench
{

/** The configurations the probes run a workload's programs under. */
struct ProbeConfigs
{
    rev::core::SimConfig rev;  ///< validated run: record, replay, direct
    rev::core::SimConfig base; ///< the same run without validation
    /** Table builds per program, in order; the first pays the CFG
     *  derivation and block hashing, the rest reuse it as donor. */
    std::vector<rev::sig::ValidationMode> tableModes;
};

/** Sums over the probed programs. */
struct LayerTotals
{
    unsigned programs = 0;
    double hashBytes = 0;
    double tableBytes = 0;
    double ipcBaseSum = 0;
    double overheadPctSum = 0; ///< (rev cycles / base cycles - 1) x 100
    double mispredicts = 0;
    double l1iMisses = 0;
    double l1dMisses = 0;
    double l2Misses = 0;
    double scFillAccesses = 0;
    double scFillL2Misses = 0;
    double scCompleteMisses = 0;
    double scPartialMisses = 0;
    double scProbes = 0;
    double scHits = 0;
    double commitStallCycles = 0;
};

/** Run every layer probe over @p profiles, recording spans in @p tracer. */
LayerTotals probeLayers(Tracer &tracer,
                        const std::vector<rev::workloads::WorkloadProfile> &profiles,
                        const ProbeConfigs &cfgs);

/** Print the common per-layer metrics derived from the probe spans. */
void reportLayerProbes(const Tracer &tracer, const LayerTotals &totals,
                       Report &report);

/** Simulated REV overhead of one program: (rev / base cycles - 1) x 100. */
double overheadPct(const rev::core::SimResult &rev,
                   const rev::core::SimResult &base);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HPP
