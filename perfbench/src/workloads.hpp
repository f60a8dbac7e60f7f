/**
 * @file
 * The benchmark's three workloads. Each drives one subsystem through its
 * public entry points, checks the outputs into the report, and prints
 * either the end-to-end metrics or, in a traced run, the per-layer ones.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include "report.hpp"

namespace perfbench
{

/** The cold figure sweep through bench::SweepRunner. */
void sweepWorkload(const Options &opts, Report &report);

/** A seeded red-team campaign through redteam::Campaign. */
void campaignWorkload(const Options &opts, Report &report);

/** The attestation verifier: closed-loop capacity, open-loop latency. */
void verifierWorkload(const Options &opts, Report &report);

/** Paper figure for the Full/32 KB validation overhead (Sec. VI). */
inline constexpr double kPaperOverheadPct = 1.87;

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
