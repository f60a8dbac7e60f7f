/**
 * @file
 * Workload "sweep": the cold figure sweep. All 15 SPEC stand-ins x 6
 * configs through bench::SweepRunner::run() with the cache off, one
 * worker thread and one fixed per-job instruction budget, repeated for
 * the measured interval. Every simulated statistic is compared with the
 * pinned expectation (sweep-cache format, bench::compareToGolden).
 */

#include <cstdio>
#include <filesystem>
#include <set>

#include "bench/golden.hpp"
#include "bench/sweep_runner.hpp"
#include "probes.hpp"
#include "workloads.hpp"
#include "workloads/generator.hpp"

namespace perfbench
{

using namespace rev;

namespace
{

/** Per-job instruction budget: table building and simulation each take
 *  a large share of a cold sweep at this length. */
constexpr u64 kSweepBudget = 500'000;

bench::SweepOptions
sweepOptions(const Options &opts)
{
    bench::SweepOptions o;
    o.instrBudget = kSweepBudget;
    o.threads = 1;
    o.useCache = false;
    o.progress = false;
    if (opts.smoke)
        o.benchmarks = {"bzip2"};
    return o;
}

std::string
expectPath(const Options &opts)
{
    return opts.expectDir + "/sweep_500k.txt";
}

/** Compare @p sweep with the pinned statistics; count failed jobs. */
void
checkSweep(const bench::Sweep &sweep, const bench::SweepOptions &o,
           const Options &opts, Report &report)
{
    const u64 jobs = sweep.runs.size();
    report.attempt(jobs);
    std::set<std::pair<std::string, bench::Config>> bad;
    for (const bench::GoldenDiff &d : bench::compareToGolden(sweep, o, expectPath(opts))) {
        if (d.bench.empty()) { // the expectation itself is unusable
            report.fail(jobs, d.detail);
            return;
        }
        if (bad.insert({d.bench, d.config}).second)
            report.fail(1, "sweep " + d.bench + "/" +
                               bench::configName(d.config) + ": " + d.detail);
    }
    for (const auto &[key, run] : sweep.runs)
        if (run.violations && !bad.count(key))
            report.fail(1, "sweep " + key.first + "/" +
                               bench::configName(key.second) +
                               ": unexpected violation");
}

/** Mean over the stand-ins of Full32 / Base cycles - 1, in percent. */
double
revOverheadPct(const bench::Sweep &sweep)
{
    double sum = 0;
    for (const std::string &b : sweep.benchmarks)
        sum += static_cast<double>(sweep.at(b, bench::Config::Full32).cycles) /
                   static_cast<double>(sweep.at(b, bench::Config::Base).cycles) -
               1.0;
    return 100.0 * sum / static_cast<double>(sweep.benchmarks.size());
}

struct SweepRep
{
    bench::Sweep sweep;
    double wall = 0;
    double setup = 0;
    double jobSeconds = 0;
    double instrs = 0;
    double replayedRatio = 0;
    std::vector<double> jobLatencies;
};

SweepRep
runOnce(const bench::SweepOptions &o)
{
    SweepRep rep;
    bench::SweepRunner runner(o);
    const auto t0 = Clock::now();
    rep.sweep = runner.run();
    rep.wall = secondsSince(t0);
    const bench::SweepPhaseTimings &ph = runner.phaseTimings();
    rep.setup = ph.generateSeconds + ph.protoSeconds + ph.imageSeconds;
    double replayed = 0;
    for (const bench::JobTiming &jt : runner.timings()) {
        rep.jobSeconds += jt.wallSeconds;
        rep.jobLatencies.push_back(jt.wallSeconds);
        replayed += jt.replayed;
    }
    for (const auto &[key, run] : rep.sweep.runs)
        rep.instrs += static_cast<double>(run.instrs);
    // Every stand-in records once; the other jobs are replay candidates.
    const double candidates = static_cast<double>(
        rep.sweep.runs.size() - rep.sweep.benchmarks.size());
    rep.replayedRatio = candidates > 0 ? replayed / candidates : 0;
    return rep;
}

void
printOverhead(double pct)
{
    std::printf("rev_overhead_pct %.4f %% at %llu instructions per job "
                "(paper: %.2f %% at 2 B; gap %+.2f pp; the timing model is "
                "not validated at this run length)\n",
                pct, static_cast<unsigned long long>(kSweepBudget),
                kPaperOverheadPct, pct - kPaperOverheadPct);
}

void
traced(const Options &opts, Report &report)
{
    const bench::SweepOptions o = sweepOptions(opts);
    Tracer tracer(true, fnv1a("sweep", opts.seed));

    const SweepRep untraced = runOnce(o);
    SweepRep rep;
    {
        auto s = tracer.span("bench.SweepRunner.run");
        rep = runOnce(o);
    }
    checkSweep(rep.sweep, o, opts, report);

    ProbeConfigs cfgs;
    cfgs.rev = bench::sweepSimConfig(bench::Config::Full32, kSweepBudget);
    cfgs.base = bench::sweepSimConfig(bench::Config::Base, kSweepBudget);
    cfgs.tableModes = {sig::ValidationMode::Full,
                       sig::ValidationMode::Aggressive,
                       sig::ValidationMode::CfiOnly};
    std::vector<workloads::WorkloadProfile> profiles;
    for (const auto &p : workloads::spec2006Profiles())
        for (const std::string &b : rep.sweep.benchmarks)
            if (p.name == b)
                profiles.push_back(p);
    const LayerTotals totals = probeLayers(tracer, profiles, cfgs);

    reportLayerProbes(tracer, totals, report);
    report.metric("bench.replayed_ratio", rep.replayedRatio, "1");
    report.metric("bench.trace_overhead_s",
                  tracer.total("bench.SweepRunner.run") - untraced.wall, "s");
    if (!opts.spansPath.empty())
        tracer.writeJson(opts.spansPath);
}

} // namespace

void
sweepWorkload(const Options &opts, Report &report)
{
    if (opts.trace)
        return traced(opts, report);

    bench::SweepOptions o = sweepOptions(opts);
    if (opts.describeInputs) {
        std::printf("sweep inputs are the fixed stand-in profiles; the seed "
                    "does not change them\n");
        return;
    }
    if (opts.writeExpect) {
        std::filesystem::remove(expectPath(opts));
        o.useCache = true;
        o.cachePath = expectPath(opts);
        runOnce(o);
        std::printf("wrote %s\n", expectPath(opts).c_str());
        return;
    }

    std::vector<double> walls, setups, rates, p50s, p99s;
    std::size_t jobs = 0;
    double overhead = 0;
    const auto t0 = Clock::now();
    do {
        SweepRep rep = runOnce(o);
        checkSweep(rep.sweep, o, opts, report);
        walls.push_back(rep.wall);
        setups.push_back(rep.setup);
        rates.push_back(rep.instrs / rep.jobSeconds);
        jobs = rep.jobLatencies.size();
        p50s.push_back(quantile(rep.jobLatencies, 0.50));
        p99s.push_back(quantile(rep.jobLatencies, 0.99));
        overhead = revOverheadPct(rep.sweep);
        std::fprintf(stderr, "[perfbench] sweep rep %zu: wall %.3f s, setup %.3f s\n",
                     walls.size(), rep.wall, rep.setup);
    } while (secondsSince(t0) < opts.seconds);

    std::printf("sweep: %zu cold sweeps of %zu jobs; job latency quantiles "
                "are medians over the sweeps\n",
                walls.size(), jobs);
    printOverhead(overhead);
    std::printf("sim_mips %.4f MIPS\n", median(rates) / 1e6);
    report.metric("setup_s", median(setups), "s");
    report.metric("wall_s", median(walls), "s");
    report.metric("ops_per_s", median(rates), "1/s");
    report.metric("latency_p50_s", median(p50s), "s");
    report.metric("latency_p99_s", median(p99s), "s");
    report.metric("rev_overhead_pct", overhead, "%");
}

} // namespace perfbench
