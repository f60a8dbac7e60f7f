/**
 * @file
 * Workload "campaign": a seeded red-team campaign (CampaignSpec.seed =
 * the benchmark seed) over the default workload x mode x timing x class
 * axes, 20k instructions per run, one worker thread, snapshot forking at
 * its default. Campaign::run() is repeated for the measured interval.
 *
 * Per-injection latency comes from one plan-by-plan pass that follows
 * Campaign::run()'s own snapshot schedule through the public oracle
 * calls; its verdict totals must equal run()'s. The traced run records
 * spans around every call of that pass.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <tuple>

#include "probes.hpp"
#include "redteam/campaign.hpp"
#include "workloads.hpp"

namespace perfbench
{

using namespace rev;

namespace
{

constexpr u64 kInjections = 3000;
constexpr u64 kBudget = 20'000;
/** The seed whose detection matrix is pinned in the expectation dir. */
constexpr u64 kPinnedSeed = 1;

redteam::CampaignSpec
campaignSpec(const Options &opts)
{
    redteam::CampaignSpec spec;
    spec.seed = opts.seed;
    spec.injections = opts.smoke ? 200 : kInjections;
    spec.instrBudget = kBudget;
    spec.threads = 1;
    return spec;
}

std::string
expectPath(const Options &opts)
{
    return opts.expectDir + "/campaign_seed1.json";
}

/** Fold one verdict into @p cell exactly as Campaign::run() does. */
void
tally(redteam::CellStats &cell, const redteam::InjectionResult &r)
{
    ++cell.injections;
    if (!r.fired)
        ++cell.unfired;
    switch (r.verdict) {
      case redteam::Verdict::Detected:
        ++cell.detected;
        cell.latencySum += r.latencyCycles;
        cell.offMechanism += !r.mechanismMatch;
        break;
      case redteam::Verdict::Crashed: ++cell.crashed; break;
      case redteam::Verdict::Benign: ++cell.benign; break;
      case redteam::Verdict::Blind: ++cell.blind; break;
      case redteam::Verdict::Escape: ++cell.escapes; break;
    }
}

bool
sameTotals(const redteam::CellStats &a, const redteam::CellStats &b)
{
    return a.injections == b.injections && a.detected == b.detected &&
           a.crashed == b.crashed && a.benign == b.benign &&
           a.blind == b.blind && a.escapes == b.escapes &&
           a.unfired == b.unfired && a.offMechanism == b.offMechanism &&
           a.latencySum == b.latencySum;
}

struct PassStats
{
    std::vector<double> planSeconds;
    double seconds = 0;
    u64 proofs = 0;
    redteam::CellStats total;
};

/**
 * Run every plan one by one on Campaign::run()'s snapshot schedule: one
 * source simulator per (workload, mode, timing) advancing through its
 * plans in fire order, each injection forked from a snapshot at its fire
 * point, provably benign plans settled without running.
 */
PassStats
planByPlan(const redteam::Campaign &campaign,
           const std::vector<redteam::InjectionPlan> &plans, Tracer &tracer)
{
    using Key = std::tuple<std::string, sig::ValidationMode, std::string>;
    std::map<Key, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < plans.size(); ++i)
        groups[{plans[i].workload, plans[i].mode, plans[i].timing}].push_back(i);

    PassStats out;
    const redteam::CampaignSpec &spec = campaign.spec();
    const auto t0 = Clock::now();
    for (auto &[key, idx] : groups) {
        std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
            return std::tie(plans[a].fireIndex, plans[a].id) <
                   std::tie(plans[b].fireIndex, plans[b].id);
        });
        const redteam::WorkloadContext &ctx =
            campaign.context(std::get<0>(key));
        const redteam::TimingVariant *timing = nullptr;
        for (const redteam::TimingVariant &t : campaign.timings())
            if (t.name == std::get<2>(key))
                timing = &t;
        core::SimConfig cfg =
            redteam::campaignSimConfig(spec, std::get<1>(key), *timing);
        cfg.sigStorePrototype = ctx.protos.at(std::get<1>(key)).get();
        core::Simulator source(ctx.program, cfg);
        std::optional<core::Snapshot> snap;
        bool exhausted = false;

        for (std::size_t i : idx) {
            const redteam::InjectionPlan &plan = plans[i];
            auto planSpan = tracer.span("redteam.plan");
            std::optional<redteam::InjectionResult> r;
            {
                auto s = tracer.span("redteam.provablyBenignResult");
                r = redteam::provablyBenignResult(ctx, spec, plan);
            }
            if (r) {
                ++out.proofs;
            } else {
                if (!exhausted && (!snap || snap->instrIndex != plan.fireIndex)) {
                    bool reached = false;
                    {
                        auto s = tracer.span("core.Simulator.runUntil");
                        reached = source.runUntil(plan.fireIndex);
                    }
                    if (reached) {
                        auto s = tracer.span("core.Simulator.capture");
                        snap = source.capture();
                    } else {
                        exhausted = true;
                    }
                    if (reached && tracer.enabled()) {
                        // Probe only: what one fork at this point costs.
                        std::unique_ptr<core::Simulator> fork;
                        auto s = tracer.span("core.Simulator.forkFrom");
                        fork = core::Simulator::forkFrom(*snap);
                    }
                }
                if (exhausted || !snap || snap->instrIndex != plan.fireIndex) {
                    auto s = tracer.span("redteam.runInjection");
                    r = redteam::runInjection(ctx, spec, plan, *timing);
                } else {
                    auto s = tracer.span("redteam.runInjectionFromSnapshot");
                    r = redteam::runInjectionFromSnapshot(ctx, spec, plan,
                                                          *timing, *snap);
                }
            }
            tally(out.total, *r);
            out.planSeconds.push_back(planSpan.elapsed());
        }
    }
    out.seconds = secondsSince(t0);
    return out;
}

/** Simulated Full-mode overhead over base, mean over the workloads. */
double
revOverheadPct(const redteam::Campaign &campaign)
{
    const redteam::CampaignSpec &spec = campaign.spec();
    double sum = 0;
    unsigned n = 0;
    for (const auto &profile : redteam::campaignWorkloads()) {
        const redteam::WorkloadContext &ctx = campaign.context(profile.name);
        core::SimConfig rc = redteam::campaignSimConfig(
            spec, sig::ValidationMode::Full, campaign.timings().front());
        rc.sigStorePrototype = ctx.protos.at(sig::ValidationMode::Full).get();
        core::SimConfig bc = rc;
        bc.withRev = false;
        bc.sigStorePrototype = nullptr;
        core::Simulator rs(ctx.program, rc), bs(ctx.program, bc);
        sum += overheadPct(rs.run(), bs.run());
        ++n;
    }
    return sum / n;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return is ? os.str() : std::string();
}

/** Matrix checks of one Campaign::run(); failures count every plan. */
void
checkMatrix(const redteam::DetectionMatrix &m, std::size_t plans,
            const Options &opts, Report &report)
{
    report.attempt(plans);
    if (!m.coversAllCells())
        return report.fail(plans, "campaign: a (class, mode) cell got no injection");
    if (m.total.injections != plans)
        return report.fail(plans, "campaign: matrix total differs from the plan count");
    if (opts.seed == kPinnedSeed && !opts.smoke &&
        redteam::matrixToJson(m) != readFile(expectPath(opts)))
        report.fail(plans, "campaign: detection matrix differs from " +
                               expectPath(opts));
}

struct Setup
{
    std::unique_ptr<redteam::Campaign> campaign;
    std::vector<redteam::InjectionPlan> plans;
    double context = 0;
    double planGen = 0;
};

Setup
setUp(const Options &opts, Tracer &tracer)
{
    Setup s;
    const auto t0 = Clock::now();
    {
        auto sp = tracer.span("redteam.Campaign");
        s.campaign = std::make_unique<redteam::Campaign>(campaignSpec(opts));
    }
    s.context = secondsSince(t0);
    {
        auto sp = tracer.span("redteam.generatePlans");
        s.plans = s.campaign->generatePlans();
    }
    s.planGen = secondsSince(t0) - s.context;
    return s;
}

void
traced(const Options &opts, Report &report)
{
    Tracer tracer(true, fnv1a("campaign", opts.seed));
    Setup s = setUp(opts, tracer);

    const auto t0 = Clock::now();
    const redteam::DetectionMatrix m = s.campaign->run();
    const double untraced = secondsSince(t0);
    checkMatrix(m, s.plans.size(), opts, report);

    PassStats pass;
    {
        auto sp = tracer.span("bench.planByPlan");
        pass = planByPlan(*s.campaign, s.plans, tracer);
    }
    if (!sameTotals(pass.total, m.total))
        report.fail(s.plans.size(), "campaign: plan-by-plan verdicts differ from Campaign::run()");

    ProbeConfigs cfgs;
    cfgs.rev = redteam::campaignSimConfig(s.campaign->spec(),
                                          sig::ValidationMode::Full,
                                          s.campaign->timings().front());
    cfgs.base = cfgs.rev;
    cfgs.base.withRev = false;
    cfgs.tableModes = s.campaign->modes();
    const LayerTotals totals =
        probeLayers(tracer, redteam::campaignWorkloads(), cfgs);
    reportLayerProbes(tracer, totals, report);

    std::vector<double> injectMs;
    for (double d : tracer.durations("redteam.runInjectionFromSnapshot"))
        injectMs.push_back(d * 1e3);
    const redteam::CellStats &t = m.total;
    report.metric("bench.trace_overhead_s",
                  tracer.total("bench.planByPlan") - untraced, "s");
    report.metric("redteam.context_s", tracer.total("redteam.Campaign"), "s");
    report.metric("redteam.plan_gen_s", tracer.total("redteam.generatePlans"), "s");
    report.metric("redteam.benign_proof_ratio",
                  static_cast<double>(pass.proofs) / s.plans.size(), "1");
    report.metric("core.snapshot_capture_us",
                  median(tracer.durations("core.Simulator.capture")) * 1e6, "us");
    report.metric("core.snapshot_fork_us",
                  median(tracer.durations("core.Simulator.forkFrom")) * 1e6, "us");
    report.metric("redteam.inject_ms.p50", quantile(injectMs, 0.50), "ms");
    report.metric("redteam.inject_ms.p99", quantile(injectMs, 0.99), "ms");
    report.metric("redteam.detected", t.detected, "count");
    report.metric("redteam.crashed", t.crashed, "count");
    report.metric("redteam.benign", t.benign, "count");
    report.metric("redteam.blind", t.blind, "count");
    report.metric("redteam.escapes", t.escapes, "count");
    report.metric("redteam.unfired", t.unfired, "count");
    report.metric("redteam.off_mechanism", t.offMechanism, "count");
    report.metric("redteam.detect_latency_cycles",
                  t.detected ? static_cast<double>(t.latencySum) / t.detected : 0,
                  "cycles");
    if (!opts.spansPath.empty())
        tracer.writeJson(opts.spansPath);
}

} // namespace

void
campaignWorkload(const Options &opts, Report &report)
{
    if (opts.trace)
        return traced(opts, report);

    Tracer off(false, 0);
    if (opts.describeInputs || opts.writeExpect) {
        Setup s = setUp(opts, off);
        if (opts.writeExpect) {
            std::ofstream(expectPath(opts)) << redteam::matrixToJson(s.campaign->run());
            std::printf("wrote %s\n", expectPath(opts).c_str());
            return;
        }
        u64 h = fnv1a("plans");
        for (const redteam::InjectionPlan &p : s.plans)
            h = fnv1a(redteam::planToJson(p), h);
        std::printf("campaign plans %zu fingerprint %016llx\n", s.plans.size(),
                    static_cast<unsigned long long>(h));
        return;
    }

    // Set-up is measured several times; the last campaign is kept.
    std::vector<double> setups;
    Setup s;
    for (int i = 0; i < (opts.smoke ? 1 : 5); ++i) {
        s = setUp(opts, off);
        setups.push_back(s.context + s.planGen);
    }

    // Each round: one Campaign::run(), then the plan-by-plan pass that
    // times every injection and must reproduce run()'s verdict totals.
    std::vector<double> walls, p50s, p99s;
    redteam::DetectionMatrix m;
    const auto t0 = Clock::now();
    do {
        const auto t = Clock::now();
        m = s.campaign->run();
        walls.push_back(secondsSince(t));
        checkMatrix(m, s.plans.size(), opts, report);

        const PassStats pass = planByPlan(*s.campaign, s.plans, off);
        p50s.push_back(quantile(pass.planSeconds, 0.50));
        p99s.push_back(quantile(pass.planSeconds, 0.99));
        report.attempt(s.plans.size());
        if (!sameTotals(pass.total, m.total))
            report.fail(s.plans.size(), "campaign: plan-by-plan verdicts differ from Campaign::run()");
        std::fprintf(stderr, "[perfbench] campaign round %zu: run() %.3f s, pass %.3f s\n",
                     walls.size(), walls.back(), pass.seconds);
    } while (secondsSince(t0) < opts.seconds);

    const double overhead = revOverheadPct(*s.campaign);
    std::printf("campaign: %zu plans, %zu rounds, %llu escapes; injection "
                "latency quantiles are medians over the rounds' passes\n",
                s.plans.size(), walls.size(),
                static_cast<unsigned long long>(m.total.escapes));
    std::printf("injections_per_s %.4f 1/s\n", s.plans.size() / median(walls));
    report.metric("setup_s", median(setups), "s");
    report.metric("wall_s", median(walls), "s");
    report.metric("ops_per_s", s.plans.size() / median(walls), "1/s");
    report.metric("latency_p50_s", median(p50s), "s");
    report.metric("latency_p99_s", median(p99s), "s");
    report.metric("rev_overhead_pct", overhead, "%");
}

} // namespace perfbench
