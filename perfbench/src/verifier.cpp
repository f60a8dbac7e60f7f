/**
 * @file
 * Workload "verifier": the attestation service. Set-up captures a corpus
 * of measurement streams (four stand-ins x {rev, lofat}) with their
 * inline goldens, builds the RefStores and starts a VerifierService.
 * Then:
 *
 *  - capacity: closed loop through verifier::runLoadGen (fixed window,
 *    one prover thread, two workers), repeated for the measured interval;
 *  - latency: an open loop over openSession/offer/closeSession. Sessions
 *    arrive on a seeded Poisson schedule at one fixed rate, about half
 *    the closed-loop capacity, and each is timed from its due time to
 *    its verdict. A session that is not adjudicated, or whose verdict or
 *    counters differ from the inline golden, counts as failed.
 */

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <random>
#include <thread>

#include "crypto/keyvault.hpp"
#include "probes.hpp"
#include "program/trace.hpp"
#include "sig/sigstore.hpp"
#include "validate/refstore.hpp"
#include "validate/stream.hpp"
#include "validate/stream_verifier.hpp"
#include "verifier/loadgen.hpp"
#include "workloads.hpp"
#include "workloads/generator.hpp"

namespace perfbench
{

using namespace rev;

namespace
{

const std::vector<std::string> kBenches = {"bzip2", "mcf", "gcc", "hmmer"};
constexpr u64 kBudget = 100'000;       ///< instructions per captured stream
constexpr unsigned kWorkers = 2;       ///< verifier worker threads
constexpr unsigned kCapacitySessions = 2000;
constexpr unsigned kWindow = 64;       ///< closed-loop sessions in flight
constexpr double kOpenRate = 300;      ///< open-loop arrivals per second
/** One open-loop segment: 10 sessions lie beyond its p99. */
constexpr std::size_t kSegmentSessions = 1000;
constexpr unsigned kMinRounds = 2;
constexpr unsigned kMaxRounds = 8;

std::vector<std::string>
benches(const Options &opts)
{
    return opts.smoke ? std::vector<std::string>{"bzip2"} : kBenches;
}

/** Reference material of one stand-in. */
struct BenchRefs
{
    prog::Program program;
    std::unique_ptr<crypto::KeyVault> vault;
    std::unique_ptr<sig::SigStore> store;
    std::unique_ptr<validate::RefStore> refs;
};

/** One captured stream and the verdict the in-core backend rendered. */
struct Case
{
    std::size_t bench = 0;
    validate::Backend backend = validate::Backend::Rev;
    std::vector<u8> stream;
    validate::StreamVerdict golden; ///< complete = true
    u64 cycles = 0;
};

struct Corpus
{
    std::vector<std::unique_ptr<BenchRefs>> refs;
    std::vector<Case> cases;
    std::unique_ptr<verifier::VerifierService> service;
};

/** Capture the corpus as verifier::runLoadGen does, then start the
 *  service: record once per stand-in, replay into each backend. */
Corpus
setUp(const Options &opts, Tracer &tracer)
{
    Corpus c;
    const core::SimConfig base;
    for (const std::string &name : benches(opts)) {
        auto br = std::make_unique<BenchRefs>();
        br->program = workloads::generateWorkload(workloads::specProfile(name));
        br->vault = std::make_unique<crypto::KeyVault>(base.cpuSeed);
        br->store = std::make_unique<sig::SigStore>(
            br->program, base.mode, *br->vault, base.toolchainSeed,
            base.core.splitLimits, base.rev.chg.hashRounds);
        br->refs = std::make_unique<validate::RefStore>(*br->store,
                                                        br->vault.get());
        prog::Trace trace;
        {
            core::SimConfig rc = base;
            rc.core.maxInstrs = kBudget;
            rc.sigStorePrototype = br->store.get();
            prog::TraceRecorder recorder;
            rc.traceRecorder = &recorder;
            core::Simulator sim(br->program, rc);
            auto s = tracer.span("verifier.capture");
            sim.run();
            trace = recorder.take();
        }
        for (validate::Backend backend :
             {validate::Backend::Rev, validate::Backend::LoFat}) {
            core::SimConfig cfg = base;
            cfg.core.maxInstrs = kBudget;
            cfg.backend = backend;
            cfg.sigStorePrototype = br->store.get();
            validate::StreamWriter writer;
            cfg.measurementSink = &writer;
            cfg.replayTrace = &trace;
            core::Simulator sim(br->program, cfg);
            auto s = tracer.span("verifier.capture");
            const core::SimResult res = sim.run();
            sim.validator()->sealMeasurement();

            Case k;
            k.bench = c.refs.size();
            k.backend = backend;
            k.stream = writer.take();
            k.cycles = res.run.cycles;
            validate::StreamVerdict &g = k.golden;
            g.complete = true;
            g.detected = res.run.violation.has_value();
            g.reason = sim.validator()->violationReason();
            g.bbValidated = res.validation.bbValidated;
            g.violations = res.validation.violations;
            g.chainUpdates = res.lofat.chainUpdates;
            g.bufferSpills = res.lofat.bufferSpills;
            g.spillBytes = res.lofat.spillBytes;
            g.unattestedBlocks = res.lofat.unattestedBlocks;
            g.edgeViolations = res.lofat.edgeViolations;
            c.cases.push_back(std::move(k));
        }
        c.refs.push_back(std::move(br));
    }
    c.service = std::make_unique<verifier::VerifierService>(
        verifier::ServiceOptions{kWorkers, 1u << 16});
    return c;
}

/** Does @p v reproduce the inline golden @p g? */
bool
matches(const validate::StreamVerdict &v, const validate::StreamVerdict &g)
{
    return v.complete && v.detected == g.detected && v.reason == g.reason &&
           v.bbValidated == g.bbValidated && v.violations == g.violations &&
           v.chainUpdates == g.chainUpdates &&
           v.bufferSpills == g.bufferSpills && v.spillBytes == g.spillBytes &&
           v.unattestedBlocks == g.unattestedBlocks &&
           v.edgeViolations == g.edgeViolations;
}

/** The seeded arrival schedule: inter-arrival gaps (s) and the corpus
 *  case of each session. */
struct Schedule
{
    std::vector<double> gap;
    std::vector<std::size_t> caseOf;
};

Schedule
arrivals(u64 seed, std::size_t sessions, std::size_t cases)
{
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(kOpenRate);
    std::uniform_int_distribution<std::size_t> pick(0, cases - 1);
    Schedule s;
    for (std::size_t i = 0; i < sessions; ++i) {
        s.gap.push_back(gap(rng));
        s.caseOf.push_back(pick(rng));
    }
    return s;
}

struct OpenLoop
{
    std::vector<double> latency; ///< due -> verdict, per session
    std::vector<double> feed;    ///< due -> closeSession, per session
    std::vector<double> verdict; ///< close -> verdict, per session
    std::vector<double> late;    ///< generator lateness, per session
    u64 retries = 0;             ///< partial offer() accepts
    u64 failed = 0;
    double bytes = 0;
    double peakTransportBytes = 0;
};

/**
 * Play sessions [begin, end) of @p sched against @p c's service as one
 * open-loop segment starting now, drain, and append the outcomes.
 */
void
openLoop(Corpus &c, const Schedule &sched, std::size_t begin, std::size_t end,
         Tracer &tracer, OpenLoop &out)
{
    verifier::VerifierService &svc = *c.service;
    std::vector<u64> ids;
    std::vector<double> due, closeAt;

    const auto start = Clock::now();
    double t = 0;
    for (std::size_t i = begin; i < end; ++i) {
        t += sched.gap[i];
        due.push_back(t);
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(t)));
        out.late.push_back(secondsSince(start) - t);
        const Case &k = c.cases[sched.caseOf[i]];
        {
            auto s = tracer.span("verifier.openSession");
            ids.push_back(svc.openSession(*c.refs[k.bench]->refs));
        }
        {
            auto s = tracer.span("verifier.offer");
            std::size_t off = 0;
            while (off < k.stream.size()) {
                off += svc.offer(ids.back(), k.stream.data() + off,
                                 k.stream.size() - off);
                if (off < k.stream.size()) {
                    ++out.retries;
                    std::this_thread::yield();
                }
            }
        }
        closeAt.push_back(secondsSince(start));
        auto s = tracer.span("verifier.closeSession");
        svc.closeSession(ids.back());
    }
    svc.drain();

    const std::vector<verifier::SessionReport> reports = svc.reports();
    for (std::size_t j = 0; j < ids.size(); ++j) {
        const verifier::SessionReport &r = reports.at(ids[j]);
        const double feed = closeAt[j] - due[j];
        out.feed.push_back(feed);
        out.verdict.push_back(r.latencySeconds);
        if (matches(r.verdict, c.cases[sched.caseOf[begin + j]].golden)) {
            out.latency.push_back(feed + r.latencySeconds);
        } else {
            // Counts as beyond any latency limit.
            out.latency.push_back(std::numeric_limits<double>::infinity());
            ++out.failed;
        }
        out.bytes += static_cast<double>(r.bytes);
        out.peakTransportBytes =
            std::max(out.peakTransportBytes, static_cast<double>(r.peakBytes));
    }
}

double
dedupHitRatio(const verifier::VerifierService &svc)
{
    const verifier::UnitCacheStats cs = svc.cacheStats();
    return cs.hits + cs.misses ? static_cast<double>(cs.hits) /
                                     static_cast<double>(cs.hits + cs.misses)
                               : 0;
}

void
reportOpenLoop(const OpenLoop &ol, Report &report)
{
    report.attempt(ol.latency.size());
    if (ol.failed)
        report.fail(ol.failed, "verifier: open-loop sessions diverged from "
                               "the inline golden or were not adjudicated");
}

double
revOverheadPct(const Corpus &c)
{
    double sum = 0;
    unsigned n = 0;
    for (const Case &k : c.cases) {
        if (k.backend != validate::Backend::Rev)
            continue;
        core::SimConfig bc;
        bc.core.maxInstrs = kBudget;
        bc.withRev = false;
        core::Simulator bs(c.refs[k.bench]->program, bc);
        sum += static_cast<double>(k.cycles) /
                   static_cast<double>(bs.run().run.cycles) -
               1.0;
        ++n;
    }
    return 100.0 * sum / n;
}

verifier::LoadGenOptions
capacityOptions(const Options &opts)
{
    verifier::LoadGenOptions lo;
    lo.benchmarks = benches(opts);
    lo.instrBudget = kBudget;
    lo.sessions = opts.smoke ? 200 : kCapacitySessions;
    lo.workers = kWorkers;
    lo.provers = 1;
    lo.window = kWindow;
    return lo;
}

/** Sessions of one open-loop segment. */
std::size_t
segmentSessions(const Options &opts)
{
    return opts.smoke ? 50 : kSegmentSessions;
}

void
traced(const Options &opts, Report &report)
{
    Tracer off(false, 0);
    Tracer tracer(true, fnv1a("verifier", opts.seed));
    const std::size_t seg = segmentSessions(opts);

    Corpus untracedCorpus = setUp(opts, off);
    const Schedule sched =
        arrivals(opts.seed, kMinRounds * seg, untracedCorpus.cases.size());
    OpenLoop untraced;
    for (unsigned r = 0; r < kMinRounds; ++r)
        openLoop(untracedCorpus, sched, r * seg, (r + 1) * seg, off, untraced);
    untracedCorpus.service.reset();

    Corpus c = [&] {
        auto s = tracer.span("verifier.setUp");
        return setUp(opts, tracer);
    }();
    OpenLoop ol;
    for (unsigned r = 0; r < kMinRounds; ++r) {
        auto s = tracer.span("bench.openLoop");
        openLoop(c, sched, r * seg, (r + 1) * seg, tracer, ol);
    }
    reportOpenLoop(ol, report);

    // Standalone decode: one StreamVerifier per corpus stream, no dedup.
    double bytes = 0;
    for (const Case &k : c.cases) {
        validate::StreamVerifier v(*c.refs[k.bench]->refs);
        auto s = tracer.span("validate.StreamVerifier");
        v.feed(k.stream.data(), k.stream.size());
        v.finish();
        bytes += static_cast<double>(k.stream.size());
        report.attempt(1);
        if (!matches(v.verdict(), k.golden))
            report.fail(1, "verifier: standalone decode diverged from the inline golden");
    }

    ProbeConfigs cfgs;
    cfgs.rev.core.maxInstrs = kBudget;
    cfgs.base = cfgs.rev;
    cfgs.base.withRev = false;
    cfgs.tableModes = {cfgs.rev.mode};
    std::vector<workloads::WorkloadProfile> profiles;
    for (const std::string &b : benches(opts))
        profiles.push_back(workloads::specProfile(b));
    const LayerTotals totals = probeLayers(tracer, profiles, cfgs);
    reportLayerProbes(tracer, totals, report);

    report.metric("bench.trace_overhead_s",
                  median(ol.latency) - median(untraced.latency), "s");
    report.metric("verifier.capture_s", tracer.total("verifier.capture"), "s");
    report.metric("validate.decode_mb_per_s",
                  bytes / 1e6 / tracer.total("validate.StreamVerifier"), "MB/s");
    report.metric("verifier.dedup_hit_ratio", dedupHitRatio(*c.service), "1");
    report.metric("verifier.feed_s.p50", quantile(ol.feed, 0.50), "s");
    report.metric("verifier.verdict_s.p50", quantile(ol.verdict, 0.50), "s");
    report.metric("verifier.verdict_s.p99", quantile(ol.verdict, 0.99), "s");
    report.metric("verifier.gen_late_s.p99", quantile(ol.late, 0.99), "s");
    report.metric("verifier.offer_retries", static_cast<double>(ol.retries), "count");
    report.metric("verifier.bytes_per_session",
                  ol.bytes / static_cast<double>(ol.feed.size()), "count");
    report.metric("verifier.peak_transport_bytes", ol.peakTransportBytes, "count");
    if (!opts.spansPath.empty())
        tracer.writeJson(opts.spansPath);
}

} // namespace

void
verifierWorkload(const Options &opts, Report &report)
{
    if (opts.trace)
        return traced(opts, report);
    Tracer off(false, 0);
    const std::size_t seg = segmentSessions(opts);

    if (opts.describeInputs) {
        const Schedule s =
            arrivals(opts.seed, kMaxRounds * seg, 2 * benches(opts).size());
        u64 h = fnv1a("arrivals");
        for (std::size_t i = 0; i < s.gap.size(); ++i)
            h = fnv1a(std::to_string(s.gap[i]) + ":" + std::to_string(s.caseOf[i]), h);
        std::printf("verifier arrivals %zu fingerprint %016llx\n", s.gap.size(),
                    static_cast<unsigned long long>(h));
        return;
    }

    // Set-up is measured several times; the last corpus is kept.
    std::vector<double> setups;
    Corpus c;
    for (int i = 0; i < (opts.smoke ? 1 : 5); ++i) {
        c.service.reset();
        const auto t = Clock::now();
        c = setUp(opts, off);
        setups.push_back(secondsSince(t));
    }
    const double overhead = revOverheadPct(c);

    // Rounds of one closed-loop capacity run and one open-loop segment,
    // so both spread over the whole measured interval. The segments
    // play consecutive slices of one seeded schedule on one service.
    const Schedule sched = arrivals(opts.seed, kMaxRounds * seg, c.cases.size());
    std::vector<double> walls, rates, p50s, p99s;
    OpenLoop ol;
    unsigned rounds = 0;
    const auto t0 = Clock::now();
    do {
        const verifier::LoadGenReport lr = verifier::runLoadGen(capacityOptions(opts));
        walls.push_back(lr.wallSeconds);
        rates.push_back(lr.verificationsPerSec);
        report.attempt(lr.sessions);
        if (!lr.divergences.empty())
            report.fail(lr.divergences.size(),
                        "verifier: closed-loop sessions diverged: " +
                            lr.divergences.front().detail);
        const std::size_t first = ol.latency.size();
        openLoop(c, sched, rounds * seg, (rounds + 1) * seg, off, ol);
        const std::vector<double> segment(ol.latency.begin() + first,
                                          ol.latency.end());
        p50s.push_back(quantile(segment, 0.50));
        p99s.push_back(quantile(segment, 0.99));
        ++rounds;
        std::fprintf(stderr,
                     "[perfbench] verifier round %u: capacity %.1f/s, open-loop "
                     "p50 %.6f s, p99 %.6f s\n",
                     rounds, lr.verificationsPerSec, p50s.back(), p99s.back());
    } while (rounds < kMaxRounds &&
             (rounds < kMinRounds || secondsSince(t0) < opts.seconds));
    reportOpenLoop(ol, report);

    std::printf("verifier: %u rounds of a %u-session closed loop (window %u) "
                "and a %zu-session open-loop segment at %.0f/s (%zu beyond "
                "p99); latency quantiles are medians over the segments; "
                "generator late p99 %.6f s\n",
                rounds, capacityOptions(opts).sessions, kWindow, seg, kOpenRate,
                seg - static_cast<std::size_t>(0.99 * static_cast<double>(seg)),
                quantile(ol.late, 0.99));
    std::printf("verifications_per_s %.4f 1/s\n", median(rates));
    report.metric("setup_s", median(setups), "s");
    report.metric("wall_s", median(walls), "s");
    report.metric("ops_per_s", median(rates), "1/s");
    report.metric("latency_p50_s", median(p50s), "s");
    report.metric("latency_p99_s", median(p99s), "s");
    report.metric("rev_overhead_pct", overhead, "%");
}

} // namespace perfbench
