/**
 * @file
 * The repository benchmark program.
 *
 *   perfbench --workload sweep|campaign|verifier --seed N --seconds S
 *             --trace 0|1 [--expect DIR] [--spans FILE] [--smoke]
 *             [--write-expect] [--describe-inputs]
 *
 * Prints one "metric name value unit" line per metric, then, as the
 * last line, {"correct", "attempted", "failed", "metrics"} as JSON.
 * --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
 * ones. Exits 1 when an output check failed, 2 on a usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <string>

#include "workloads.hpp"

namespace
{

using namespace perfbench;

/** A metric of the benchmark and the workload that drives its layer
 *  (nullptr: every workload reports it). */
struct MetricDef
{
    const char *name;
    const char *unit;
    const char *owner;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", nullptr},          {"wall_s", "s", nullptr},
    {"ops_per_s", "1/s", nullptr},      {"latency_p50_s", "s", nullptr},
    {"latency_p99_s", "s", nullptr},    {"rev_overhead_pct", "%", nullptr},
    {"peak_rss_mb", "MB", nullptr},
};

constexpr MetricDef kPerLayer[] = {
    {"workloads.generate_s", "s", nullptr},
    {"program.cfg_s", "s", nullptr},
    {"sig.table_build_s", "s", nullptr},
    {"crypto.hash_mb_per_s", "MB/s", nullptr},
    {"sig.table_bytes", "count", nullptr},
    {"core.record_s", "s", nullptr},
    {"core.replay_s", "s", nullptr},
    {"program.exec_s", "s", nullptr},
    {"validate.host_s", "s", nullptr},
    {"cpu.ipc.base", "1", nullptr},
    {"validate.rev_overhead_pct", "%", nullptr},
    {"cpu.mispredicts", "count", nullptr},
    {"mem.l1i_miss", "count", nullptr},
    {"mem.l1d_miss", "count", nullptr},
    {"mem.l2_miss", "count", nullptr},
    {"mem.sc_fill.accesses", "count", nullptr},
    {"mem.sc_fill.l2_miss", "count", nullptr},
    {"validate.sc_miss.complete", "count", nullptr},
    {"validate.sc_miss.partial", "count", nullptr},
    {"validate.sc_hit_ratio", "1", nullptr},
    {"validate.commit_stall_cycles", "count", nullptr},
    {"bench.trace_overhead_s", "s", nullptr},
    {"bench.replayed_ratio", "1", "sweep"},
    {"redteam.context_s", "s", "campaign"},
    {"redteam.plan_gen_s", "s", "campaign"},
    {"redteam.benign_proof_ratio", "1", "campaign"},
    {"core.snapshot_capture_us", "us", "campaign"},
    {"core.snapshot_fork_us", "us", "campaign"},
    {"redteam.inject_ms.p50", "ms", "campaign"},
    {"redteam.inject_ms.p99", "ms", "campaign"},
    {"redteam.detected", "count", "campaign"},
    {"redteam.crashed", "count", "campaign"},
    {"redteam.benign", "count", "campaign"},
    {"redteam.blind", "count", "campaign"},
    {"redteam.escapes", "count", "campaign"},
    {"redteam.unfired", "count", "campaign"},
    {"redteam.off_mechanism", "count", "campaign"},
    {"redteam.detect_latency_cycles", "cycles", "campaign"},
    {"verifier.capture_s", "s", "verifier"},
    {"validate.decode_mb_per_s", "MB/s", "verifier"},
    {"verifier.dedup_hit_ratio", "1", "verifier"},
    {"verifier.feed_s.p50", "s", "verifier"},
    {"verifier.verdict_s.p50", "s", "verifier"},
    {"verifier.verdict_s.p99", "s", "verifier"},
    {"verifier.gen_late_s.p99", "s", "verifier"},
    {"verifier.offer_retries", "count", "verifier"},
    {"verifier.bytes_per_session", "count", "verifier"},
    {"verifier.peak_transport_bytes", "count", "verifier"},
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "sweep|campaign|verifier --seed N --seconds S --trace 0|1 "
                 "[--expect DIR] [--spans FILE] [--smoke] [--write-expect] "
                 "[--describe-inputs]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = std::stoi(value()) != 0;
            else if (a == "--expect")
                o.expectDir = value();
            else if (a == "--spans")
                o.spansPath = value();
            else if (a == "--smoke")
                o.smoke = true;
            else if (a == "--write-expect")
                o.writeExpect = true;
            else if (a == "--describe-inputs")
                o.describeInputs = true;
            else
                usage(("unknown argument " + a).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (o.workload != "sweep" && o.workload != "campaign" &&
        o.workload != "verifier")
        usage("--workload must be sweep, campaign or verifier");
    if (o.writeExpect && o.workload == "verifier")
        usage("--write-expect: the verifier checks against its own corpus");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    std::setvbuf(stdout, nullptr, _IOLBF, 0);

    Report report;
    try {
        if (opts.workload == "sweep")
            sweepWorkload(opts, report);
        else if (opts.workload == "campaign")
            campaignWorkload(opts, report);
        else
            verifierWorkload(opts, report);
    } catch (const std::exception &e) {
        report.attempt(1);
        report.fail(report.attempted() - report.failed(),
                    std::string("workload aborted: ") + e.what());
    }
    if (opts.writeExpect || opts.describeInputs)
        return report.failed() ? 1 : 0;

    if (opts.trace) {
        // Layers this workload does not drive did no work in it.
        for (const MetricDef &m : kPerLayer)
            if (m.owner && opts.workload != m.owner)
                report.metric(m.name, 0, m.unit);
    } else {
        report.metric("peak_rss_mb", peakRssMb(), "MB");
    }
    for (const MetricDef &m : opts.trace ? std::span<const MetricDef>(kPerLayer)
                                         : std::span<const MetricDef>(kEndToEnd))
        if (!report.has(m.name, m.unit))
            report.invalid(std::string("metric not reported: ") + m.name);

    std::printf("error_rate %.6g 1 (%llu failed of %llu attempted)\n",
                report.attempted()
                    ? static_cast<double>(report.failed()) /
                          static_cast<double>(report.attempted())
                    : 1.0,
                static_cast<unsigned long long>(report.failed()),
                static_cast<unsigned long long>(report.attempted()));
    std::printf("%s\n", report.json().c_str());
    return report.correct() ? 0 : 1;
}
