/**
 * @file
 * Shared pieces of the repository benchmark: run options, the metric
 * report that becomes the final JSON line, sample statistics, peak RSS,
 * and the in-memory span recorder of traced runs.
 */

#ifndef PERFBENCH_REPORT_HPP
#define PERFBENCH_REPORT_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20; ///< length of the measured loop
    bool trace = false;  ///< traced run: per-layer metrics instead
    std::string expectDir = "perfbench/expect";
    std::string spansPath; ///< traced runs write their spans here
    bool smoke = false;    ///< shrunken inputs for the benchmark's tests
    bool writeExpect = false;   ///< regenerate the pinned expectation
    bool describeInputs = false; ///< print input fingerprints, run nothing
};

/** Linear-interpolated quantile (q in [0,1]); 0 for no samples. */
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/** getrusage peak resident set of this process, in MB. */
double peakRssMb();

/** 64-bit FNV-1a, extended over @p s from @p h. */
std::uint64_t fnv1a(const std::string &s,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/**
 * What one run reports. Metrics are printed as "name value unit" lines
 * while they are added and rendered again as the final JSON line.
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Count operations and failures; a failure also prints @p why. */
    void attempt(std::uint64_t n) { attempted_ += n; }
    void fail(std::uint64_t n, const std::string &why);

    /** The run itself is unusable (e.g. a metric is missing). */
    void invalid(const std::string &why);

    /** Was @p name reported, with @p unit? */
    bool has(const std::string &name, const std::string &unit) const;

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool correct() const { return failed_ == 0 && attempted_ > 0 && valid_; }

    /** The contract line: correct, attempted, failed, metrics. */
    std::string json() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool valid_ = true;
};

/**
 * In-memory span recorder. Spans nest by scope on the recording thread;
 * every span of one run shares the run id. Written as JSON at exit.
 * A disabled tracer records nothing and costs one branch per scope.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0; ///< seconds since the tracer started
        double end = 0;
        int parent = -1; ///< index of the enclosing span, -1 at the root
    };

    /** RAII span; closes on destruction. */
    class Scope
    {
      public:
        Scope(Tracer *t, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Seconds since the span opened (valid on a disabled tracer). */
        double elapsed() const { return secondsSince(t0_); }

      private:
        Tracer *tracer_;
        int index_ = -1;
        Clock::time_point t0_;
    };

    Tracer(bool enabled, std::uint64_t run_id);

    bool enabled() const { return enabled_; }
    Scope span(const char *name) { return Scope(enabled_ ? this : nullptr, name); }

    /** Summed durations of every span named @p name. */
    double total(const std::string &name) const;
    /** Durations of every span named @p name, in record order. */
    std::vector<double> durations(const std::string &name) const;

    /** Write {"run_id":..,"spans":[...]}; false on I/O failure. */
    bool writeJson(const std::string &path) const;

  private:
    bool enabled_;
    std::uint64_t runId_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    int open_ = -1; ///< innermost open span
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HPP
