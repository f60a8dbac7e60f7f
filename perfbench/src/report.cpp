#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

namespace perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    if (frac == 0 || v[hi] == v[lo]) // also keeps an infinite sample exact
        return v[lo];
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h)
{
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

namespace
{

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

} // namespace

void
Report::metric(const std::string &name, double value, const std::string &unit)
{
    if (!std::isfinite(value))
        invalid("metric " + name + " is not a finite number");
    metrics_.push_back({name, value, unit});
    std::printf("metric %-34s %.6g %s\n", name.c_str(), value, unit.c_str());
}

void
Report::fail(std::uint64_t n, const std::string &why)
{
    failed_ += n;
    std::printf("FAILED: %s\n", why.c_str());
}

void
Report::invalid(const std::string &why)
{
    valid_ = false;
    std::printf("INVALID: %s\n", why.c_str());
}

bool
Report::has(const std::string &name, const std::string &unit) const
{
    for (const Metric &m : metrics_)
        if (m.name == name && m.unit == unit)
            return true;
    return false;
}

std::string
Report::json() const
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
           << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    return os.str();
}

Tracer::Tracer(bool enabled, std::uint64_t run_id)
    : enabled_(enabled), runId_(run_id), origin_(Clock::now())
{
}

Tracer::Scope::Scope(Tracer *t, const char *name)
    : tracer_(t), t0_(Clock::now())
{
    if (!tracer_)
        return;
    index_ = static_cast<int>(tracer_->spans_.size());
    tracer_->spans_.push_back(
        {name,
         std::chrono::duration<double>(t0_ - tracer_->origin_).count(), 0,
         tracer_->open_});
    tracer_->open_ = index_;
}

Tracer::Scope::~Scope()
{
    if (!tracer_)
        return;
    Span &s = tracer_->spans_[static_cast<std::size_t>(index_)];
    s.end = secondsSince(tracer_->origin_);
    tracer_->open_ = s.parent;
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0;
    for (const Span &s : spans_)
        if (s.name == name)
            sum += s.end - s.start;
    return sum;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(s.end - s.start);
    return out;
}

bool
Tracer::writeJson(const std::string &path) const
{
    std::ofstream os(path);
    os << "{\"run_id\": " << runId_ << ", \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \""
           << s.name << "\", \"start\": " << number(s.start)
           << ", \"end\": " << number(s.end) << ", \"parent\": " << s.parent
           << ", \"run_id\": " << runId_ << '}';
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
