#include "util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "serve/frame.hpp"

namespace perfbench {

Args::Args(int argc, char **argv, int first)
{
    for (int i = first; i < argc; ++i) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            throw std::runtime_error("bad flag: " + key);
        values_[key.substr(2)] = argv[++i];
    }
}

std::string
Args::str(const std::string &key) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        throw std::runtime_error("missing --" + key);
    return it->second;
}

std::string
Args::str(const std::string &key, const std::string &def) const
{
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
}

double
Args::num(const std::string &key) const
{
    return std::stod(str(key));
}

namespace {

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace

Json &
Json::num(const std::string &key, double value)
{
    fields_.push_back(jsonString(key) + ": " + jsonNumber(value));
    return *this;
}

Json &
Json::str(const std::string &key, const std::string &value)
{
    fields_.push_back(jsonString(key) + ": " + jsonString(value));
    return *this;
}

Json &
Json::arr(const std::string &key, const std::vector<double> &values)
{
    std::string a = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        a += (i ? ", " : "") + jsonNumber(values[i]);
    fields_.push_back(jsonString(key) + ": " + a + "]");
    return *this;
}

std::string
Json::text() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i)
        out += (i ? ", " : "") + fields_[i];
    return out + "}";
}

std::string
fnv1aHex(const void *data, std::size_t n)
{
    uint64_t h = 0xcbf29ce484222325ull;
    const auto *p = static_cast<const uint8_t *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
resultDigest(uint32_t status, uint64_t totalSamples, double coverage,
             const std::vector<emprof::profiler::StallEvent> &events,
             const std::string &reportText)
{
    const auto bytes = emprof::serve::encodeReportPayload(
        status, totalSamples, coverage, events, reportText);
    return fnv1aHex(bytes.data(), bytes.size());
}

std::string
profileDigest(const emprof::profiler::ProfileResult &result,
              uint64_t totalSamples, const char *title)
{
    // The daemon's status/coverage rule (server.cpp), so a local run
    // and a served one produce the same digest.
    const auto &quality = result.report.quality;
    const bool degraded = quality.enabled && quality.coverageFraction < 1.0;
    return resultDigest(degraded ? 3u : 0u, totalSamples,
                        quality.enabled ? quality.coverageFraction : 1.0,
                        result.events, result.report.toText(title));
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size()) - 1e-9));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

namespace {

uint32_t
threadNumber()
{
    static std::atomic<uint32_t> next{1};
    thread_local const uint32_t mine = next.fetch_add(1);
    return mine;
}

} // namespace

void
SpanLog::record(const char *name, Clock::time_point start,
                Clock::time_point end, uint64_t id, uint64_t parent,
                const std::string &session)
{
    Span s{name,
           std::chrono::duration<double, std::micro>(start - epoch_).count(),
           std::chrono::duration<double, std::micro>(end - start).count(),
           id,
           parent,
           threadNumber(),
           session};
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
}

double
SpanLog::totalMs(const char *name) const
{
    double sum = 0.0;
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &s : spans_) {
        if (s.name == name)
            sum += s.durUs / 1000.0;
    }
    return sum;
}

void
SpanLog::clear()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
}

bool
SpanLog::writeChrome(const std::string &path, int pid) const
{
    std::ostringstream out;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        Json args;
        args.num("span", static_cast<double>(s.id))
            .num("parent", static_cast<double>(s.parent));
        if (!s.session.empty())
            args.str("session", s.session);
        Json ev;
        ev.str("name", s.name)
            .str("ph", "X")
            .num("ts", s.startUs)
            .num("dur", s.durUs)
            .num("pid", pid)
            .num("tid", s.tid);
        std::string text = ev.text();
        text.pop_back();
        out << text << ", \"args\": " << args.text() << "}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    std::ofstream file(path);
    file << out.str();
    return static_cast<bool>(file);
}

} // namespace perfbench
