/**
 * @file
 * Shared plumbing for emprof_perfbench: flag parsing, a flat JSON
 * writer for results, an in-memory span log with Chrome trace export,
 * report digests, and small statistics helpers.
 *
 * Every subcommand prints exactly one JSON object on stdout (run.py
 * parses it) and its diagnostics on stderr.
 */

#ifndef EMPROF_PERFBENCH_UTIL_HPP
#define EMPROF_PERFBENCH_UTIL_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "profiler/profiler.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** `--key value` flags after the subcommand. */
class Args
{
  public:
    Args(int argc, char **argv, int first);

    std::string str(const std::string &key) const;
    std::string str(const std::string &key, const std::string &def) const;
    double num(const std::string &key) const;

  private:
    std::map<std::string, std::string> values_;
};

/** Flat JSON object: numbers, strings and number arrays. */
class Json
{
  public:
    Json &num(const std::string &key, double value);
    Json &str(const std::string &key, const std::string &value);
    Json &arr(const std::string &key, const std::vector<double> &values);
    std::string text() const;

  private:
    std::vector<std::string> fields_;
};

/** 64-bit FNV-1a, hex-encoded. */
std::string fnv1aHex(const void *data, std::size_t n);

/**
 * Digest of an analysis result: the served Report payload bytes
 * (status, sample count, coverage, every event as IEEE-754 bit
 * patterns, report text).  Local and served results compare through
 * the same bytes.
 */
std::string resultDigest(uint32_t status, uint64_t totalSamples,
                         double coverage,
                         const std::vector<emprof::profiler::StallEvent> &events,
                         const std::string &reportText);

/** Digest of a finished local analysis, as the daemon would send it. */
std::string profileDigest(const emprof::profiler::ProfileResult &result,
                          uint64_t totalSamples, const char *title);

/** Nearest-rank percentile of @p v, q in [0,1]: the value with
 *  ceil(q * n) samples at or below it, so n - ceil(q * n) samples lie
 *  beyond it.  0 for an empty @p v. */
double percentile(std::vector<double> v, double q);

inline double median(const std::vector<double> &v) { return percentile(v, 0.5); }

/** This process's peak resident set (VmHWM) in MiB. */
double peakRssMb();

/**
 * In-memory span log.  Spans are recorded at layer boundaries by the
 * benchmark itself, kept until the end of the run, and written as
 * Chrome trace_event JSON.  A disabled log records nothing.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

    bool enabled() const { return enabled_; }

    uint64_t newId() { return nextId_.fetch_add(1); }

    void record(const char *name, Clock::time_point start,
                Clock::time_point end, uint64_t id, uint64_t parent,
                const std::string &session);

    /** Summed duration (ms) of every span called @p name. */
    double totalMs(const char *name) const;

    void clear();

    bool writeChrome(const std::string &path, int pid) const;

  private:
    struct Span
    {
        std::string name;
        double startUs;
        double durUs;
        uint64_t id;
        uint64_t parent;
        uint32_t tid;
        std::string session;
    };

    bool enabled_;
    Clock::time_point epoch_;
    std::atomic<uint64_t> nextId_{1};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span; a no-op (bar two clock reads) when the log is disabled. */
class Scope
{
  public:
    Scope(SpanLog &log, const char *name, uint64_t parent = 0,
          std::string session = {})
        : log_(log), name_(name), parent_(parent),
          session_(std::move(session)), start_(Clock::now()),
          id_(log.enabled() ? log.newId() : 0)
    {}

    ~Scope()
    {
        if (log_.enabled())
            log_.record(name_, start_, Clock::now(), id_, parent_,
                        session_);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    uint64_t id() const { return id_; }

  private:
    SpanLog &log_;
    const char *name_;
    uint64_t parent_;
    std::string session_;
    Clock::time_point start_;
    uint64_t id_;
};

/** Subcommand entry points (see main.cpp for the flag lists). */
int cmdSynth(const Args &args);
int cmdReference(const Args &args);
int cmdAnalyze(const Args &args);
int cmdPeak(const Args &args);
int cmdTraceBatch(const Args &args);
int cmdFleet(const Args &args);
int cmdPasses(const Args &args);
int cmdLocal(const Args &args);
int cmdComponents(const Args &args);

} // namespace perfbench

#endif // EMPROF_PERFBENCH_UTIL_HPP
