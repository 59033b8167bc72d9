/**
 * @file
 * The serve_fleet workload: uploads to a running emprof_served, plus
 * the served path's components called one by one on the same bytes.
 *
 * `passes` pushes closed-loop passes over the uploads through the
 * daemon on nproc connections, every Report checked against the local
 * SessionPipeline digest of its upload.  `local` runs the same
 * uploads through local SessionPipelines: the daemon's analysis without
 * the daemon.
 *
 * `fleet` is the open-loop load generator of the traced run.  Each
 * phase draws its whole Poisson schedule up front; worker threads (at
 * most nproc, one blocking connection each) take sessions in order,
 * sleep until the scheduled send time, and run Open → Data* → Finish →
 * Report.  Latency is timed from the *scheduled* time, so a server
 * stall that delays later sends is charged to them (coordinated
 * omission), and the generator's own lateness is reported as lag.  It
 * measures the nominal rate (warm-up, then fixed windows) and bisects a
 * capacity ladder of fixed-ratio rungs above it.  A rung passes when
 * its p99 meets the latency limit, counting failed sessions as misses,
 * and the generator lag does not grow over the rung.
 *
 * `components` times parseFrame, EmcapStreamDecoder::feed,
 * SessionPipeline, encodeReportPayload and ResultSpool::append.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <thread>

#include "common/thread_pool.hpp"
#include "dsp/rng.hpp"
#include "inputs.hpp"
#include "serve/client.hpp"
#include "serve/emcap_stream.hpp"
#include "serve/session_pipeline.hpp"
#include "serve/spool.hpp"
#include "util.hpp"

using namespace emprof;

namespace perfbench {

namespace {

// The open-loop load.  The nominal rate sits well below the capacity
// the ladder measures: five traced runs on a shared 4-thread x86-64 VM
// gave 359-823/s, median 677/s, so 200/s is 0.30 of the median and
// 0.56 of the lowest, and the generator's blocking connections do not
// queue.
constexpr double kNominalRate = 200.0;
constexpr std::size_t kWarmup = 100;
// Each window's p99 has 11 sessions beyond it.
constexpr std::size_t kWindow = 1100;
// Back-to-back windows in each nominal run (one untraced, one traced);
// a latency figure is the median of the per-window figures.
constexpr std::size_t kWindows = 2;
// Capacity ladder: rung k offers kNominalRate * kLadderStep^k, up to
// 200 * 1.05^40 = 1408/s.
constexpr int kLadderRungs = 40;
constexpr double kLadderStep = 1.05;
constexpr std::size_t kRungWarmup = 50;
constexpr std::size_t kRungSessions = 1100;
// A rung passes when its p99 meets this limit ...
constexpr double kLimitMs = 50.0;
// ... and the median generator lag of its last quarter exceeds that of
// its first quarter by at most this much.
constexpr double kMaxLagGrowthMs = 5.0;
// A generator this far behind its schedule aborts the phase: the rung
// fails without queueing minutes of overdue sessions.
constexpr double kAbortLagMs = 1000.0;

// A local pass analyses every upload this often (4 x 32 = 128 sessions),
// so one pass is long enough to time steadily.
constexpr std::size_t kLocalRounds = 4;
// Component calls: enough sessions for 11 beyond each p99.
constexpr std::size_t kComponentSessions = 1100;

struct Fleet
{
    std::vector<std::vector<uint8_t>> blobs;
    std::vector<std::string> refs;
};

bool
loadFleet(const Args &args, Fleet &fleet)
{
    const std::string dir = args.str("dir");
    const auto count = static_cast<std::size_t>(args.num("count"));
    std::ifstream refs(args.str("refs"));
    fleet.blobs.resize(count);
    fleet.refs.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        if (!readBlob(blobPath(dir, i), fleet.blobs[i]) ||
            !(refs >> fleet.refs[i])) {
            std::fprintf(stderr, "cannot load upload %zu\n", i);
            return false;
        }
    }
    return true;
}

serve::SessionId
sessionIdFor(uint64_t seed, uint64_t phase, uint64_t index)
{
    serve::SessionId id{};
    const uint64_t hi = seed * 0x9e3779b97f4a7c15ull + phase + 1;
    const uint64_t lo = index + 1;
    std::memcpy(id.data(), &hi, 8);
    std::memcpy(id.data() + 8, &lo, 8);
    return id;
}

struct SessionRecord
{
    bool started = false;
    bool ok = false;
    double lagMs = 0.0;
    double openMs = 0.0;
    double uploadMs = 0.0;
    double awaitMs = 0.0;
    double latencyMs = INFINITY; ///< scheduled send → Report in hand
};

struct Generator
{
    serve::Endpoint endpoint;
    const Fleet *fleet = nullptr;
    uint64_t seed = 0;
    std::size_t threads = 1;
};

struct Phase
{
    std::vector<SessionRecord> records;
    int inFlightMax = 0;
    bool aborted = false;
};

void
runSession(const Generator &gen, std::size_t blob, const std::string &sid,
           const serve::SessionId &id, Clock::time_point scheduled,
           SessionRecord &rec, SpanLog &log)
{
    const auto start = Clock::now();
    rec.started = true;
    rec.lagMs = secondsBetween(scheduled, start) * 1e3;
    const uint64_t root = log.enabled() ? log.newId() : 0;
    if (log.enabled())
        log.record("gen.lag", scheduled, start, log.newId(), root, sid);
    const auto &bytes = gen.fleet->blobs[blob];
    serve::Client client;
    std::string error;
    auto mark = start;
    const auto phase = [&](const char *name, double &ms) {
        const auto now = Clock::now();
        ms = secondsBetween(mark, now) * 1e3;
        if (log.enabled())
            log.record(name, mark, now, log.newId(), root, sid);
        mark = now;
    };
    const auto finishRecord = [&] {
        if (log.enabled())
            log.record("serve.session", start, Clock::now(), root, 0, sid);
    };

    serve::OpenRequest request{};
    std::memcpy(request.sessionId, id.data(), id.size());
    serve::SessionId echoed{};
    uint64_t offset = 0;
    serve::SessionState state = serve::SessionState::Fresh;
    if (!client.connect(gen.endpoint, &error) ||
        !client.openSession(request, echoed, offset, state, nullptr,
                            &error) ||
        state != serve::SessionState::Fresh) {
        std::fprintf(stderr, "session %s open: %s\n", sid.c_str(),
                     error.c_str());
        finishRecord();
        return;
    }
    phase("serve.open", rec.openMs);
    for (std::size_t off = 0; off < bytes.size(); off += kDataFrameBytes) {
        const std::size_t take = std::min(kDataFrameBytes, bytes.size() - off);
        if (!client.sendData(bytes.data() + off, take, &error)) {
            std::fprintf(stderr, "session %s data: %s\n", sid.c_str(),
                         error.c_str());
            finishRecord();
            return;
        }
    }
    phase("serve.upload", rec.uploadMs);
    const serve::PushResult result = client.finish();
    phase("serve.await", rec.awaitMs);
    finishRecord();
    if (!result.ok) {
        std::fprintf(stderr, "session %s: %s\n", sid.c_str(),
                     result.error.c_str());
        return;
    }
    const auto &r = result.report;
    rec.ok = resultDigest(r.status, r.totalSamples, r.coverageFraction,
                          r.events, r.reportText) == gen.fleet->refs[blob];
    if (!rec.ok)
        std::fprintf(stderr, "session %s: report differs from reference\n",
                     sid.c_str());
    rec.latencyMs = rec.ok ? secondsBetween(scheduled, Clock::now()) * 1e3
                           : INFINITY;
}

/** One open-loop phase of @p count sessions at @p rate per second. */
Phase
runPhase(const Generator &gen, double rate, std::size_t count,
         uint64_t phaseNo, SpanLog &log)
{
    dsp::Rng rng(gen.seed * 0x2545f4914f6cdd1dull + phaseNo);
    std::vector<double> offsets(count);
    std::vector<std::size_t> blobs(count);
    double t = 0.02;
    for (std::size_t i = 0; i < count; ++i) {
        t += -std::log(1.0 - rng.uniform()) / rate;
        offsets[i] = t;
        blobs[i] = rng.below(gen.fleet->blobs.size());
    }

    Phase phase;
    phase.records.resize(count);
    std::atomic<std::size_t> next{0};
    std::atomic<int> in_flight{0};
    std::atomic<int> in_flight_max{0};
    std::atomic<bool> abort{false};
    const auto base = Clock::now();
    const auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= count || abort.load())
                return;
            const auto due =
                base + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(offsets[i]));
            std::this_thread::sleep_until(due);
            if (secondsBetween(due, Clock::now()) * 1e3 > kAbortLagMs) {
                abort.store(true); // hopelessly behind: the rung fails
                return;
            }
            const int now_in = in_flight.fetch_add(1) + 1;
            int seen = in_flight_max.load();
            while (now_in > seen &&
                   !in_flight_max.compare_exchange_weak(seen, now_in)) {
            }
            const auto id = sessionIdFor(gen.seed, phaseNo, i);
            runSession(gen, blobs[i], serve::sessionIdToHex(id), id, due,
                       phase.records[i], log);
            in_flight.fetch_sub(1);
        }
    };
    std::vector<std::thread> pool;
    for (std::size_t k = 0; k < gen.threads; ++k)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();
    phase.inFlightMax = in_flight_max.load();
    phase.aborted = abort.load();
    return phase;
}

/** Statistics of sessions [begin, end) of a phase. */
struct Window
{
    double p50 = 0.0, p99 = 0.0;
    std::size_t failed = 0;
    double lagP50 = 0.0, lagP99 = 0.0, lagGrowthMs = 0.0;
    bool aborted = false;
};

Window
measure(const Phase &phase, std::size_t begin, std::size_t end)
{
    Window w;
    w.aborted = phase.aborted;
    std::vector<double> latency, lag;
    for (std::size_t i = begin; i < end; ++i) {
        const auto &r = phase.records[i];
        latency.push_back(r.latencyMs); // never started or failed: +inf
        if (r.started)
            lag.push_back(r.lagMs);
        if (r.started && !r.ok)
            ++w.failed;
    }
    w.p50 = percentile(latency, 0.50);
    w.p99 = percentile(latency, 0.99);
    w.lagP50 = percentile(lag, 0.50);
    w.lagP99 = percentile(lag, 0.99);
    // Lag growth: median lag of the last quarter against the first.
    const std::size_t q = lag.size() / 4;
    if (q > 0) {
        const std::vector<double> first(lag.begin(), lag.begin() + q);
        const std::vector<double> last(lag.end() - q, lag.end());
        w.lagGrowthMs = median(last) - median(first);
    }
    return w;
}

bool
passes(const Window &w)
{
    return !w.aborted && w.p99 <= kLimitMs && w.lagGrowthMs <= kMaxLagGrowthMs;
}

struct Totals
{
    std::size_t attempted = 0, failed = 0;

    void
    add(const Phase &phase)
    {
        for (const auto &r : phase.records) {
            attempted += r.started ? 1 : 0;
            failed += r.started && !r.ok ? 1 : 0;
        }
    }
};

} // namespace

int
cmdFleet(const Args &args)
{
    Fleet fleet;
    if (!loadFleet(args, fleet))
        return 1;
    Generator gen;
    std::string error;
    if (!serve::parseEndpoint(args.str("endpoint"), gen.endpoint, &error)) {
        std::fprintf(stderr, "endpoint: %s\n", error.c_str());
        return 2;
    }
    gen.fleet = &fleet;
    gen.seed = static_cast<uint64_t>(args.num("seed"));
    gen.threads = static_cast<std::size_t>(args.num("threads"));

    // The nominal rate: a warm-up, then back-to-back fixed windows.
    // Latency is the median over windows of each window's p50 / p99,
    // so one host stall moves one window, not the figure.
    struct Nominal
    {
        Phase phase;
        std::vector<double> p50s, p99s;
        Window all; ///< every measured session: lag statistics
        double p50 = 0.0, p99 = 0.0;
    };
    const auto nominalRun = [&](uint64_t phaseNo, SpanLog &log) {
        Nominal n;
        n.phase = runPhase(gen, kNominalRate, kWarmup + kWindows * kWindow,
                           phaseNo, log);
        for (std::size_t k = 0; k < kWindows; ++k) {
            const std::size_t b = kWarmup + k * kWindow;
            const Window w = measure(n.phase, b, b + kWindow);
            n.p50s.push_back(w.p50);
            n.p99s.push_back(std::isfinite(w.p99) ? w.p99 : -1.0);
        }
        n.all = measure(n.phase, kWarmup, n.phase.records.size());
        n.p50 = median(n.p50s);
        n.p99 = median(n.p99s);
        if (n.p99 < 0.0 || n.all.failed > 0)
            n.p99 = INFINITY; // failed sessions miss any limit
        return n;
    };

    Totals totals;
    SpanLog off(false);
    const Nominal nom = nominalRun(0, off);
    totals.add(nom.phase);
    Json out;
    out.num("latency_p50_ms", nom.p50)
        .num("latency_p99_ms", nom.p99)
        .arr("window_p99_ms", nom.p99s)
        .num("window_sessions", static_cast<double>(kWindow))
        .num("window_beyond_p99",
             static_cast<double>(kWindow - static_cast<std::size_t>(std::ceil(
                                               0.99 * kWindow - 1e-9))))
        .num("nominal_rate", kNominalRate)
        .num("gen.lag_ms.p50", nom.all.lagP50)
        .num("gen.lag_ms.p99", nom.all.lagP99)
        .num("gen.in_flight_max", nom.phase.inFlightMax);

    // The same nominal load again with spans on.
    SpanLog log(true);
    const Nominal traced = nominalRun(1, log);
    totals.add(traced.phase);
    std::vector<double> open, upload, await;
    for (std::size_t i = kWarmup; i < traced.phase.records.size(); ++i) {
        const auto &r = traced.phase.records[i];
        open.push_back(r.openMs);
        upload.push_back(r.uploadMs);
        await.push_back(r.awaitMs);
    }
    out.num("serve.open_ms.p50", percentile(open, 0.5))
        .num("serve.open_ms.p99", percentile(open, 0.99))
        .num("serve.upload_ms.p50", percentile(upload, 0.5))
        .num("serve.upload_ms.p99", percentile(upload, 0.99))
        .num("serve.await_ms.p50", percentile(await, 0.5))
        .num("serve.await_ms.p99", percentile(await, 0.99))
        .num("trace.overhead_share", traced.p50 / nom.p50 - 1.0);
    if (!log.writeChrome(args.str("trace-out"), 2))
        return 1;

    // Capacity: bisect the ladder for the highest passing rung, taking
    // the nominal run as rung 0.  A failing rung is run once more and
    // fails only if that fails too, so one host stall cannot end the
    // search early.
    Window rung0 = nom.all;
    rung0.p99 = nom.p99;
    const bool nominal_passes = passes(rung0);
    int lo = nominal_passes ? 0 : -kLadderRungs - 1; // highest known pass
    int hi = nominal_passes ? kLadderRungs + 1 : 0;  // lowest known fail
    std::vector<double> rung_rates, rung_p99, rung_pass;
    uint64_t phase_no = 2;
    const auto tryRung = [&](int k) {
        const double rate = kNominalRate * std::pow(kLadderStep, k);
        const Phase p = runPhase(gen, rate, kRungWarmup + kRungSessions,
                                 phase_no++, off);
        totals.add(p);
        const Window w = measure(p, kRungWarmup, p.records.size());
        const bool ok = passes(w);
        std::fprintf(stderr,
                     "rung %+d: %.1f/s p99 %.2f ms lag growth %.2f ms %s%s\n",
                     k, rate, w.p99, w.lagGrowthMs, ok ? "pass" : "FAIL",
                     w.aborted ? " (aborted)" : "");
        rung_rates.push_back(rate);
        rung_p99.push_back(std::isfinite(w.p99) ? w.p99 : -1.0);
        rung_pass.push_back(ok ? 1.0 : 0.0);
        return ok;
    };
    while (hi - lo > 1) {
        const int mid = lo + (hi - lo) / 2;
        const bool ok = tryRung(mid) || tryRung(mid);
        (ok ? lo : hi) = mid;
    }
    out.num("serve.capacity_sessions_per_s",
            lo >= -kLadderRungs ? kNominalRate * std::pow(kLadderStep, lo)
                                : 0.0)
        .num("capacity_capped", lo == kLadderRungs ? 1.0 : 0.0)
        .arr("rung_rates", rung_rates)
        .arr("rung_p99_ms", rung_p99)
        .arr("rung_pass", rung_pass);
    out.num("attempted", static_cast<double>(totals.attempted))
        .num("failed", static_cast<double>(totals.failed));
    std::printf("%s\n", out.text().c_str());
    return 0;
}

int
cmdPasses(const Args &args)
{
    // Closed-loop passes over the uploads through the daemon on nproc
    // connections at once: each connection sends its next upload as
    // soon as its last Report is in.
    Fleet fleet;
    if (!loadFleet(args, fleet))
        return 1;
    Generator gen;
    std::string error;
    if (!serve::parseEndpoint(args.str("endpoint"), gen.endpoint, &error)) {
        std::fprintf(stderr, "endpoint: %s\n", error.c_str());
        return 2;
    }
    gen.fleet = &fleet;
    gen.seed = static_cast<uint64_t>(args.num("seed"));
    const double budget = args.num("seconds");
    const std::size_t nproc = common::ThreadPool::hardwareThreads();
    SpanLog off(false);
    std::size_t attempted = 0, failed = 0;
    uint64_t phase_no = 100;
    const auto pass = [&](std::size_t connections) {
        std::vector<SessionRecord> records(fleet.blobs.size());
        std::atomic<std::size_t> next{0};
        const uint64_t phase = phase_no++;
        const auto t0 = Clock::now();
        const auto worker = [&] {
            for (std::size_t i = next.fetch_add(1); i < records.size();
                 i = next.fetch_add(1)) {
                const auto id = sessionIdFor(gen.seed, phase, i);
                runSession(gen, i, serve::sessionIdToHex(id), id,
                           Clock::now(), records[i], off);
            }
        };
        std::vector<std::thread> threads;
        for (std::size_t k = 0; k < connections; ++k)
            threads.emplace_back(worker);
        for (auto &t : threads)
            t.join();
        const double seconds = secondsBetween(t0, Clock::now());
        for (const auto &r : records) {
            ++attempted;
            failed += r.ok ? 0 : 1;
        }
        return seconds;
    };
    std::vector<double> parallel_s;
    const auto t0 = Clock::now();
    for (bool warm = false; secondsBetween(t0, Clock::now()) < budget ||
                            parallel_s.size() < 3;
         warm = true) {
        const double p = pass(nproc);
        if (warm)
            parallel_s.push_back(p);
    }
    std::printf("%s\n", Json()
                            .arr("parallel_s", parallel_s)
                            .num("attempted", static_cast<double>(attempted))
                            .num("failed", static_cast<double>(failed))
                            .text()
                            .c_str());
    return 0;
}

int
cmdLocal(const Args &args)
{
    // The daemon's analysis without the daemon: passes of every upload
    // (kLocalRounds times over) through local SessionPipelines, on nproc
    // pool threads and on one.
    Fleet fleet;
    if (!loadFleet(args, fleet))
        return 1;
    const double budget = args.num("seconds");
    const std::size_t sessions = kLocalRounds * fleet.blobs.size();
    common::ThreadPool pool(common::ThreadPool::hardwareThreads());
    std::atomic<std::size_t> failed{0};
    std::size_t attempted = 0;
    const auto one = [&](std::size_t i) {
        const std::size_t b = i % fleet.blobs.size();
        std::string digest;
        if (!localSession(fleet.blobs[b], digest) || digest != fleet.refs[b])
            failed.fetch_add(1);
    };
    std::vector<double> parallel_s, single_s;
    const auto t0 = Clock::now();
    for (bool warm = false; secondsBetween(t0, Clock::now()) < budget ||
                            single_s.size() < 3;
         warm = true) {
        const auto p0 = Clock::now();
        std::vector<std::future<void>> pending;
        for (std::size_t i = 0; i < sessions; ++i)
            pending.push_back(pool.submit([&one, i] { one(i); }));
        for (auto &f : pending)
            f.get();
        const auto p1 = Clock::now();
        for (std::size_t i = 0; i < sessions; ++i)
            one(i);
        const auto p2 = Clock::now();
        attempted += 2 * sessions;
        if (warm) {
            parallel_s.push_back(secondsBetween(p0, p1));
            single_s.push_back(secondsBetween(p1, p2));
        }
    }
    std::printf("%s\n", Json()
                            .arr("parallel_s", parallel_s)
                            .arr("single_s", single_s)
                            .num("attempted", static_cast<double>(attempted))
                            .num("failed", static_cast<double>(failed.load()))
                            .text()
                            .c_str());
    return 0;
}

int
cmdComponents(const Args &args)
{
    // The served path's layers, called one by one on the upload bytes.
    Fleet fleet;
    if (!loadFleet(args, fleet))
        return 1;
    const std::size_t sessions = kComponentSessions;
    const uint64_t seed = static_cast<uint64_t>(args.num("seed"));
    serve::ResultSpool spool;
    std::string error;
    serve::ResultSpool::Options options;
    options.dir = args.str("spool-dir");
    options.maxResults = sessions + 1;
    if (!spool.open(options, &error)) {
        std::fprintf(stderr, "spool: %s\n", error.c_str());
        return 1;
    }
    SpanLog log(true);
    std::vector<double> parse_us, decode_us, pipeline_us, encode_us, spool_us;
    std::size_t failed = 0;
    const auto us = [](Clock::time_point a, Clock::time_point b) {
        return secondsBetween(a, b) * 1e6;
    };
    for (std::size_t s = 0; s < sessions; ++s) {
        const std::size_t b = s % fleet.blobs.size();
        const auto &blob = fleet.blobs[b];
        const auto id = sessionIdFor(seed, 1000, s);
        const std::string sid = serve::sessionIdToHex(id);
        std::vector<uint8_t> wire;
        for (std::size_t off = 0; off < blob.size(); off += kDataFrameBytes)
            serve::appendFrame(wire, serve::FrameType::Data, blob.data() + off,
                               std::min(kDataFrameBytes, blob.size() - off));

        const uint64_t root = log.newId();
        const auto t0 = Clock::now();
        std::vector<serve::Frame> frames;
        for (std::size_t off = 0; off < wire.size();) {
            serve::Frame frame;
            const long used = serve::parseFrame(wire.data() + off,
                                                wire.size() - off, frame,
                                                &error);
            if (used <= 0) {
                std::fprintf(stderr, "parseFrame: %s\n", error.c_str());
                return 1;
            }
            off += static_cast<std::size_t>(used);
            frames.push_back(std::move(frame));
        }
        const auto t1 = Clock::now();
        serve::EmcapStreamDecoder decoder;
        std::vector<dsp::Sample> samples;
        for (const auto &f : frames)
            decoder.feed(f.payload.data(), f.payload.size(), samples);
        const auto t2 = Clock::now();
        serve::SessionPipeline pipeline(profiler::EmProfConfig{});
        profiler::ProfileResult result;
        bool ok = true;
        for (const auto &f : frames)
            ok = ok && pipeline.feed(f.payload.data(), f.payload.size(),
                                     &error);
        ok = ok && pipeline.finish(result, &error);
        const auto t3 = Clock::now();
        const auto &quality = result.report.quality;
        const bool degraded = quality.enabled && quality.coverageFraction < 1.0;
        const auto payload = serve::encodeReportPayload(
            degraded ? 3u : 0u, pipeline.decoder().info().totalSamples,
            quality.enabled ? quality.coverageFraction : 1.0, result.events,
            result.report.toText(kServedTitle));
        const auto t4 = Clock::now();
        ok = ok && spool.append(id, degraded ? 3u : 0u, payload, &error);
        const auto t5 = Clock::now();
        if (!ok || !decoder.complete() ||
            fnv1aHex(payload.data(), payload.size()) != fleet.refs[b]) {
            std::fprintf(stderr, "component session %s failed: %s\n",
                         sid.c_str(), error.c_str());
            ++failed;
        }
        log.record("serve.parseFrame", t0, t1, log.newId(), root, sid);
        log.record("serve.EmcapStreamDecoder.feed", t1, t2, log.newId(), root,
                   sid);
        log.record("serve.SessionPipeline", t2, t3, log.newId(), root, sid);
        log.record("serve.encodeReportPayload", t3, t4, log.newId(), root,
                   sid);
        log.record("serve.ResultSpool.append", t4, t5, log.newId(), root, sid);
        log.record("serve.components", t0, t5, root, 0, sid);
        parse_us.push_back(us(t0, t1));
        decode_us.push_back(us(t1, t2));
        pipeline_us.push_back(us(t2, t3));
        encode_us.push_back(us(t3, t4));
        spool_us.push_back(us(t4, t5));
    }
    if (!log.writeChrome(args.str("trace-out"), 3))
        return 1;
    std::printf(
        "%s\n",
        Json()
            .num("serve.frame_parse_us", median(parse_us))
            .num("serve.stream_decode_us", median(decode_us))
            .num("serve.pipeline_us.p50", percentile(pipeline_us, 0.5))
            .num("serve.pipeline_us.p99",
                 percentile(pipeline_us, 0.99))
            .num("serve.report_encode_us", median(encode_us))
            .num("serve.spool_append_us.p50",
                 percentile(spool_us, 0.5))
            .num("serve.spool_append_us.p99",
                 percentile(spool_us, 0.99))
            .num("attempted", static_cast<double>(sessions))
            .num("failed", static_cast<double>(failed))
            .text()
            .c_str());
    return 0;
}

} // namespace perfbench
