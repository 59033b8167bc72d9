/**
 * @file
 * Disconnect-safety tests for the served path: a connection that dies
 * mid-upload parks the session and a reconnecting client resumes it
 * bit-identically (classic and resilient); wrong resume offsets and
 * unknown session ids draw typed BadResume errors; a finished report
 * survives a daemon restart in the durable spool and is replayed
 * verbatim; and the reconnecting client (pushResumable) rides through
 * an injected mid-upload drop end to end.  Runs under TSan in CI.
 */

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "../e2e/golden_common.hpp"
#include "scratch_dir.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

using namespace emprof;
using namespace emprof::serve;

namespace {

std::string
goldenPath(const char *name)
{
    return std::string(EMPROF_GOLDEN_DIR) + "/" + name;
}

std::vector<uint8_t>
readFileBytes(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << "missing fixture " << path;
    std::vector<uint8_t> bytes;
    if (f == nullptr)
        return bytes;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + got);
    std::fclose(f);
    return bytes;
}

std::vector<profiler::StallEvent>
loadExpected()
{
    std::FILE *f =
        std::fopen(goldenPath(golden::kExpectedFile).c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::string text;
    if (f != nullptr) {
        char buf[4096];
        std::size_t got;
        while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, got);
        std::fclose(f);
    }
    std::vector<profiler::StallEvent> events;
    std::string why;
    EXPECT_TRUE(golden::eventsFromJson(text, events, &why)) << why;
    return events;
}

void
expectEventsBitExact(const std::vector<profiler::StallEvent> &expected,
                     const std::vector<profiler::StallEvent> &actual,
                     const std::string &label)
{
    ASSERT_EQ(expected.size(), actual.size()) << label;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const auto &e = expected[i];
        const auto &a = actual[i];
        EXPECT_EQ(e.startSample, a.startSample) << label << " #" << i;
        EXPECT_EQ(e.endSample, a.endSample) << label << " #" << i;
        EXPECT_EQ(golden::doubleBits(e.depth),
                  golden::doubleBits(a.depth))
            << label << " #" << i;
        EXPECT_EQ(golden::doubleBits(e.durationNs),
                  golden::doubleBits(a.durationNs))
            << label << " #" << i;
        EXPECT_EQ(golden::doubleBits(e.stallCycles),
                  golden::doubleBits(a.stallCycles))
            << label << " #" << i;
        EXPECT_EQ(static_cast<int>(e.kind), static_cast<int>(a.kind))
            << label << " #" << i;
        EXPECT_EQ(static_cast<int>(e.level), static_cast<int>(a.level))
            << label << " #" << i;
        EXPECT_EQ(golden::doubleBits(e.levelConfidence),
                  golden::doubleBits(a.levelConfidence))
            << label << " #" << i;
    }
}

void
expectReportsBitExact(const DecodedReport &expected,
                      const DecodedReport &actual,
                      const std::string &label)
{
    EXPECT_EQ(expected.status, actual.status) << label;
    EXPECT_EQ(expected.totalSamples, actual.totalSamples) << label;
    EXPECT_EQ(golden::doubleBits(expected.coverageFraction),
              golden::doubleBits(actual.coverageFraction))
        << label;
    expectEventsBitExact(expected.events, actual.events, label);
    EXPECT_EQ(expected.reportText, actual.reportText) << label;
}

/** RAII server on a per-test unix socket (same shape as
 *  test_server.cpp's fixture, but keeps the caller's config). */
class ServerFixture
{
  public:
    explicit ServerFixture(ServerConfig config = {})
    {
        static std::atomic<int> counter{0};
        path_ = testing::TempDir() + "emprof_resume_test_" +
                std::to_string(::getpid()) + "_" +
                std::to_string(counter.fetch_add(1)) + ".sock";
        config.unixPath = path_;
        if (config.threads == 0)
            config.threads = 2;
        profiler::EmProfConfig analysis = golden::goldenConfig();
        analysis.sampleRateHz = 1.0;
        analysis.clockHz = 1.0;
        config.analysis = analysis;
        server_ = std::make_unique<Server>(std::move(config));
        std::string error;
        started_ = server_->start(&error);
        EXPECT_TRUE(started_) << error;
    }

    Endpoint
    endpoint() const
    {
        Endpoint ep;
        ep.tcp = false;
        ep.unixPath = path_;
        return ep;
    }

    Server &server() { return *server_; }

    template <typename Pred>
    bool
    waitFor(Pred done) const
    {
        for (int i = 0; i < 5000; ++i) {
            if (done(server_->stats()))
                return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return done(server_->stats());
    }

  private:
    std::string path_;
    std::unique_ptr<Server> server_;
    bool started_ = false;
};

/** Raw unix socket for driving frames without the Client helper. */
class RawConnection
{
  public:
    explicit RawConnection(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (fd_ < 0 || path.size() >= sizeof(addr.sun_path))
            return;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    bool ok() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    ~RawConnection()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

  private:
    int fd_ = -1;
};

/** Upload the first @p headBytes of @p bytes then drop the link; wait
 *  until the server has parked the session.  Returns the session id. */
SessionId
uploadHeadAndDrop(ServerFixture &fixture,
                  const std::vector<uint8_t> &bytes,
                  std::size_t headBytes, bool resilient)
{
    const uint64_t parkedBefore =
        fixture.server().stats().sessionsParked;
    SessionId id{};
    {
        Client client;
        std::string error;
        EXPECT_TRUE(client.connect(fixture.endpoint(), &error))
            << error;
        OpenRequest open{};
        open.flags = resilient ? kOpenResilient : 0u;
        uint64_t offset = 0;
        SessionState state = SessionState::Fresh;
        EXPECT_TRUE(client.openSession(open, id, offset, state,
                                       nullptr, &error))
            << error;
        EXPECT_EQ(static_cast<uint32_t>(state),
                  static_cast<uint32_t>(SessionState::Fresh));
        EXPECT_FALSE(sessionIdIsZero(id));
        EXPECT_TRUE(client.sendData(bytes.data(), headBytes, &error))
            << error;
        // Destructor closes the socket: the server sees EOF with the
        // upload unfinished and must park, not reject.
    }
    EXPECT_TRUE(fixture.waitFor([&](const ServerStats &s) {
        return s.sessionsParked > parkedBefore;
    })) << "session was never parked";
    return id;
}

/** Reconnect with @p id and finish the upload from the server's
 *  durable offset; returns the push result. */
PushResult
resumeAndFinish(ServerFixture &fixture,
                const std::vector<uint8_t> &bytes, const SessionId &id,
                bool resilient)
{
    Client client;
    std::string error;
    PushResult out;
    if (!client.connect(fixture.endpoint(), &error)) {
        out.error = error;
        return out;
    }
    OpenRequest open{};
    open.flags = (resilient ? kOpenResilient : 0u) | kOpenResume;
    std::memcpy(open.sessionId, id.data(), id.size());
    open.resumeFrom = kResumeQuery;
    SessionId echoed{};
    uint64_t offset = 0;
    SessionState state = SessionState::Fresh;
    ErrorCode code = ErrorCode::Internal;
    if (!client.openSession(open, echoed, offset, state, &code,
                            &error)) {
        out.error = error;
        out.errorCode = code;
        return out;
    }
    EXPECT_EQ(static_cast<uint32_t>(state),
              static_cast<uint32_t>(SessionState::Resumed));
    EXPECT_EQ(echoed, id);
    EXPECT_LE(offset, bytes.size());
    if (!client.sendData(bytes.data() + offset, bytes.size() - offset,
                         &error)) {
        out.error = error;
        return out;
    }
    out = client.finish();
    out.sessionId = echoed;
    return out;
}

} // namespace

TEST(Resume, DroppedUploadParksAndResumesBitIdentically)
{
    const auto bytes = readFileBytes(goldenPath(golden::kCaptureFile));
    ASSERT_FALSE(bytes.empty());
    const auto expected = loadExpected();
    ASSERT_FALSE(expected.empty());

    ServerFixture fixture;
    const SessionId id =
        uploadHeadAndDrop(fixture, bytes, bytes.size() / 2, false);
    const PushResult result =
        resumeAndFinish(fixture, bytes, id, false);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.report.status, 0u);
    EXPECT_EQ(result.report.totalSamples, golden::kSamples);
    expectEventsBitExact(expected, result.report.events, "resumed");

    const ServerStats stats = fixture.server().stats();
    EXPECT_EQ(stats.sessionsParked, 1u);
    EXPECT_EQ(stats.sessionsResumed, 1u);
    EXPECT_EQ(stats.sessionsCompleted, 1u);
}

TEST(Resume, ResilientSessionResumesBitIdentically)
{
    const auto bytes = readFileBytes(goldenPath(golden::kCaptureFile));
    ASSERT_FALSE(bytes.empty());

    ServerFixture fixture;

    // Uninterrupted resilient run: the reference this test compares
    // the resumed run against, bit for bit.
    Client reference;
    std::string error;
    ASSERT_TRUE(reference.connect(fixture.endpoint(), &error))
        << error;
    const PushResult uninterrupted =
        reference.push(bytes.data(), bytes.size(), true);
    ASSERT_TRUE(uninterrupted.ok) << uninterrupted.error;

    const SessionId id =
        uploadHeadAndDrop(fixture, bytes, bytes.size() / 3, true);
    const PushResult resumed = resumeAndFinish(fixture, bytes, id, true);
    ASSERT_TRUE(resumed.ok) << resumed.error;
    expectReportsBitExact(uninterrupted.report, resumed.report,
                          "resilient-resume");
}

TEST(Resume, EveryDropPointResumesBitIdentically)
{
    const auto bytes = readFileBytes(goldenPath(golden::kCaptureFile));
    ASSERT_FALSE(bytes.empty());
    const auto expected = loadExpected();
    ASSERT_FALSE(expected.empty());

    ServerFixture fixture;
    // Drop points chosen to straddle interesting boundaries: inside
    // the EMCAP header, mid-chunk, and one byte short of the end.
    const std::size_t cuts[] = {1, 7, bytes.size() / 4,
                                bytes.size() - 1};
    for (const std::size_t cut : cuts) {
        const SessionId id = uploadHeadAndDrop(fixture, bytes, cut,
                                               false);
        const PushResult result =
            resumeAndFinish(fixture, bytes, id, false);
        ASSERT_TRUE(result.ok)
            << "cut=" << cut << ": " << result.error;
        expectEventsBitExact(expected, result.report.events,
                             "cut=" + std::to_string(cut));
    }
}

TEST(Resume, WrongOffsetIsRejectedThenCorrectResumeStillWorks)
{
    const auto bytes = readFileBytes(goldenPath(golden::kCaptureFile));
    ASSERT_FALSE(bytes.empty());
    const auto expected = loadExpected();

    ServerFixture fixture;
    const std::size_t head = bytes.size() / 2;
    const SessionId id = uploadHeadAndDrop(fixture, bytes, head, false);

    // An offset past anything the server received cannot match its
    // durable offset; the reject must name both numbers.
    {
        Client client;
        std::string error;
        ASSERT_TRUE(client.connect(fixture.endpoint(), &error))
            << error;
        OpenRequest open{};
        open.flags = kOpenResume;
        std::memcpy(open.sessionId, id.data(), id.size());
        open.resumeFrom = head + 1;
        SessionId echoed{};
        uint64_t offset = 0;
        SessionState state = SessionState::Fresh;
        ErrorCode code = ErrorCode::Internal;
        EXPECT_FALSE(client.openSession(open, echoed, offset, state,
                                        &code, &error));
        EXPECT_EQ(static_cast<uint32_t>(code),
                  static_cast<uint32_t>(ErrorCode::BadResume))
            << error;
        EXPECT_NE(error.find("does not match"), std::string::npos)
            << error;
    }

    // The mismatch must not have consumed the parked session.
    const PushResult result =
        resumeAndFinish(fixture, bytes, id, false);
    ASSERT_TRUE(result.ok) << result.error;
    expectEventsBitExact(expected, result.report.events,
                         "resume-after-bad-offset");
}

TEST(Resume, ResilienceModeMismatchIsBadResume)
{
    const auto bytes = readFileBytes(goldenPath(golden::kCaptureFile));
    ASSERT_FALSE(bytes.empty());

    ServerFixture fixture;
    const SessionId id =
        uploadHeadAndDrop(fixture, bytes, bytes.size() / 2, false);

    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(fixture.endpoint(), &error)) << error;
    OpenRequest open{};
    open.flags = kOpenResume | kOpenResilient; // parked classic
    std::memcpy(open.sessionId, id.data(), id.size());
    open.resumeFrom = kResumeQuery;
    SessionId echoed{};
    uint64_t offset = 0;
    SessionState state = SessionState::Fresh;
    ErrorCode code = ErrorCode::Internal;
    EXPECT_FALSE(client.openSession(open, echoed, offset, state, &code,
                                    &error));
    EXPECT_EQ(static_cast<uint32_t>(code),
              static_cast<uint32_t>(ErrorCode::BadResume))
        << error;
    EXPECT_NE(error.find("resilience"), std::string::npos) << error;
}

TEST(Resume, UnknownSessionWithExplicitOffsetIsBadResume)
{
    ServerFixture fixture;
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(fixture.endpoint(), &error)) << error;

    OpenRequest open{};
    open.flags = kOpenResume;
    for (std::size_t i = 0; i < sizeof(open.sessionId); ++i)
        open.sessionId[i] = static_cast<uint8_t>(0xA0 + i);
    open.resumeFrom = 4096; // a concrete claim the server can't honour
    SessionId echoed{};
    uint64_t offset = 0;
    SessionState state = SessionState::Fresh;
    ErrorCode code = ErrorCode::Internal;
    EXPECT_FALSE(client.openSession(open, echoed, offset, state, &code,
                                    &error));
    EXPECT_EQ(static_cast<uint32_t>(code),
              static_cast<uint32_t>(ErrorCode::BadResume))
        << error;
    EXPECT_NE(error.find("unknown session"), std::string::npos)
        << error;
}

TEST(Resume, UnknownSessionWithQueryOffsetStartsFresh)
{
    // A client whose server restarted (parked state gone) queries with
    // its old id: the answer is Fresh-from-zero, not an error, so the
    // client can simply re-upload.
    ServerFixture fixture;
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(fixture.endpoint(), &error)) << error;

    OpenRequest open{};
    open.flags = kOpenResume;
    for (std::size_t i = 0; i < sizeof(open.sessionId); ++i)
        open.sessionId[i] = static_cast<uint8_t>(1 + i);
    open.resumeFrom = kResumeQuery;
    SessionId echoed{};
    uint64_t offset = 1;
    SessionState state = SessionState::Resumed;
    EXPECT_TRUE(client.openSession(open, echoed, offset, state,
                                   nullptr, &error))
        << error;
    EXPECT_EQ(static_cast<uint32_t>(state),
              static_cast<uint32_t>(SessionState::Fresh));
    EXPECT_EQ(offset, 0u);
    EXPECT_EQ(std::memcmp(echoed.data(), open.sessionId,
                          echoed.size()),
              0);
}

TEST(Resume, SpooledReportSurvivesDaemonRestartBitIdentically)
{
    const auto bytes = readFileBytes(goldenPath(golden::kCaptureFile));
    ASSERT_FALSE(bytes.empty());
    const auto expected = loadExpected();
    ASSERT_FALSE(expected.empty());

    const test::ScratchDir spool("resume_spool");
    const std::string &spoolDir = spool.path();
    DecodedReport original;
    SessionId id{};
    {
        ServerConfig config;
        config.spoolDir = spoolDir;
        ServerFixture fixture(config);
        Client client;
        std::string error;
        ASSERT_TRUE(client.connect(fixture.endpoint(), &error))
            << error;
        const PushResult result =
            client.push(bytes.data(), bytes.size());
        ASSERT_TRUE(result.ok) << result.error;
        original = result.report;
        id = result.sessionId;
        ASSERT_FALSE(sessionIdIsZero(id));
        fixture.server().stop();
    }

    // A fresh daemon on the same spool dir recovers the result...
    ServerConfig config;
    config.spoolDir = spoolDir;
    ServerFixture restarted(config);
    EXPECT_EQ(restarted.server().spool().recovery().results, 1u);

    // ...serves it to a resuming client as Complete + verbatim Report,
    {
        RawConnection conn(restarted.endpoint().unixPath);
        ASSERT_TRUE(conn.ok());
        OpenRequest open{};
        open.flags = kOpenResume;
        std::memcpy(open.sessionId, id.data(), id.size());
        open.resumeFrom = kResumeQuery;
        std::string error;
        ASSERT_TRUE(writeFrame(conn.fd(), FrameType::Open, &open,
                               sizeof(open), &error))
            << error;
        Frame ack;
        ASSERT_TRUE(readFrame(conn.fd(), ack, &error)) << error;
        ASSERT_EQ(static_cast<uint16_t>(ack.type),
                  static_cast<uint16_t>(FrameType::OpenAck));
        SessionId echoed{};
        uint64_t offset = 0;
        SessionState state = SessionState::Fresh;
        ASSERT_TRUE(decodeOpenAckPayload(ack.payload, echoed, offset,
                                         state, &error))
            << error;
        EXPECT_EQ(static_cast<uint32_t>(state),
                  static_cast<uint32_t>(SessionState::Complete));
        Frame report;
        ASSERT_TRUE(readFrame(conn.fd(), report, &error)) << error;
        ASSERT_EQ(static_cast<uint16_t>(report.type),
                  static_cast<uint16_t>(FrameType::Report));
        DecodedReport served;
        ASSERT_TRUE(decodeReportPayload(report.payload, served,
                                        &error))
            << error;
        expectReportsBitExact(original, served, "spool-replay");
        expectEventsBitExact(expected, served.events, "spool-replay");
    }
    EXPECT_EQ(restarted.server().stats().resultsServedFromSpool, 1u);

    // ...and the same bytes are fetchable straight from the spool.
    uint32_t status = 99;
    std::vector<uint8_t> payload;
    std::string error;
    ASSERT_TRUE(
        restarted.server().spool().fetch(id, status, payload, &error))
        << error;
    EXPECT_EQ(status, original.status);
    DecodedReport fetched;
    ASSERT_TRUE(decodeReportPayload(payload, fetched, &error)) << error;
    expectReportsBitExact(original, fetched, "spool-fetch");
}

TEST(Resume, RestartMidUploadFallsBackToFreshAndStaysBitIdentical)
{
    const auto bytes = readFileBytes(goldenPath(golden::kCaptureFile));
    ASSERT_FALSE(bytes.empty());
    const auto expected = loadExpected();

    const test::ScratchDir spool("resume_midrestart");
    const std::string &spoolDir = spool.path();
    SessionId id{};
    {
        ServerConfig config;
        config.spoolDir = spoolDir;
        ServerFixture fixture(config);
        id = uploadHeadAndDrop(fixture, bytes, bytes.size() / 2,
                               false);
        fixture.server().stop(); // parked state dies with the daemon
    }

    ServerConfig config;
    config.spoolDir = spoolDir;
    ServerFixture restarted(config);
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(restarted.endpoint(), &error)) << error;
    OpenRequest open{};
    open.flags = kOpenResume;
    std::memcpy(open.sessionId, id.data(), id.size());
    open.resumeFrom = kResumeQuery;
    SessionId echoed{};
    uint64_t offset = 1;
    SessionState state = SessionState::Resumed;
    ASSERT_TRUE(client.openSession(open, echoed, offset, state,
                                   nullptr, &error))
        << error;
    EXPECT_EQ(static_cast<uint32_t>(state),
              static_cast<uint32_t>(SessionState::Fresh));
    EXPECT_EQ(offset, 0u);
    ASSERT_TRUE(client.sendData(bytes.data(), bytes.size(), &error))
        << error;
    const PushResult result = client.finish();
    ASSERT_TRUE(result.ok) << result.error;
    expectEventsBitExact(expected, result.report.events,
                         "fresh-after-restart");
}

TEST(Resume, PushResumableRidesThroughInjectedDrop)
{
    const auto bytes = readFileBytes(goldenPath(golden::kCaptureFile));
    ASSERT_FALSE(bytes.empty());
    const auto expected = loadExpected();

    const test::ScratchDir spool("resume_pushdrop");
    ServerConfig config;
    config.spoolDir = spool.path();
    ServerFixture fixture(config);

    Client client;
    PushOptions options;
    options.uploadChunkBytes = 997;
    options.maxAttempts = 5;
    options.jitterSeed = 42;
    options.simulateDropAfterBytes = bytes.size() / 2;
    const PushResult result = client.pushResumable(
        fixture.endpoint(), bytes.data(), bytes.size(), options);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.attempts, 2u);
    EXPECT_FALSE(result.connectionLost);
    expectEventsBitExact(expected, result.report.events,
                         "push-resumable");
    EXPECT_EQ(fixture.server().stats().sessionsCompleted, 1u);
}

TEST(Resume, PushResumableFailsTypedWhenRetriesExhausted)
{
    // No listener at this path: every attempt is a transport failure,
    // so the result must be the typed retryable class (exit code 7 in
    // the tools), not a generic error.
    Endpoint ep;
    ep.tcp = false;
    ep.unixPath = testing::TempDir() + "emprof_resume_nowhere_" +
                  std::to_string(::getpid()) + ".sock";
    Client client;
    PushOptions options;
    options.maxAttempts = 2;
    options.backoffBaseMs = 1;
    options.jitterSeed = 7;
    const uint8_t junk[4] = {0, 1, 2, 3};
    const PushResult result =
        client.pushResumable(ep, junk, sizeof(junk), options);
    EXPECT_FALSE(result.ok);
    EXPECT_TRUE(result.connectionLost);
    EXPECT_EQ(result.attempts, 2u);
}
