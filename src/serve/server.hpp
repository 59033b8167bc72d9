/**
 * @file
 * The EMPROF ingest server: many concurrent capture-upload sessions
 * over unix and/or TCP sockets, analysed incrementally on a shared
 * thread pool.
 *
 * Threading model (see DESIGN.md §14 for the diagram):
 *
 *  - ONE I/O thread owns every socket: it accepts connections, reads
 *    bytes, parses EMFR frames, and enqueues Data payloads onto the
 *    owning session's pending queue.  The poll set is rebuilt each
 *    iteration from session state, and a self-pipe lets workers wake
 *    it (to resume a suspended socket or reap a finished session).
 *  - Analysis runs on the shared common::ThreadPool.  At most ONE
 *    task per session is in flight at a time (the "pump"): it drains
 *    the session's pending queue through its SessionPipeline, writes
 *    the Report/Error frames itself (blocking, MSG_NOSIGNAL), and
 *    reschedules itself only via new arrivals.  Chunks of one session
 *    are therefore strictly ordered while different sessions run in
 *    parallel — exactly the invariant SessionPipeline requires.
 *
 * Backpressure: each session's pending queue is byte-bounded.  When a
 * client uploads faster than analysis drains, the I/O thread stops
 * polling that socket for reads at the high watermark; the kernel
 * socket buffer then fills and the sender's write() blocks — flow
 * control all the way back to the device, with per-session memory
 * capped at queue budget + one span + halo (see session_pipeline.hpp).
 * Reads resume once the pump drains below half the budget.
 *
 * Failure containment: a malformed frame or bad EMCAP stream yields a
 * typed Error frame and quarantines only that session — the socket is
 * closed, counters are incremented, and every other session is
 * untouched.  Analysis exceptions surface as ErrorCode::Internal the
 * same way.  The server process never dies on client input.
 *
 * Shutdown: stop() closes the listeners, asks in-flight sessions to
 * abort (they reply ErrorCode::Shutdown), joins the I/O thread and
 * drains the pool (ThreadPool::drain()), so stop() returning means no
 * server thread exists and every fd is closed.
 *
 * Disconnect safety (DESIGN.md §15): a connection that dies mid-upload
 * no longer loses the session.  The I/O thread PARKS the session's
 * pipeline (decoder + stitcher state, keyed by session id) once the
 * pump has drained every received byte; a reconnecting client re-sends
 * the v2 Open with its session id and the OpenAck echoes the
 * element-aligned resume offset, so the upload continues bit-
 * identically.  Parked pipelines expire after resumeTtlSeconds.
 * Finished reports are appended (fsync'd) to the durable ResultSpool
 * BEFORE the Report frame is written, so a client whose connection
 * died between analysis and delivery — or a daemon restart — can
 * still collect the result: a resume of a spooled session is answered
 * with SessionState::Complete plus the verbatim spooled payload.
 */

#ifndef EMPROF_SERVE_SERVER_HPP
#define EMPROF_SERVE_SERVER_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "profiler/profiler.hpp"
#include "serve/governor.hpp"
#include "serve/spool.hpp"

namespace emprof::serve {

struct ServerConfig
{
    /** Unix-domain listener path; empty disables it. */
    std::string unixPath;

    /** TCP listener (loopback) port; -1 disables, 0 picks a free
     *  port (see Server::tcpPort()). */
    int tcpPort = -1;

    /** Analysis worker threads; 0 means hardwareThreads(). */
    std::size_t threads = 0;

    /** Concurrent session cap; further Opens get ErrorCode::Busy. */
    std::size_t maxSessions = 64;

    /**
     * Per-session pending-queue budget in bytes: the high watermark
     * where the server stops reading that socket (backpressure).
     */
    std::size_t sessionBufferBytes = std::size_t{8} << 20;

    /** Analysis span length; 0 = auto (see SessionPipeline). */
    std::size_t spanSamples = 0;

    /** Durable result spool directory; empty disables spooling. */
    std::string spoolDir;

    /** Spool retention: live (un-collected) results kept. */
    uint64_t spoolRetain = 4096;

    /** How long a disconnected session's pipeline stays parked. */
    double resumeTtlSeconds = 300;

    /** Concurrent parked-pipeline cap; past it the oldest is dropped
     *  (its client restarts from offset 0 — correct, just slower). */
    std::size_t maxParked = 256;

    // ---- Overload hardening (all 0 = disabled: a default-configured
    // ---- server behaves bit-for-bit as before) ----

    /** Shed a session after this long with no bytes arriving on its
     *  socket (typed ErrorCode::IdleTimeout; the pipeline is parked,
     *  so a resume continues the upload).  Suspended (backpressured)
     *  and analysis-owned sessions are exempt — their stall is the
     *  server's doing, not the client's. */
    double idleTimeoutSeconds = 0;

    /** Hard wall-clock bound on a session's total lifetime, pump
     *  state notwithstanding. */
    double sessionDeadlineSeconds = 0;

    /** Slow-sender watchdog: minimum upload rate (bytes/sec) over a
     *  sliding window of minRateWindowSeconds; below it the session
     *  is shed like an idle one.  Defeats slow-loris clients that
     *  trickle just enough to dodge the idle timeout. */
    double minRateBytesPerSec = 0;
    double minRateWindowSeconds = 10;

    /** Admission-control / load-shedding watermarks (governor.hpp);
     *  every 0 disables that check. */
    LoadWatermarks watermarks;

    /**
     * Base analysis config for every session.  sampleRateHz/clockHz
     * are taken from each uploaded capture's header; the signal
     * (resilience) layer is enabled per session by the Open flag.
     */
    profiler::EmProfConfig analysis;
};

/**
 * Per-server counters for tests, the status line and the scrape.
 * Every field but sessionsActive (a level) only grows.  They are kept
 * per server even with observability on: the obs registry is
 * process-wide and off by default, so it only mirrors these values.
 */
struct ServerStats
{
    uint64_t sessionsAccepted = 0;
    uint64_t sessionsCompleted = 0; ///< Report sent (ok or degraded)
    uint64_t sessionsRejected = 0;  ///< a typed Error frame was sent
    uint64_t sessionsAborted = 0;   ///< connection died, no reply sent
    uint64_t sessionsActive = 0;
    uint64_t bytesIngested = 0;   ///< Data payload bytes accepted
    uint64_t framesMalformed = 0; ///< frame-layer rejections
    uint64_t sessionsParked = 0;  ///< connection died, pipeline kept
    uint64_t sessionsResumed = 0; ///< parked pipeline reattached
    uint64_t resultsSpooled = 0;  ///< reports made durable on disk
    uint64_t resultsServedFromSpool = 0; ///< resumes answered Complete

    // ---- overload hardening ----
    uint64_t sessionsTimedOut = 0; ///< idle/deadline/rate-floor sheds
    uint64_t sessionsShed = 0;     ///< hard-watermark load sheds
    uint64_t retryAfterSent = 0;   ///< RetryAfter rejections sent
    uint64_t acceptFdExhausted = 0; ///< EMFILE/ENFILE on accept()
    uint64_t resultsSpoolFailed = 0; ///< appends that degraded to
                                     ///< non-durable serving
    uint64_t parkedEvicted = 0; ///< maxParked pushed one out early
    uint64_t parkedExpired = 0; ///< resume TTL ran out
};

/** Number of ServerStats fields (the rows of the counter table). */
inline constexpr std::size_t kServerStatCount =
    sizeof(ServerStats) / sizeof(uint64_t);

class Server
{
  public:
    explicit Server(ServerConfig config);

    /** stop() implicitly. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the listeners and start the I/O thread + pool.
     *
     * @retval false Could not bind/listen; @p error says why.
     */
    bool start(std::string *error = nullptr);

    /** Graceful shutdown; idempotent.  See file comment. */
    void stop();

    bool running() const { return running_.load(); }

    /** Actual TCP port (after start() with tcpPort == 0). */
    int tcpPort() const { return boundTcpPort_; }

    ServerStats stats() const;

    /** The durable result spool (closed unless spoolDir was set). */
    const ResultSpool &spool() const { return spool_; }

  private:
    struct Session;
    struct Listener;
    struct Parked;

    void ioLoop();
    void acceptPending(int listenFd);
    void handleReadable(const std::shared_ptr<Session> &session);
    void handleOpen(const std::shared_ptr<Session> &session,
                    const OpenRequest &open);
    void pump(std::shared_ptr<Session> session);
    void schedulePump(const std::shared_ptr<Session> &session);
    void rejectAndClose(const std::shared_ptr<Session> &session,
                        ErrorCode code, const std::string &message,
                        uint32_t retryAfterMs = 0);

    /**
     * Add @p n to one ServerStats field and its obs mirror; returns
     * the value before.  Lock-free, so it is safe under any lock.
     */
    uint64_t count(uint64_t ServerStats::*field, int64_t n = 1);

    /** Write one typed Error frame (RetryAfter carries @p retryAfterMs)
     *  with a bounded send and count the rejection. */
    void sendError(int fd, ErrorCode code, const std::string &message,
                   uint32_t retryAfterMs = 0);
    void parkSession(const std::shared_ptr<Session> &session);
    void purgeParked();
    void wake();

    // ---- overload hardening (all I/O-thread-only) ----

    /** One tick's resource picture for the LoadGovernor. */
    LoadSnapshot currentSnapshot();

    /** Idle/deadline/rate enforcement + watermark classification and
     *  hard shedding; runs once per poll tick over @p polled. */
    void enforceOverload(
        const std::vector<std::shared_ptr<Session>> &polled);

    /** Dispose of one session with a typed error: direct write +
     *  park when the I/O thread owns it, via the pump's abort path
     *  when analysis does. */
    void shedSession(const std::shared_ptr<Session> &session,
                     ErrorCode code, const std::string &message,
                     uint32_t retryAfterMs);

    /** The one-byte HealthRequest answer for this tick. */
    HealthState healthStateNow() const;

    ServerConfig config_;
    std::unique_ptr<common::ThreadPool> pool_;
    std::thread ioThread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};

    std::vector<Listener> listeners_;
    int boundTcpPort_ = -1;
    int wakePipe_[2] = {-1, -1};

    LoadGovernor governor_;

    /** Reserved fd (/dev/null): on EMFILE it is released so ONE
     *  connection can be accepted, told RetryAfter, and closed —
     *  instead of the whole backlog starving silently. */
    int emergencyFd_ = -1;

    /** I/O-thread-only: listeners sit out of the poll set until this
     *  instant (set on accept errors so a ready-but-unacceptable
     *  listener cannot spin the loop hot). */
    std::chrono::steady_clock::time_point listenerMuteUntil_{};

    /** I/O-thread-only: last tick's aggregate queue bytes (feeds the
     *  governor snapshot) and overload level (feeds healthz). */
    std::size_t lastQueueBytes_ = 0;
    LoadGovernor::Level lastLevel_ = LoadGovernor::Level::Normal;

    mutable std::mutex sessionsMutex_;
    std::vector<std::shared_ptr<Session>> sessions_;

    /** Pipelines of disconnected sessions, keyed by session-id hex;
     *  under sessionsMutex_ (entries destroyed outside the lock). */
    std::map<std::string, std::shared_ptr<Parked>> parked_;

    ResultSpool spool_;

    /** ServerStats values, indexed like the counter table. */
    std::array<std::atomic<uint64_t>, kServerStatCount> counts_{};
};

} // namespace emprof::serve

#endif // EMPROF_SERVE_SERVER_HPP
