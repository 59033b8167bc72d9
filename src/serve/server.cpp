#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <random>
#include <string_view>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "serve/chaos.hpp"
#include "serve/frame.hpp"
#include "serve/session_pipeline.hpp"

namespace emprof::serve {

namespace {

/** One row per ServerStats field, in scrape order: the field and the
 *  name it is scraped and mirrored under. */
struct StatRow
{
    uint64_t ServerStats::*field;
    const char *name;
};

constexpr StatRow kStatTable[] = {
    {&ServerStats::sessionsAccepted, "emprof.serve.sessions_accepted"},
    {&ServerStats::sessionsCompleted, "emprof.serve.sessions_completed"},
    {&ServerStats::sessionsRejected, "emprof.serve.sessions_rejected"},
    {&ServerStats::sessionsActive, "emprof.serve.sessions_active"},
    {&ServerStats::bytesIngested, "emprof.serve.bytes_ingested"},
    {&ServerStats::framesMalformed, "emprof.serve.frames_malformed"},
    {&ServerStats::sessionsParked, "emprof.serve.sessions_parked"},
    {&ServerStats::sessionsResumed, "emprof.serve.sessions_resumed"},
    {&ServerStats::resultsSpooled, "emprof.serve.results_spooled"},
    {&ServerStats::resultsServedFromSpool,
     "emprof.serve.results_served_from_spool"},
    {&ServerStats::sessionsAborted, "emprof.serve.sessions_aborted"},
    {&ServerStats::sessionsTimedOut, "emprof.serve.sessions_timed_out"},
    {&ServerStats::sessionsShed, "emprof.serve.sessions_shed"},
    {&ServerStats::retryAfterSent, "emprof.serve.retry_after_sent"},
    {&ServerStats::acceptFdExhausted,
     "emprof.serve.accept_fd_exhausted"},
    {&ServerStats::resultsSpoolFailed,
     "emprof.serve.results_spool_failed"},
    {&ServerStats::parkedEvicted, "emprof.serve.parked_evicted"},
    {&ServerStats::parkedExpired, "emprof.serve.parked_expired"},
};

constexpr bool
everyFieldOnce()
{
    for (std::size_t i = 0; i < std::size(kStatTable); ++i)
        for (std::size_t j = i + 1; j < std::size(kStatTable); ++j)
            if (kStatTable[i].field == kStatTable[j].field)
                return false;
    return std::size(kStatTable) == kServerStatCount;
}
static_assert(everyFieldOnce(), "one table row per ServerStats field");

std::size_t
rowOf(uint64_t ServerStats::*field)
{
    std::size_t row = 0;
    while (kStatTable[row].field != field)
        ++row;
    return row;
}

/** obs mirrors of the table plus the serve gauges and histograms,
 *  registered together so --metrics-out lists each one even at 0.
 *  Updates are no-ops while obs is disabled. */
struct ObsMirror
{
    /** By table row; sessions_active is the gauge below instead. */
    std::array<obs::Counter, kServerStatCount> counters;
    obs::Gauge sessionsActive;
    obs::Gauge queueDepthBytes;
    obs::Histogram sessionUs;
    obs::Histogram feedUs;
};

const ObsMirror &
obsMirror()
{
    static const ObsMirror m = [] {
        auto &reg = obs::MetricsRegistry::instance();
        ObsMirror v;
        for (std::size_t row = 0; row < kServerStatCount; ++row)
            if (kStatTable[row].field != &ServerStats::sessionsActive)
                v.counters[row] = reg.counter(kStatTable[row].name);
        v.sessionsActive = reg.gauge("emprof.serve.sessions_active");
        v.queueDepthBytes = reg.gauge("emprof.serve.queue_depth_bytes");
        v.sessionUs = reg.histogram("emprof.serve.stage.session_us");
        v.feedUs = reg.histogram("emprof.serve.stage.feed_us");
        return v;
    }();
    return m;
}

/** The StatsRequest answer: the counter table, then the rest of the
 *  obs scrape when observability is on. */
std::string
scrapeText(const ServerStats &s)
{
    std::string text;
    for (const StatRow &row : kStatTable)
        text += std::string(row.name) + " " +
                std::to_string(s.*row.field) + "\n";
    if (!obs::MetricsRegistry::enabled())
        return text;
    // The registry mirrors the table: print each name once, with the
    // per-server value (the registry is shared by every server).
    // Every metricsToText() line ends in '\n'.
    const std::string registry = obs::metricsToText();
    for (std::size_t at = 0; at < registry.size();) {
        const std::size_t end = registry.find('\n', at) + 1;
        const std::string_view line(registry.data() + at, end - at);
        const std::string_view name = line.substr(0, line.find(' '));
        if (std::none_of(std::begin(kStatTable), std::end(kStatTable),
                         [&](const StatRow &row) {
                             return name == row.name;
                         }))
            text += line;
        at = end;
    }
    return text;
}

uint64_t
elapsedUs(std::chrono::steady_clock::time_point since)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - since)
            .count());
}

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/**
 * Bound a blocking send on @p fd.  A rejected or shed session's peer
 * may be hostile — it may never read — so every typed-error write
 * carries a timeout, or the I/O thread wedges on a full socket buffer
 * (the one thread every session depends on).
 */
void
setSendTimeoutMs(int fd, int ms)
{
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/** Send-timeout applied to every typed-error write. */
constexpr int kShedWriteTimeoutMs = 1000;

/** The I/O loop's poll timeout, and how long a listener that failed
 *  to accept sits out of the poll set. */
constexpr int kPollTickMs = 200;

SessionId
randomSessionId()
{
    static std::mutex mutex;
    static std::mt19937_64 rng{[] {
        std::random_device rd;
        return (uint64_t{rd()} << 32) ^ rd() ^
               static_cast<uint64_t>(
                   std::chrono::steady_clock::now()
                       .time_since_epoch()
                       .count());
    }()};
    std::lock_guard<std::mutex> lock(mutex);
    SessionId id;
    for (std::size_t i = 0; i < id.size(); i += 8) {
        const uint64_t word = rng();
        std::memcpy(id.data() + i, &word, 8);
    }
    return id;
}

} // namespace

struct Server::Listener
{
    int fd = -1;
    bool tcp = false;
};

struct Server::Session
{
    ~Session()
    {
        if (fd >= 0)
            ::close(fd);
    }

    int fd = -1;
    std::chrono::steady_clock::time_point openedAt;

    // ---- I/O-thread-only state ----
    std::vector<uint8_t> inbox; ///< unparsed bytes off the socket
    bool openSeen = false;
    bool suspended = false; ///< reads paused (backpressure)
    SessionId id{};         ///< assigned (or adopted) at Open

    // ---- I/O-thread-only overload bookkeeping ----
    /** Last instant bytes arrived (or a server-side stall — pump or
     *  backpressure — excused the silence). */
    std::chrono::steady_clock::time_point lastProgressAt;
    uint64_t socketBytesRead = 0; ///< raw bytes read off the socket
    std::chrono::steady_clock::time_point rateWindowStart;
    uint64_t rateWindowBase = 0; ///< socketBytesRead at window start

    // ---- shared queue (mutex-guarded) ----
    std::mutex mutex;
    std::deque<std::vector<uint8_t>> pending; ///< Data payloads
    std::size_t pendingBytes = 0;
    bool finishRequested = false;
    bool taskInFlight = false;

    /** Set (under mutex) by the I/O thread before aborted when a
     *  pump-owned session is shed, so the pump's abort path replies
     *  with the shed's typed error instead of generic Shutdown. */
    uint32_t shedCode = 0; ///< ErrorCode; 0 = not a shed
    std::string shedMessage;
    uint32_t shedRetryAfterMs = 0;

    // ---- cross-thread flags ----
    std::atomic<bool> closed{false};  ///< reap me (I/O thread acts)
    std::atomic<bool> aborted{false}; ///< server shutting down
    std::atomic<bool> replied{false}; ///< Report or Error was sent

    /** Worker-owned after Open (the pump is the only caller). */
    std::unique_ptr<SessionPipeline> pipeline;
};

/**
 * A disconnected session's analysis state, waiting for its client to
 * reconnect.  Held in parked_ until resumed, expired (TTL) or evicted
 * (maxParked).
 */
struct Server::Parked
{
    std::unique_ptr<SessionPipeline> pipeline;
    uint64_t resumeOffset = 0;  ///< element-aligned durable offset
    bool resilient = false;     ///< must match the resuming Open
    std::chrono::steady_clock::time_point deadline;
};

Server::Server(ServerConfig config) : config_(std::move(config)) {}

Server::~Server() { stop(); }

bool
Server::start(std::string *error)
{
    const auto fail = [&](const std::string &message) {
        if (error != nullptr)
            *error = message;
        for (auto &l : listeners_)
            ::close(l.fd);
        listeners_.clear();
        for (int &fd : wakePipe_) {
            if (fd >= 0)
                ::close(fd);
            fd = -1;
        }
        spool_.close();
        return false;
    };

    if (running_.load())
        return fail("server already running");
    if (config_.unixPath.empty() && config_.tcpPort < 0)
        return fail("no listener configured (unix path or tcp port)");

    if (!config_.spoolDir.empty()) {
        ResultSpool::Options opts;
        opts.dir = config_.spoolDir;
        opts.maxResults = config_.spoolRetain;
        std::string why;
        if (!spool_.open(opts, &why))
            return fail("cannot open result spool: " + why);
    }

    if (::pipe(wakePipe_) != 0)
        return fail(std::string("pipe failed: ") +
                    std::strerror(errno));
    setNonBlocking(wakePipe_[0]);
    setNonBlocking(wakePipe_[1]);

    if (!config_.unixPath.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (config_.unixPath.size() >= sizeof(addr.sun_path))
            return fail("unix socket path too long");
        std::strncpy(addr.sun_path, config_.unixPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return fail(std::string("socket failed: ") +
                        std::strerror(errno));
        ::unlink(config_.unixPath.c_str()); // stale socket from a crash
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(fd, 128) != 0) {
            const int e = errno;
            ::close(fd);
            return fail("cannot listen on " + config_.unixPath + ": " +
                        std::strerror(e));
        }
        setNonBlocking(fd);
        listeners_.push_back({fd, false});
    }

    if (config_.tcpPort >= 0) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            return fail(std::string("socket failed: ") +
                        std::strerror(errno));
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port =
            htons(static_cast<uint16_t>(config_.tcpPort));
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(fd, 128) != 0) {
            const int e = errno;
            ::close(fd);
            return fail("cannot listen on tcp port " +
                        std::to_string(config_.tcpPort) + ": " +
                        std::strerror(e));
        }
        socklen_t len = sizeof(addr);
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len);
        boundTcpPort_ = static_cast<int>(ntohs(addr.sin_port));
        setNonBlocking(fd);
        listeners_.push_back({fd, true});
    }

    governor_.configure(config_.watermarks);
    lastLevel_ = LoadGovernor::Level::Normal;
    lastQueueBytes_ = 0;
    listenerMuteUntil_ = {};
    // The emergency reserve: one fd parked on /dev/null that EMFILE
    // handling can spend to accept-and-reject a single connection.
    emergencyFd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);

    pool_ = std::make_unique<common::ThreadPool>(config_.threads);
    stopping_.store(false);
    running_.store(true);
    ioThread_ = std::thread([this] { ioLoop(); });
    return true;
}

void
Server::stop()
{
    if (!running_.exchange(false))
        return;
    stopping_.store(true);
    wake();
    if (ioThread_.joinable())
        ioThread_.join();

    // Tell in-flight sessions to bail, then run the pool dry so every
    // pump observes the abort and replies Shutdown before its session
    // (and fd) is released.
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        for (auto &s : sessions_)
            s->aborted.store(true);
    }
    pool_->drain();

    std::vector<std::shared_ptr<Session>> leftovers;
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        leftovers.swap(sessions_);
    }
    for (auto &s : leftovers) {
        if (!s->openSeen)
            continue;
        count(&ServerStats::sessionsActive, -1);
        if (!s->replied.exchange(true))
            sendError(s->fd, ErrorCode::Shutdown, "server shutting down");
    }
    leftovers.clear(); // destructors close the fds

    // Parked pipelines die with the process anyway on a real restart;
    // dropping them is safe because a resume of an unknown id simply
    // starts the upload over from offset 0.
    std::map<std::string, std::shared_ptr<Parked>> parked;
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        parked.swap(parked_);
    }
    parked.clear();
    spool_.close();

    for (auto &l : listeners_)
        ::close(l.fd);
    listeners_.clear();
    if (!config_.unixPath.empty())
        ::unlink(config_.unixPath.c_str());
    for (int &fd : wakePipe_) {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }
    if (emergencyFd_ >= 0) {
        ::close(emergencyFd_);
        emergencyFd_ = -1;
    }
}

ServerStats
Server::stats() const
{
    ServerStats out;
    for (std::size_t row = 0; row < kServerStatCount; ++row)
        out.*kStatTable[row].field = counts_[row].load();
    return out;
}

uint64_t
Server::count(uint64_t ServerStats::*field, int64_t n)
{
    const std::size_t row = rowOf(field);
    const uint64_t before =
        counts_[row].fetch_add(static_cast<uint64_t>(n));
    if (obs::MetricsRegistry::enabled()) {
        const ObsMirror &mirror = obsMirror();
        if (field == &ServerStats::sessionsActive)
            mirror.sessionsActive.set(static_cast<int64_t>(before) + n);
        else
            mirror.counters[row].add(static_cast<uint64_t>(n));
    }
    return before;
}

void
Server::sendError(int fd, ErrorCode code, const std::string &message,
                  uint32_t retryAfterMs)
{
    setSendTimeoutMs(fd, kShedWriteTimeoutMs);
    const auto payload = code == ErrorCode::RetryAfter
                             ? encodeRetryAfterPayload(retryAfterMs, message)
                             : encodeErrorPayload(code, message);
    writeFrame(fd, FrameType::Error, payload.data(), payload.size());
    // RetryAfter first: whoever sees the rejection sees its kind.
    if (code == ErrorCode::RetryAfter)
        count(&ServerStats::retryAfterSent);
    count(&ServerStats::sessionsRejected);
}

void
Server::wake()
{
    const char byte = 1;
    // Best effort: a full pipe already guarantees a pending wakeup.
    (void)!::write(wakePipe_[1], &byte, 1);
}

void
Server::ioLoop()
{
    std::vector<pollfd> fds;
    std::vector<std::shared_ptr<Session>> polled;

    while (!stopping_.load()) {
        fds.clear();
        polled.clear();
        fds.push_back({wakePipe_[0], POLLIN, 0});
        // A muted listener stays in the set (events = 0) so the index
        // arithmetic below is unconditional; it just cannot wake us.
        const bool listeners_muted =
            std::chrono::steady_clock::now() < listenerMuteUntil_;
        for (const auto &l : listeners_)
            fds.push_back(
                {l.fd,
                 static_cast<short>(listeners_muted ? 0 : POLLIN), 0});

        std::size_t queue_bytes = 0;
        {
            std::lock_guard<std::mutex> lock(sessionsMutex_);
            for (const auto &s : sessions_) {
                if (s->closed.load())
                    continue;
                std::size_t pending_bytes;
                {
                    std::lock_guard<std::mutex> qlock(s->mutex);
                    pending_bytes = s->pendingBytes;
                }
                queue_bytes += pending_bytes;
                // Hysteresis: stop reading at the budget, resume
                // only once the pump drained below half of it.
                if (!s->suspended &&
                    pending_bytes >= config_.sessionBufferBytes)
                    s->suspended = true;
                else if (s->suspended &&
                         pending_bytes <=
                             config_.sessionBufferBytes / 2)
                    s->suspended = false;
                fds.push_back(
                    {s->fd,
                     static_cast<short>(s->suspended ? 0 : POLLIN),
                     0});
                polled.push_back(s);
            }
        }
        obsMirror().queueDepthBytes.set(
            static_cast<int64_t>(queue_bytes));
        lastQueueBytes_ = queue_bytes;

        const int n = ::poll(fds.data(), fds.size(), kPollTickMs);
        if (n < 0 && errno != EINTR)
            break; // poll itself failed; nothing sane left to do
        if (stopping_.load())
            break;

        std::size_t idx = 0;
        if (fds[idx].revents & POLLIN) {
            char buf[64];
            while (::read(wakePipe_[0], buf, sizeof(buf)) > 0) {
            }
        }
        ++idx;
        for (const auto &l : listeners_) {
            if (fds[idx].revents & POLLIN)
                acceptPending(l.fd);
            ++idx;
        }
        for (std::size_t i = 0; i < polled.size(); ++i) {
            const short got = fds[idx + i].revents;
            if (got & (POLLIN | POLLHUP | POLLERR))
                handleReadable(polled[i]);
        }

        enforceOverload(polled);

        // Reap sessions whose pump (or this loop) marked them closed.
        {
            std::lock_guard<std::mutex> lock(sessionsMutex_);
            auto keep = sessions_.begin();
            for (auto &s : sessions_) {
                if (!s->closed.load())
                    *keep++ = s;
                else if (s->openSeen) // dtor closes the fd later
                    count(&ServerStats::sessionsActive, -1);
            }
            sessions_.erase(keep, sessions_.end());
        }
        purgeParked();
    }
}

void
Server::purgeParked()
{
    // Collect expired entries under the lock, destroy them outside it
    // (a pipeline teardown is not free).
    std::vector<std::shared_ptr<Parked>> expired;
    const auto now = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        for (auto it = parked_.begin(); it != parked_.end();) {
            if (it->second->deadline <= now) {
                expired.push_back(std::move(it->second));
                it = parked_.erase(it);
            } else {
                ++it;
            }
        }
        count(&ServerStats::parkedExpired,
              static_cast<int64_t>(expired.size()));
    }
    expired.clear();
}

void
Server::parkSession(const std::shared_ptr<Session> &session)
{
    auto parked = std::make_shared<Parked>();
    parked->resumeOffset = session->pipeline->rewindToResumable();
    parked->resilient = session->pipeline->resilient();
    parked->pipeline = std::move(session->pipeline);
    parked->deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(config_.resumeTtlSeconds));

    std::shared_ptr<Parked> evicted;
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        if (parked_.size() >= config_.maxParked) {
            // Evict the entry closest to expiry; its client falls
            // back to a fresh upload from offset 0.
            auto oldest = parked_.begin();
            for (auto it = parked_.begin(); it != parked_.end(); ++it)
                if (it->second->deadline < oldest->second->deadline)
                    oldest = it;
            evicted = std::move(oldest->second);
            parked_.erase(oldest);
            count(&ServerStats::parkedEvicted);
        }
        parked_[sessionIdToHex(session->id)] = std::move(parked);
        count(&ServerStats::sessionsParked);
    }
    session->replied.store(true); // no reply possible; don't count it
    session->closed.store(true);
    evicted.reset();
}

void
Server::acceptPending(int listenFd)
{
    for (;;) {
        int fd;
        int chaos_errno = 0;
        if (ChaosInjector::stealAccept(&chaos_errno)) {
            fd = -1;
            errno = chaos_errno;
        } else {
            fd = ::accept(listenFd, nullptr, nullptr);
        }
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return; // backlog drained: the normal exit
            if (errno == ECONNABORTED)
                continue; // that one connection died; the next may not
            if (errno == EMFILE || errno == ENFILE) {
                // fd exhaustion.  The listener stays readable, so a
                // blanket return would spin the poll loop hot doing
                // nothing.  Spend the emergency fd to accept ONE
                // waiting connection and tell it (typed RetryAfter)
                // to come back, then mute the listener for a tick.
                count(&ServerStats::acceptFdExhausted);
                if (emergencyFd_ >= 0) {
                    ::close(emergencyFd_);
                    emergencyFd_ = -1;
                    const int efd =
                        ::accept(listenFd, nullptr, nullptr);
                    if (efd >= 0) {
                        sendError(efd, ErrorCode::RetryAfter,
                                  "server out of file descriptors; "
                                  "retry later",
                                  governor_.watermarks().retryAfterBaseMs);
                        ::close(efd);
                    }
                    emergencyFd_ =
                        ::open("/dev/null", O_RDONLY | O_CLOEXEC);
                }
            }
            // fd exhaustion or an unknown persistent accept failure:
            // do not spin on a listener we cannot drain; sit out one
            // tick.
            listenerMuteUntil_ = std::chrono::steady_clock::now() +
                                 std::chrono::milliseconds(kPollTickMs);
            return;
        }
        auto session = std::make_shared<Session>();
        session->fd = fd;
        session->openedAt = std::chrono::steady_clock::now();
        session->lastProgressAt = session->openedAt;
        session->rateWindowStart = session->openedAt;
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        sessions_.push_back(std::move(session));
    }
}

void
Server::rejectAndClose(const std::shared_ptr<Session> &session,
                       ErrorCode code, const std::string &message,
                       uint32_t retryAfterMs)
{
    if (!session->replied.exchange(true))
        sendError(session->fd, code, message, retryAfterMs);
    session->closed.store(true);
}

void
Server::handleReadable(const std::shared_ptr<Session> &session)
{
    if (session->closed.load())
        return;

    uint8_t buf[64 * 1024];
    const ssize_t n = ::read(session->fd, buf, sizeof(buf));
    if (n <= 0) {
        if (n < 0 && (errno == EINTR || errno == EAGAIN))
            return;
        // EOF or read error: the connection is gone mid-session.  If
        // the pump still owns the session (task in flight, or Finish
        // already queued), leave it alone — the fd stays readable, so
        // this branch re-runs every poll iteration until the pump has
        // either replied (result then sits in the spool) or drained
        // every received byte, at which point the pipeline can be
        // parked for a resume.  Parking instead of rejecting is what
        // turns a dropped connection into a recoverable event.
        bool pump_owns;
        {
            std::lock_guard<std::mutex> qlock(session->mutex);
            pump_owns =
                session->taskInFlight || session->finishRequested;
        }
        if (pump_owns)
            return;
        if (session->openSeen && !session->replied.load() &&
            session->pipeline != nullptr &&
            !session->pipeline->poisoned() && !stopping_.load()) {
            parkSession(session);
            return;
        }
        if (session->socketBytesRead > 0 &&
            !session->replied.exchange(true)) {
            // The connection spoke, then died with nothing said (and
            // no parkable session): an abort, distinct from the
            // typed-Error rejections.  Covers both an unparkable
            // opened session and a handshake torn mid-Open — the
            // reconnect herd's signature.  Zero-byte connects (port
            // scanners, TCP health checks) stay uncounted.
            count(&ServerStats::sessionsAborted);
        }
        session->closed.store(true);
        return;
    }

    session->lastProgressAt = std::chrono::steady_clock::now();
    session->socketBytesRead += static_cast<uint64_t>(n);
    session->inbox.insert(session->inbox.end(), buf, buf + n);

    for (;;) {
        Frame frame;
        std::string parse_error;
        const long consumed =
            parseFrame(session->inbox.data(), session->inbox.size(),
                       frame, &parse_error);
        if (consumed == 0)
            return; // incomplete; wait for more bytes
        if (consumed < 0) {
            count(&ServerStats::framesMalformed);
            rejectAndClose(session, ErrorCode::Malformed, parse_error);
            return;
        }
        session->inbox.erase(session->inbox.begin(),
                             session->inbox.begin() + consumed);

        switch (frame.type) {
        case FrameType::Open: {
            if (session->openSeen ||
                frame.payload.size() != sizeof(OpenRequest)) {
                rejectAndClose(session, ErrorCode::Malformed,
                               session->openSeen ? "duplicate Open frame"
                                                 : "bad Open payload");
                return;
            }
            OpenRequest open{};
            std::memcpy(&open, frame.payload.data(), sizeof(open));
            handleOpen(session, open);
            if (session->closed.load() || session->replied.load())
                return;
            break;
        }
        case FrameType::Data: {
            if (!session->openSeen) {
                rejectAndClose(session, ErrorCode::Malformed,
                               "Data before Open");
                return;
            }
            const std::size_t bytes = frame.payload.size();
            {
                std::lock_guard<std::mutex> qlock(session->mutex);
                session->pending.push_back(std::move(frame.payload));
                session->pendingBytes += bytes;
            }
            count(&ServerStats::bytesIngested,
                  static_cast<int64_t>(bytes));
            schedulePump(session);
            break;
        }
        case FrameType::Finish: {
            if (!session->openSeen) {
                rejectAndClose(session, ErrorCode::Malformed,
                               "Finish before Open");
                return;
            }
            {
                std::lock_guard<std::mutex> qlock(session->mutex);
                session->finishRequested = true;
            }
            schedulePump(session);
            break;
        }
        case FrameType::StatsRequest: {
            const std::string text = scrapeText(stats());
            writeFrame(session->fd, FrameType::Stats, text.data(),
                       text.size());
            session->replied.store(true);
            session->closed.store(true);
            return;
        }
        case FrameType::HealthRequest: {
            // Answered before any Open and without touching session
            // accounting, so a load balancer can probe a server that
            // is far too loaded to admit anything.
            const uint8_t state =
                static_cast<uint8_t>(healthStateNow());
            writeFrame(session->fd, FrameType::Health, &state, 1);
            session->replied.store(true);
            session->closed.store(true);
            return;
        }
        default:
            rejectAndClose(session, ErrorCode::Malformed,
                           "unexpected frame type from client");
            return;
        }
    }
}

void
Server::handleOpen(const std::shared_ptr<Session> &session,
                   const OpenRequest &open)
{
    SessionId id;
    std::memcpy(id.data(), open.sessionId, id.size());
    const bool want_resume = (open.flags & kOpenResume) != 0;
    const bool resilient = (open.flags & kOpenResilient) != 0;

    // A session that already finished in a previous connection (or a
    // previous daemon life): acknowledge Complete and replay the
    // spooled Report payload verbatim — bit-identity by construction.
    if (want_resume && !sessionIdIsZero(id) && spool_.has(id)) {
        uint32_t status = 0;
        std::vector<uint8_t> payload;
        std::string why;
        if (spool_.fetch(id, status, payload, &why)) {
            session->replied.store(true);
            count(&ServerStats::resultsServedFromSpool);
            const auto ack =
                encodeOpenAckPayload(id, 0, SessionState::Complete);
            if (writeFrame(session->fd, FrameType::OpenAck, ack.data(),
                           ack.size()))
                writeFrame(session->fd, FrameType::Report,
                           payload.data(), payload.size());
            session->closed.store(true);
            return;
        }
        // Spooled record damaged at rest: fall through to a fresh
        // upload; the re-analysis replaces the bad record.
    }

    if (stats().sessionsActive >= config_.maxSessions) {
        rejectAndClose(session, ErrorCode::Busy,
                       "session limit reached (" +
                           std::to_string(config_.maxSessions) + ")");
        return;
    }

    // A parked pipeline: validate the client's idea of the offset
    // against ours, re-attach, and tell it where to resume from.
    if (want_resume && !sessionIdIsZero(id)) {
        const std::string hex = sessionIdToHex(id);
        std::shared_ptr<Parked> parked;
        {
            std::lock_guard<std::mutex> lock(sessionsMutex_);
            const auto it = parked_.find(hex);
            if (it != parked_.end()) {
                parked = std::move(it->second);
                parked_.erase(it);
            }
        }
        if (parked) {
            std::string bad;
            if (open.resumeFrom != kResumeQuery &&
                open.resumeFrom != parked->resumeOffset)
                bad = "resume offset " +
                      std::to_string(open.resumeFrom) +
                      " does not match the durable offset " +
                      std::to_string(parked->resumeOffset) +
                      " for session " + hex;
            else if (parked->resilient != resilient)
                bad = "resilience mode differs from the parked "
                      "session " +
                      hex;
            if (!bad.empty()) {
                // Put the pipeline back: a corrected retry may follow.
                {
                    std::lock_guard<std::mutex> lock(sessionsMutex_);
                    parked_[hex] = std::move(parked);
                }
                rejectAndClose(session, ErrorCode::BadResume, bad);
                return;
            }
            const uint64_t offset = parked->resumeOffset;
            session->pipeline = std::move(parked->pipeline);
            session->id = id;
            session->openSeen = true;
            // sessionsAccepted last: whoever sees it sees the rest.
            count(&ServerStats::sessionsActive);
            count(&ServerStats::sessionsResumed);
            count(&ServerStats::sessionsAccepted);
            const auto ack = encodeOpenAckPayload(
                id, offset, SessionState::Resumed);
            writeFrame(session->fd, FrameType::OpenAck, ack.data(),
                       ack.size());
            return;
        }
        // Nothing parked and nothing spooled.  An explicit non-zero
        // offset cannot be honoured — the client would silently skip
        // bytes we never saw; make it a typed error.  kResumeQuery
        // (or 0) degrades gracefully to a fresh upload: the daemon
        // may simply have restarted.
        if (open.resumeFrom != kResumeQuery && open.resumeFrom != 0) {
            rejectAndClose(
                session, ErrorCode::BadResume,
                "unknown session " + hex +
                    " cannot resume at offset " +
                    std::to_string(open.resumeFrom));
            return;
        }
    }

    // Admission control: FRESH sessions only — a resume was already
    // admitted above because it *reduces* load (it frees a parked
    // slot and lets a shed upload finish instead of restarting).
    if (config_.watermarks.anyEnabled()) {
        const LoadSnapshot snap = currentSnapshot();
        if (governor_.classify(snap) != LoadGovernor::Level::Normal) {
            const uint32_t hint = governor_.suggestedBackoffMs(snap);
            rejectAndClose(
                session, ErrorCode::RetryAfter,
                "server overloaded; retry in " +
                    std::to_string(hint) + " ms",
                hint);
            return;
        }
    }

    // Fresh session (possibly keeping a client-proposed id so a later
    // resume can find it).
    if (sessionIdIsZero(id))
        id = randomSessionId();
    profiler::EmProfConfig analysis = config_.analysis;
    analysis.signal.enabled = resilient;
    session->pipeline = std::make_unique<SessionPipeline>(
        analysis, config_.spanSamples);
    session->id = id;
    session->openSeen = true;
    count(&ServerStats::sessionsActive);
    count(&ServerStats::sessionsAccepted);
    const auto ack = encodeOpenAckPayload(id, 0, SessionState::Fresh);
    writeFrame(session->fd, FrameType::OpenAck, ack.data(),
               ack.size());
}

void
Server::schedulePump(const std::shared_ptr<Session> &session)
{
    {
        std::lock_guard<std::mutex> qlock(session->mutex);
        if (session->taskInFlight)
            return; // the running pump will see the new work
        if (session->pending.empty() && !session->finishRequested)
            return;
        session->taskInFlight = true;
    }
    // The future is intentionally dropped: the pump reports through
    // the socket and the session flags, never through the future.  A
    // PoolDrained rejection can only happen during stop(), which
    // replies Shutdown to every unanswered session itself.
    (void)pool_->submit([this, session] { pump(session); });
}

void
Server::pump(std::shared_ptr<Session> session)
{
    const auto abandon = [&](ErrorCode code,
                             const std::string &message,
                             uint32_t retryAfterMs = 0) {
        if (!session->replied.exchange(true))
            sendError(session->fd, code, message, retryAfterMs);
        {
            std::lock_guard<std::mutex> qlock(session->mutex);
            session->pending.clear();
            session->pendingBytes = 0;
            session->taskInFlight = false;
        }
        session->closed.store(true);
        wake();
    };

    try {
        for (;;) {
            if (session->aborted.load()) {
                // A shed (deadline/hard watermark) names its own
                // typed error; plain aborts are a shutdown.
                ErrorCode code = ErrorCode::Shutdown;
                std::string message = "server shutting down";
                uint32_t hint = 0;
                {
                    std::lock_guard<std::mutex> qlock(session->mutex);
                    if (session->shedCode != 0) {
                        code =
                            static_cast<ErrorCode>(session->shedCode);
                        message = session->shedMessage;
                        hint = session->shedRetryAfterMs;
                    }
                }
                return abandon(code, message, hint);
            }

            std::vector<uint8_t> item;
            bool do_finish = false;
            bool crossed_resume = false;
            {
                std::lock_guard<std::mutex> qlock(session->mutex);
                if (!session->pending.empty()) {
                    item = std::move(session->pending.front());
                    session->pending.pop_front();
                    const std::size_t before = session->pendingBytes;
                    session->pendingBytes -= item.size();
                    const std::size_t half =
                        config_.sessionBufferBytes / 2;
                    crossed_resume = before > half &&
                                     session->pendingBytes <= half;
                } else if (session->finishRequested) {
                    session->finishRequested = false;
                    do_finish = true;
                } else {
                    session->taskInFlight = false;
                    return; // re-armed by the next Data/Finish
                }
            }

            if (do_finish) {
                profiler::ProfileResult result;
                std::string why;
                if (!session->pipeline->finish(result, &why))
                    return abandon(ErrorCode::Malformed, why);

                const auto &quality = result.report.quality;
                const bool degraded =
                    quality.enabled && quality.coverageFraction < 1.0;
                const uint32_t status = degraded ? 3u : 0u;
                const auto payload = encodeReportPayload(
                    status,
                    session->pipeline->decoder().info().totalSamples,
                    quality.enabled ? quality.coverageFraction : 1.0,
                    result.events,
                    result.report.toText("served capture"));
                // Durability BEFORE delivery: the result is fsync'd
                // into the spool before the Report frame is written,
                // so a reply lost to a dead socket (or a daemon crash
                // right after this point) is recoverable — the client
                // resumes by id and is served from the spool.
                if (spool_.isOpen()) {
                    std::string spool_error;
                    if (spool_.append(session->id, status, payload,
                                      &spool_error)) {
                        count(&ServerStats::resultsSpooled);
                    } else {
                        // A spool failure (disk full, ...) must not
                        // take the live path down: the reply still
                        // goes out, only the crash-recovery guarantee
                        // is lost.  Counted, and logged once on the
                        // healthy→degraded transition.
                        if (count(&ServerStats::resultsSpoolFailed) == 0)
                            std::fprintf(
                                stderr,
                                "emprof_served: result spool append "
                                "failed (%s); serving non-durably\n",
                                spool_error.c_str());
                    }
                }
                // Account the completion BEFORE the reply leaves the
                // socket: a client that has its Report in hand must
                // see the counter already bumped.  A failed write
                // means the peer hung up after the analysis finished —
                // the session still completed.
                session->replied.store(true);
                count(&ServerStats::sessionsCompleted);
                std::string write_error;
                (void)writeFrame(session->fd, FrameType::Report,
                                 payload.data(), payload.size(),
                                 &write_error);
                obsMirror().sessionUs.observe(
                    elapsedUs(session->openedAt));
                {
                    std::lock_guard<std::mutex> qlock(session->mutex);
                    session->taskInFlight = false;
                }
                session->closed.store(true);
                wake();
                return;
            }

            const auto t0 = std::chrono::steady_clock::now();
            std::string why;
            const bool ok = session->pipeline->feed(
                item.data(), item.size(), &why);
            if (obs::MetricsRegistry::enabled())
                obsMirror().feedUs.observe(elapsedUs(t0));
            if (!ok)
                return abandon(ErrorCode::Malformed, why);
            if (crossed_resume)
                wake(); // socket may resume reading
        }
    } catch (const std::exception &e) {
        return abandon(ErrorCode::Internal,
                       std::string("analysis failed: ") + e.what());
    }
}

LoadSnapshot
Server::currentSnapshot()
{
    LoadSnapshot snap;
    snap.queueBytes = lastQueueBytes_;
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        snap.activeSessions = stats().sessionsActive;
        snap.parked = parked_.size();
        // Sessions (incl. pre-Open connections) + listeners + the
        // wake pipe and the emergency reserve.
        snap.connections =
            sessions_.size() + listeners_.size() + 3;
    }
    snap.poolQueueDepth = pool_ ? pool_->queueDepth() : 0;
    return snap;
}

HealthState
Server::healthStateNow() const
{
    if (stopping_.load())
        return HealthState::Draining;
    switch (lastLevel_) {
    case LoadGovernor::Level::Hard:
        return HealthState::Shedding;
    case LoadGovernor::Level::Soft:
        return HealthState::Backoff;
    case LoadGovernor::Level::Normal:
        break;
    }
    return HealthState::Live;
}

void
Server::shedSession(const std::shared_ptr<Session> &session,
                    ErrorCode code, const std::string &message,
                    uint32_t retryAfterMs)
{
    bool pump_owns;
    {
        std::lock_guard<std::mutex> qlock(session->mutex);
        pump_owns = session->taskInFlight || session->finishRequested;
        if (pump_owns) {
            session->shedCode = static_cast<uint32_t>(code);
            session->shedMessage = message;
            session->shedRetryAfterMs = retryAfterMs;
        }
    }
    if (pump_owns) {
        // The pump owns the socket; its abort path replies with the
        // typed error above.  (If it instead completes the report
        // first, better still — nothing was lost.)
        session->aborted.store(true);
        return;
    }
    if (!session->replied.exchange(true))
        sendError(session->fd, code, message, retryAfterMs);
    // Shed ≠ forgotten: park the pipeline so the client can resume
    // once the storm passes, upload already half done.  (The EOF
    // parking invariant holds here too: !pump_owns on the I/O thread
    // means the pending queue is drained.)
    if (session->openSeen && session->pipeline != nullptr &&
        !session->pipeline->poisoned() && !stopping_.load())
        parkSession(session);
    else
        session->closed.store(true);
}

void
Server::enforceOverload(
    const std::vector<std::shared_ptr<Session>> &polled)
{
    const bool time_checks = config_.idleTimeoutSeconds > 0 ||
                             config_.sessionDeadlineSeconds > 0 ||
                             config_.minRateBytesPerSec > 0;
    const bool watermarks = config_.watermarks.anyEnabled();
    if (!time_checks && !watermarks)
        return; // defaults-off: strictly inert

    const auto now = std::chrono::steady_clock::now();
    const auto seconds_since = [&](
        std::chrono::steady_clock::time_point t) {
        return std::chrono::duration<double>(now - t).count();
    };

    if (time_checks) {
        for (const auto &s : polled) {
            // aborted = a verdict is already pending on the pump's
            // abort path; re-shedding every tick until a starved pump
            // gets scheduled would count the same session dozens of
            // times over.
            if (s->closed.load() || s->replied.load() ||
                s->aborted.load())
                continue;
            bool pump_owns;
            bool finish_requested;
            {
                std::lock_guard<std::mutex> qlock(s->mutex);
                pump_owns = s->taskInFlight || s->finishRequested;
                finish_requested = s->finishRequested;
            }
            const bool server_side_stall = pump_owns || s->suspended;
            if (server_side_stall) {
                // Analysis or backpressure is the bottleneck — our
                // doing, not the client's.  Restart the idle clock so
                // the silence is never held against it.
                s->lastProgressAt = now;
            }
            // The rate window, by contrast, pauses only while reads
            // are off (backpressure) or the upload is over (Finish
            // queued).  A pump merely in flight does not stop bytes
            // arriving — and a trickler's sips keep one in flight at
            // almost every tick, so excusing it would let slow-loris
            // reset the window indefinitely.
            if (s->suspended || finish_requested) {
                s->rateWindowStart = now;
                s->rateWindowBase = s->socketBytesRead;
            }

            // The wall-clock deadline binds regardless of whose
            // fault the elapsed time is.
            if (config_.sessionDeadlineSeconds > 0 &&
                seconds_since(s->openedAt) >=
                    config_.sessionDeadlineSeconds) {
                count(&ServerStats::sessionsTimedOut);
                shedSession(s, ErrorCode::IdleTimeout,
                            "session deadline exceeded", 0);
                continue;
            }

            if (!server_side_stall &&
                config_.idleTimeoutSeconds > 0 &&
                seconds_since(s->lastProgressAt) >=
                    config_.idleTimeoutSeconds) {
                count(&ServerStats::sessionsTimedOut);
                shedSession(s, ErrorCode::IdleTimeout,
                            "no upload progress; parked for resume",
                            0);
                continue;
            }

            if (!s->suspended && !finish_requested &&
                config_.minRateBytesPerSec > 0 && s->openSeen) {
                const double window =
                    config_.minRateWindowSeconds > 0
                        ? config_.minRateWindowSeconds
                        : 10.0;
                const double elapsed =
                    seconds_since(s->rateWindowStart);
                if (elapsed >= window) {
                    const double rate =
                        static_cast<double>(s->socketBytesRead -
                                            s->rateWindowBase) /
                        elapsed;
                    if (rate < config_.minRateBytesPerSec) {
                        count(&ServerStats::sessionsTimedOut);
                        shedSession(s, ErrorCode::IdleTimeout,
                                    "upload rate below the floor; "
                                    "parked for resume",
                                    0);
                        continue;
                    }
                    s->rateWindowStart = now;
                    s->rateWindowBase = s->socketBytesRead;
                }
            }
        }
    }

    if (!watermarks) {
        lastLevel_ = LoadGovernor::Level::Normal;
        return;
    }
    const LoadSnapshot snap = currentSnapshot();
    lastLevel_ = governor_.classify(snap);
    if (lastLevel_ != LoadGovernor::Level::Hard)
        return;

    // Hard overload: shed established sessions, most-stalled first —
    // the sessions most likely to be hostile, and whose eviction
    // frees the most slot-time per report lost.
    uint64_t target = governor_.shedTarget(snap);
    if (target == 0)
        return;
    std::vector<std::shared_ptr<Session>> candidates;
    for (const auto &s : polled)
        if (!s->closed.load() && !s->replied.load() && s->openSeen &&
            !s->aborted.load())
            candidates.push_back(s);
    std::sort(candidates.begin(), candidates.end(),
              [](const auto &a, const auto &b) {
                  return a->lastProgressAt < b->lastProgressAt;
              });
    const uint32_t hint = governor_.suggestedBackoffMs(snap);
    uint64_t shed_count = 0;
    for (const auto &s : candidates) {
        if (shed_count >= target)
            break;
        shedSession(s, ErrorCode::RetryAfter,
                    "load shed under hard watermark; resume in " +
                        std::to_string(hint) + " ms",
                    hint);
        ++shed_count;
    }
    count(&ServerStats::sessionsShed, static_cast<int64_t>(shed_count));
}

} // namespace emprof::serve
