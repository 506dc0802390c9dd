#include "serve/daemon.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/parse_int.h"
#include "obs/metrics.h"

namespace wheels::serve {
namespace {

// Poll granularity: the stop flag and idle clock are checked this often,
// bounding shutdown latency without a wakeup fd per session.
constexpr int kPollTickMs = 100;

int resolve_idle_ms(int requested) {
  if (requested >= 0) return requested;
  return static_cast<int>(
      parse_int(std::getenv("WHEELS_SERVE_IDLE_MS"), 0, INT_MAX)
          .value_or(30000));
}

obs::Counter& sessions_counter() {
  // wheels-lint: allow(static-local)
  static obs::Counter& c = obs::Registry::global().counter("serve.sessions");
  return c;
}

}  // namespace

Daemon::Daemon(DaemonOptions opts)
    : opts_(std::move(opts)),
      idle_timeout_ms_(resolve_idle_ms(opts_.idle_timeout_ms)),
      router_(opts_.router) {
  // The stop pipe lives for the daemon's lifetime so request_stop() stays
  // safe from any thread (including a signal handler) at any time.
  if (::pipe2(stop_pipe_, O_CLOEXEC) != 0) {
    stop_pipe_[0] = stop_pipe_[1] = -1;
  }
}

Daemon::~Daemon() {
  if (stop_pipe_[0] >= 0) ::close(stop_pipe_[0]);
  if (stop_pipe_[1] >= 0) ::close(stop_pipe_[1]);
}

void Daemon::request_stop() {
  stop_.store(true, std::memory_order_release);
  const int fd = stop_pipe_[1];
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t rc = ::write(fd, &byte, 1);
  }
}

Daemon::IoStatus Daemon::read_exact(int fd, char* buf, std::size_t n,
                                    std::size_t& got) {
  got = 0;
  int waited_ms = 0;
  while (got < n) {
    if (stop_.load(std::memory_order_acquire)) return IoStatus::Stopped;
    pollfd p{fd, POLLIN, 0};
    const int rc = ::poll(&p, 1, kPollTickMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return IoStatus::Error;
    }
    if (rc == 0) {
      waited_ms += kPollTickMs;
      if (idle_timeout_ms_ > 0 && waited_ms >= idle_timeout_ms_)
        return IoStatus::Timeout;
      continue;
    }
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return IoStatus::Error;
    }
    if (r == 0) return IoStatus::Closed;
    got += static_cast<std::size_t>(r);
    waited_ms = 0;
  }
  return IoStatus::Ok;
}

bool Daemon::write_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t r = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(r);
  }
  return true;
}

void Daemon::serve_session(int in_fd, int out_fd, bool close_fds) {
  SessionState session;
  session.id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  router_.add_session();
  sessions_counter().inc();
  if (opts_.verbose)
    std::fprintf(stderr, "[serve] session %u open\n", session.id);

  for (;;) {
    char hdr[kFrameHeaderBytes];
    std::size_t got = 0;
    IoStatus st = read_exact(in_fd, hdr, sizeof(hdr), got);
    if (st == IoStatus::Stopped) break;
    if (st == IoStatus::Closed || st == IoStatus::Error) {
      // Mid-header EOF is a truncated frame; a clean close between frames
      // is just a client hanging up.
      if (got > 0)
        write_all(out_fd, router_.error_frame(ErrorCode::Truncated,
                                              "connection closed mid-header",
                                              session));
      break;
    }
    if (st == IoStatus::Timeout) {
      const ErrorCode code =
          got == 0 ? ErrorCode::IdleTimeout : ErrorCode::Truncated;
      write_all(out_fd, router_.error_frame(
                            code,
                            got == 0 ? "idle timeout" : "timed out mid-header",
                            session));
      break;
    }

    std::uint32_t body_len = 0;
    const FrameStatus fs = peek_frame(std::string_view(hdr, sizeof(hdr)),
                                      router_.max_frame_bytes(), body_len);
    if (fs == FrameStatus::BadMagic) {
      write_all(out_fd, router_.error_frame(ErrorCode::BadMagic,
                                            "bad frame magic", session));
      break;
    }
    if (fs == FrameStatus::Oversize) {
      write_all(out_fd, router_.error_frame(ErrorCode::Oversize,
                                            "frame body too large", session));
      break;
    }

    std::string body(body_len, '\0');
    if (body_len > 0) {
      st = read_exact(in_fd, body.data(), body_len, got);
      if (st == IoStatus::Stopped) break;
      if (st != IoStatus::Ok) {
        write_all(out_fd, router_.error_frame(ErrorCode::Truncated,
                                              "truncated frame body",
                                              session));
        break;
      }
    }

    if (!write_all(out_fd, router_.handle(body, session))) break;
    if (router_.shutdown_requested()) {
      request_stop();
      break;
    }
  }

  if (opts_.verbose)
    std::fprintf(stderr, "[serve] session %u closed (%llu requests)\n",
                 session.id,
                 static_cast<unsigned long long>(session.requests));
  if (close_fds) {
    ::close(in_fd);
    if (out_fd != in_fd) ::close(out_fd);
  }
}

int Daemon::run() {
  // Broken-pipe writes (client gone before the reply) must surface as
  // write() errors, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  stop_.store(false, std::memory_order_release);
  if (opts_.stdio) {
    serve_session(/*in_fd=*/0, /*out_fd=*/1, /*close_fds=*/false);
    return 0;
  }
  return run_socket();
}

int Daemon::run_socket() {
  sockaddr_un addr{};
  if (opts_.socket_path.empty() ||
      opts_.socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "[serve] invalid socket path (empty or >= %zu)\n",
                 sizeof(addr.sun_path));
    return 1;
  }
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) {
    std::perror("[serve] socket");
    return 1;
  }
  ::unlink(opts_.socket_path.c_str());
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, opts_.socket_path.c_str(),
              opts_.socket_path.size());
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, 64) != 0) {
    std::perror("[serve] bind/listen");
    ::close(listen_fd);
    return 1;
  }
  if (opts_.verbose)
    std::fprintf(stderr, "[serve] listening on %s\n",
                 opts_.socket_path.c_str());

  while (!stop_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int cfd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (cfd < 0) continue;

    bool busy = false;
    {
      const std::lock_guard<std::mutex> lock(sessions_mu_);
      if (active_sessions_ >= opts_.max_sessions)
        busy = true;
      else
        ++active_sessions_;
    }
    if (busy) {
      SessionState tmp;
      write_all(cfd, router_.error_frame(ErrorCode::Busy,
                                         "session limit reached", tmp));
      ::close(cfd);
      continue;
    }
    auto slot = std::make_unique<SessionSlot>();
    SessionSlot* raw = slot.get();
    raw->thread = std::thread([this, raw, cfd] {
      serve_session(cfd, cfd, /*close_fds=*/true);
      {
        const std::lock_guard<std::mutex> lock(sessions_mu_);
        --active_sessions_;
      }
      raw->done.store(true, std::memory_order_release);
    });
    {
      const std::lock_guard<std::mutex> lock(sessions_mu_);
      sessions_.push_back(std::move(slot));
    }
    reap_finished_sessions();
  }

  ::close(listen_fd);
  // Stop is latched, so every session unwinds within a poll tick; joining
  // them all guarantees no session thread (or its thread-local teardown)
  // outlives run().
  std::vector<std::unique_ptr<SessionSlot>> remaining;
  {
    const std::lock_guard<std::mutex> lock(sessions_mu_);
    remaining.swap(sessions_);
  }
  for (auto& s : remaining)
    if (s->thread.joinable()) s->thread.join();
  ::unlink(opts_.socket_path.c_str());
  if (opts_.verbose) std::fprintf(stderr, "[serve] clean shutdown\n");
  return 0;
}

void Daemon::reap_finished_sessions() {
  // Finished threads set `done` as their final store, so a true flag means
  // the thread is past serve_session and join() returns near-instantly.
  // Joining outside the lock keeps accept from blocking session exits.
  std::vector<std::unique_ptr<SessionSlot>> finished;
  {
    const std::lock_guard<std::mutex> lock(sessions_mu_);
    const auto live_end = std::partition(
        sessions_.begin(), sessions_.end(), [](const auto& s) {
          return !s->done.load(std::memory_order_acquire);
        });
    finished.assign(std::make_move_iterator(live_end),
                    std::make_move_iterator(sessions_.end()));
    sessions_.erase(live_end, sessions_.end());
  }
  for (auto& s : finished)
    if (s->thread.joinable()) s->thread.join();
}

}  // namespace wheels::serve
