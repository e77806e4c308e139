#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/counters.hpp"
#include "obs/log.hpp"

namespace wm::serve {

namespace {

void close_quiet(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Writes the whole buffer; MSG_NOSIGNAL so a client that hung up turns
/// into EPIPE instead of killing the process. False on any failure.
bool send_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(const ServerConfig& cfg)
    : cfg_(cfg),
      service_(cfg.service),
      permits_(std::max(1, cfg.service.threads)) {
  if (::pipe(wake_pipe_) != 0) {
    throw std::runtime_error("serve: pipe() failed");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("serve: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(cfg.port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, kMaxConnections) != 0) {
    const int err = errno;
    close_quiet(listen_fd_);
    throw std::runtime_error(std::string("serve: cannot listen on port ") +
                             std::to_string(cfg.port) + ": " +
                             std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
}

Server::~Server() {
  request_stop();
  wait();
  close_quiet(listen_fd_);
  close_quiet(wake_pipe_[0]);
  close_quiet(wake_pipe_[1]);
}

void Server::start() {
  sampler_.start();
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::request_stop() {
  if (stopping_.exchange(true)) return;
  // Poke the accept thread's poll(); a single byte suffices and the
  // write end stays open, so repeated calls are harmless.
  const char b = 'q';
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &b, 1);
}

void Server::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  // After the accept loop exits no new connection threads appear, so
  // joining the list once is complete.
  for (Connection& c : connections_) c.thread.join();
  connections_.clear();
  sampler_.stop();
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // request_stop woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    WM_COUNT_INFO(serve.connections);
    if (obs::log_enabled(obs::LogLevel::kDebug)) {
      obs::LogEvent(obs::LogLevel::kDebug, "connection_open").num("fd", fd);
    }
    // Join finished connection threads first, so only live connections
    // count against the cap and no exited thread keeps its stack.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (it->done.load(std::memory_order_acquire)) {
        it->thread.join();
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    if (connections_.size() >= static_cast<std::size_t>(kMaxConnections)) {
      const std::string busy =
          error_reply("", "", "busy",
                      "at the limit of " + std::to_string(kMaxConnections) +
                          " connections; retry later") +
          "\n";
      send_all(fd, busy.data(), busy.size());
      ::close(fd);
      continue;
    }
    Connection& c = connections_.emplace_back();
    c.thread = std::thread([this, fd, &c] {
      connection_loop(fd);
      c.done.store(true, std::memory_order_release);
    });
  }
  // Stop accepting immediately; connection threads keep draining.
  ::shutdown(listen_fd_, SHUT_RDWR);
}

void Server::connection_loop(int fd) {
  // One handler per connection: buffer bytes, peel complete lines,
  // answer each. The per-line size bound is enforced on the raw buffer
  // so an attacker cannot balloon memory by never sending a newline.
  const std::size_t max_line = service_.config().max_request_bytes;
  std::string buffer;
  char chunk[4096];

  auto answer = [&](std::string_view line) {
    permits_.acquire();
    std::string reply = service_.handle_line(line);
    permits_.release();
    reply += '\n';
    return send_all(fd, reply.data(), reply.size());
  };

  auto drain_buffer = [&]() -> bool {  // false = connection dead
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      std::string_view line(buffer.data() + start, nl - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      start = nl + 1;
      if (line.empty()) continue;
      if (!answer(line)) {
        return false;
      }
    }
    buffer.erase(0, start);
    return true;
  };

  // Never block in recv without a timeout: the thread must observe a
  // drain (stopping_) even on an idle connection. Poll in 200 ms slices;
  // a timeout slice during a drain is the linger window — an idle or
  // mid-line connection gets that long to complete before we close.
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) {
      if (stopping_.load(std::memory_order_relaxed)) break;
      continue;  // idle, not draining: keep listening
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // client closed
    buffer.append(chunk, static_cast<std::size_t>(n));
    if (!drain_buffer()) break;
    if (buffer.size() > max_line) {
      // No newline within the size bound: reply once and close — there
      // is no way to find the next request boundary in the stream.
      answer(buffer);
      break;
    }
  }
  ::close(fd);
  if (obs::log_enabled(obs::LogLevel::kDebug)) {
    obs::LogEvent(obs::LogLevel::kDebug, "connection_close").num("fd", fd);
  }
}

}  // namespace wm::serve
