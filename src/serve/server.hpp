// The transport shell around serve::Service: a TCP listener speaking
// newline-delimited JSON, one reply line per request line.
//
// Threading model — deliberately boring:
//
//  - one *accept thread* poll()ing the listen socket alongside a
//    self-pipe (the wakeup channel for request_stop, which is the only
//    async-signal-safe way to interrupt poll from a SIGTERM handler);
//  - one *connection thread* per accepted socket, reading lines and
//    answering each on that thread while it holds one of
//    `service.threads` permits, so at most that many requests run at
//    once at every setting and a slow classify holds one permit, not a
//    connection's neighbours.
//
// The accept thread joins finished connection threads before it admits
// the next connection. Past kMaxConnections live connections it answers
// a new one with a single `busy` error line and closes it.
//
// Shutdown ("drain"): request_stop() closes the listen socket (no new
// connections), then each connection thread finishes the requests whose
// bytes it has already received — complete lines in its buffer plus a
// short linger for a final partially-received line — writes the replies
// and closes. wait() joins everything. In-flight requests are never
// abandoned; this is what the SIGTERM path of tools/wm_serve.cpp and
// the drain test in tests/test_serve_parallel.cpp pin down.
#pragma once

#include <atomic>
#include <list>
#include <semaphore>
#include <thread>

#include "obs/window.hpp"
#include "serve/protocol.hpp"

namespace wm::serve {

struct ServerConfig {
  /// Port to bind on 127.0.0.1; 0 = ephemeral (read back via port()).
  int port = 0;
  ServiceConfig service;
};

class Server {
 public:
  /// Live connections past which a new one gets `busy`; also the listen
  /// backlog.
  static constexpr int kMaxConnections = 64;

  /// Binds and listens; throws std::runtime_error on bind failure.
  explicit Server(const ServerConfig& cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves ephemeral port 0 at construction).
  int port() const { return port_; }

  Service& service() { return service_; }

  /// Starts the accept thread. Call once.
  void start();

  /// Initiates drain: stop accepting, let every connection finish the
  /// requests it has already received, then close. Idempotent,
  /// thread-safe, returns without waiting — the SIGTERM path calls this
  /// from a watcher thread. wait() observes completion.
  void request_stop();

  /// Joins the accept thread and every connection thread. Returns once
  /// all replies are written and all sockets are closed.
  void wait();

 private:
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};  // set as the thread's last act
  };

  void accept_loop();
  void connection_loop(int fd);

  ServerConfig cfg_;
  Service service_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::counting_semaphore<> permits_;  // service.threads request slots
  // 1 Hz window captures while the daemon runs, so stats/metrics always
  // have a fresh baseline to difference against (obs/window.hpp).
  obs::WindowSampler sampler_;
  std::thread accept_thread_;
  // Owned by the accept thread until wait() has joined it; list nodes
  // stay put, so each thread may hold a reference to its own entry.
  std::list<Connection> connections_;
};

}  // namespace wm::serve
