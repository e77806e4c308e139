// wm_serve: the resident query daemon. Binds 127.0.0.1:<port> and
// answers newline-delimited JSON requests (classify / modelcheck / run /
// canon / stats / metrics) through the canonical-certificate memo-cache
// — see src/serve/protocol.hpp for the wire format and README.md
// "Serving" for client examples.
//
//   wm_serve [--port P] [--threads N] [--cache-capacity C]
//            [--timeout-ms T] [--window-secs S] [--print-port]
//
// --threads N bounds the requests that run at once (default 1); each
// connection has its own thread, up to 64 connections (the 65th gets a
// `busy` reply, serve/server.hpp).
//
// Observability: WM_LOG=<file|stderr> arms one structured access-log
// line per request (WM_SLOW_MS adds slow-request warnings), the
// `metrics` endpoint serves Prometheus text exposition for tools/wm_top
// or a scraper, and --window-secs sets the lookback of the windowed
// rate/latency families (default 60).
//
// SIGTERM/SIGINT drain: stop accepting, finish every request whose
// bytes have arrived, reply, exit 0. --print-port writes the bound port
// (useful with --port 0) to stdout as the single line "port <P>" and
// flushes, so harnesses can wait for readiness.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <unistd.h>

#include "obs/env.hpp"
#include "serve/server.hpp"

namespace {

int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char b = 's';
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &b, 1);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port P] [--threads N] [--cache-capacity C] "
               "[--timeout-ms T] [--window-secs S] [--print-port]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  wm::obs::init_from_env();
  wm::serve::ServerConfig cfg;
  bool print_port = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next_int = [&](long long lo, long long hi) -> long long {
      if (i + 1 >= argc) std::exit(usage(argv[0]));
      const long long v = std::atoll(argv[++i]);
      if (v < lo || v > hi) std::exit(usage(argv[0]));
      return v;
    };
    if (a == "--port") {
      cfg.port = static_cast<int>(next_int(0, 65535));
    } else if (a == "--threads") {
      cfg.service.threads = static_cast<int>(next_int(1, 256));
    } else if (a == "--cache-capacity") {
      cfg.service.cache_capacity =
          static_cast<std::size_t>(next_int(1, 1 << 24));
    } else if (a == "--timeout-ms") {
      cfg.service.default_timeout_ms = static_cast<int>(next_int(0, 3600000));
    } else if (a == "--window-secs") {
      cfg.service.window_secs = static_cast<double>(next_int(1, 86400));
    } else if (a == "--print-port") {
      print_port = true;
    } else {
      return usage(argv[0]);
    }
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "wm_serve: pipe() failed\n");
    return 1;
  }
  // Handlers only write a byte; the watcher thread below does the
  // actual drain (Server::request_stop is not async-signal-safe).
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = on_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  try {
    wm::serve::Server server(cfg);
    server.start();
    if (print_port) {
      std::printf("port %d\n", server.port());
      std::fflush(stdout);
    }
    std::fprintf(stderr, "[wm_serve] listening on 127.0.0.1:%d (threads=%d)\n",
                 server.port(), cfg.service.threads);
    std::thread watcher([&server] {
      char b;
      while (::read(g_signal_pipe[0], &b, 1) < 0 && errno == EINTR) {
      }
      std::fprintf(stderr, "[wm_serve] draining\n");
      server.request_stop();
    });
    server.wait();
    // Unblock the watcher if the server stopped by other means.
    const char b = 'x';
    [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &b, 1);
    watcher.join();
    std::fprintf(stderr, "[wm_serve] drained, exiting\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wm_serve: %s\n", e.what());
    return 1;
  }
  return 0;
}
