// Cooperative cancellation for long-running drivers.
//
// The serving layer (src/serve) admits requests with per-request
// deadlines; the paper's decision procedures can run for seconds on
// adversarial inputs, so every search driver a request can reach
// accepts an optional `const CancelToken*` and polls it at its natural
// round/iteration boundary. Cancellation is cooperative and exception
// based: `check()` throws CancelledError, which unwinds through the
// driver (the parallel helpers rethrow it in the calling thread after
// draining workers) and is mapped to a structured "deadline" error
// reply by the protocol layer.
//
// A token carries one absolute steady-clock deadline (the request's
// budget). `cancelled()` is safe from any thread; it is a clock read, so
// polling belongs at round or search-node granularity, not inside
// per-element inner loops.
#pragma once

#include <chrono>
#include <stdexcept>

namespace wm {

/// Thrown by CancelToken::check(); derives from runtime_error so
/// drivers that funnel everything through std::exception still
/// propagate it intact.
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("cancelled: deadline exceeded") {}
};

class CancelToken {
 public:
  /// Cancels once `deadline` passes.
  explicit CancelToken(std::chrono::steady_clock::time_point deadline)
      : deadline_(deadline) {}

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  bool cancelled() const noexcept {
    return std::chrono::steady_clock::now() >= deadline_;
  }

  /// Throws CancelledError if cancelled; the drivers' polling point.
  void check() const {
    if (cancelled()) throw CancelledError();
  }

 private:
  const std::chrono::steady_clock::time_point deadline_;
};

/// Null-safe polling helper for drivers taking `const CancelToken*`.
inline void poll_cancel(const CancelToken* token) {
  if (token != nullptr) token->check();
}

}  // namespace wm
