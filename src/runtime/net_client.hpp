// runtime::NetClient — a small blocking client for the NetServer wire
// protocol, shared by the loopback tests and the load-generator bench.
//
// Two usage styles over one TCP connection:
//
//   * Synchronous conveniences — infer(), infer_batch(), ping(), stats(),
//     list_models(), deploy() each send one request and block for its reply,
//     mapping error statuses back onto the serving stack's exception types
//     (OVERLOADED → OverloadedError, ENGINE_STOPPED → EngineStoppedError,
//     UNKNOWN_MODEL → UnknownModelError, BAD_REQUEST/BAD_FRAME →
//     std::invalid_argument, INTERNAL_ERROR → std::runtime_error) so client
//     code can reuse the catch sites it already has for in-process serving.
//     These assume no concurrent pipelined traffic on the same connection.
//
//   * Pipelined — send_infer()/send_ping() enqueue requests without waiting
//     and recv() blocks for the next reply (matched to its request by the
//     echoed request_id). One sender thread plus one receiver thread per
//     connection is supported (send and recv paths lock independently; full-
//     duplex socket use is safe) — exactly what a coordinated-omission-free
//     open-loop load generator needs: the sender keeps the arrival schedule
//     regardless of how far replies lag.
//
//   * Self-healing — construct with a RetryPolicy and the synchronous path
//     transparently reconnects on torn connections (ECONNRESET, EPIPE, a
//     reply cut mid-frame) and retries retry-safe failures (connection loss,
//     OVERLOADED, server-side DEADLINE_EXCEEDED) with jittered exponential
//     backoff. Retries are safe because every wire operation is idempotent:
//     forwards are stateless and bitwise-deterministic, and re-deploying the
//     same artifact is a no-op generation bump. A request is NEVER retried
//     past its own lapsed deadline, and each resend carries the SHRUNK
//     remaining budget so the server sees the true time left. The default
//     policy (max_attempts = 1) is exactly the legacy fail-fast client.
//
// The destructor closes the connection; a server-side drain then flushes any
// in-flight replies first (NetServer's graceful-stop contract).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/wire.hpp"
#include "tensor/tensor.hpp"
#include "util/socket.hpp"

namespace pecan::runtime {

/// Connection-level failure (refused reconnect, peer reset, torn reply
/// stream). Derived from runtime_error so existing catch sites still work;
/// the retry loop catches it specifically to trigger reconnection.
struct ConnectionError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Governs the synchronous path's self-healing. Defaults reproduce the
/// legacy fail-fast client (one attempt, no reconnection).
struct RetryPolicy {
  /// Total tries per synchronous call (1 = no retries).
  int max_attempts = 1;
  /// First backoff; doubles per retry (jittered), capped at max_backoff.
  std::chrono::milliseconds base_backoff{10};
  std::chrono::milliseconds max_backoff{500};
  /// Backoff is scaled by U[1-jitter, 1+jitter] (seeded, deterministic per
  /// client) so synchronized clients don't retry in lockstep.
  double jitter = 0.2;
  /// With a request deadline, cumulative backoff sleep is capped at this
  /// fraction of the deadline — the rest of the budget stays available for
  /// actual attempts. Ignored for deadline-less requests.
  double retry_budget = 0.5;
};

class NetClient {
 public:
  /// One fully decoded reply frame (owning copies — safe to keep).
  struct Reply {
    std::uint64_t request_id = 0;
    wire::Opcode opcode = wire::Opcode::Ping;
    wire::Status status = wire::Status::Ok;
    Tensor tensor;     ///< Ok INFER/INFER_BATCH payload
    std::string text;  ///< any other payload (stats JSON, names, error message)
  };

  /// Connects (bounded wait) with TCP_NODELAY. Throws on refusal/timeout.
  NetClient(const std::string& host, std::uint16_t port, int timeout_ms = 5000);
  /// Self-healing variant: the synchronous calls reconnect + retry per
  /// `policy`. The pipelined path is unaffected (a torn pipeline cannot be
  /// replayed transparently — the caller owns its in-flight bookkeeping).
  NetClient(const std::string& host, std::uint16_t port, RetryPolicy policy,
            int timeout_ms = 5000);
  ~NetClient() = default;
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  // Pipelined path --------------------------------------------------------
  /// `priority` is the request's wire priority class (0 = default; 0 emits a
  /// frame byte-identical to a pre-priority client, so the default preserves
  /// current behavior on the wire exactly). `deadline_ms` is the request's
  /// end-to-end budget, relative, anchored server-side at frame receipt
  /// (0 = none); past it the server replies DEADLINE_EXCEEDED instead of
  /// executing.
  std::uint64_t send_infer(const std::string& model, const Tensor& sample,
                           std::uint8_t priority = 0, std::uint32_t deadline_ms = 0);
  std::uint64_t send_ping();
  /// Blocks for the next reply frame (any request). Throws ConnectionError
  /// when the server closes the connection or the reply stream tears.
  Reply recv();

  // Synchronous path ------------------------------------------------------
  /// Self-healing when constructed with a RetryPolicy: connection loss,
  /// OVERLOADED, and server DEADLINE_EXCEEDED are retried with backoff while
  /// attempts and (for deadlined requests) budget remain. Throws
  /// DeadlineExceededError once `deadline_ms` lapses client-side.
  Tensor infer(const std::string& model, const Tensor& sample, std::uint8_t priority = 0,
               std::uint32_t deadline_ms = 0);
  Tensor infer_batch(const std::string& model, const Tensor& batch, std::uint8_t priority = 0,
                     std::uint32_t deadline_ms = 0);
  void ping();
  std::vector<std::string> list_models();
  std::string stats_json(const std::string& model);
  /// Asks the server to load + deploy the artifact at `path` (a path on the
  /// SERVER's filesystem) under `name`. Returns the new generation.
  std::uint64_t deploy(const std::string& name, const std::string& path);

  void close() { fd_.reset(); }
  bool connected() const { return fd_.valid(); }

  // Self-healing telemetry ------------------------------------------------
  std::uint64_t attempts() const { return attempts_.load(std::memory_order_relaxed); }
  std::uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }
  std::uint64_t reconnects() const { return reconnects_.load(std::memory_order_relaxed); }

 private:
  std::uint64_t send_frame(wire::Opcode op, const std::string& model, const Tensor* tensor,
                           std::string_view text, std::uint8_t priority = 0,
                           std::uint32_t deadline_ms = 0);
  /// Blocks for the reply to `request_id`; throws the mapped exception on a
  /// non-Ok status. Sync path only.
  Reply recv_for(std::uint64_t request_id);
  /// One attempt + retry loop shared by every synchronous call.
  Reply sync_call(wire::Opcode op, const std::string& model, const Tensor* tensor,
                  std::string_view text, std::uint8_t priority, std::uint32_t deadline_ms);
  /// Re-dials host_:port_ and resets the decoder for the fresh stream.
  void reconnect();

  std::string host_;
  std::uint16_t port_ = 0;
  int timeout_ms_ = 5000;
  RetryPolicy policy_;

  util::Fd fd_;
  wire::Decoder decoder_;
  std::mutex send_mutex_, recv_mutex_;
  std::atomic<std::uint64_t> next_id_{1};

  std::atomic<std::uint64_t> attempts_{0};    ///< sync-call attempts (first + re)
  std::atomic<std::uint64_t> retries_{0};     ///< attempts after the first
  std::atomic<std::uint64_t> reconnects_{0};  ///< successful re-dials
  std::uint64_t rng_state_ = 0x6A09E667F3BCC909ull;  ///< backoff jitter (sync path only)
};

}  // namespace pecan::runtime
