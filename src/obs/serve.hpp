// Live serving surface for the health engine.
//
// Two layers, so every consumer gets the same bytes:
//
//  * HealthHandler — a no-socket, in-process request handler mapping a path
//    to a response: `/metrics` (Prometheus text exposition of the global
//    registry), `/health` (kdd-health-v1 JSON: SLO attainment, window
//    percentiles, active alerts), `/flight` (kdd-flight-v1 JSON of the
//    flight-recorder ring). CI and tests call handle() directly — fully
//    deterministic, no ports.
//
//  * ScrapeServer — a deliberately tiny blocking HTTP/1.0 server wrapping a
//    HealthHandler: one acceptor thread, one connection at a time, no
//    keep-alive, no TLS. This is a debug scrape endpoint for a human (or a
//    Prometheus dev instance) to point at a long replay — not a production
//    web server. Bind port 0 for an ephemeral port (see port()).
//
// http_get() is the matching single-shot client, used by CI to prove the
// socket path end to end without curl.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>

#include "obs/metrics.hpp"

namespace kdd::obs {

class HealthEngine;

struct ScrapeResponse {
  int status = 200;
  std::string content_type = "text/plain";
  std::string body;
};

class HealthHandler {
 public:
  /// `engine` may be null: /health then reports engine_installed=false and
  /// /metrics + /flight still serve (they read process-global state).
  explicit HealthHandler(
      HealthEngine* engine = nullptr,
      MetricsRegistry* registry = &MetricsRegistry::global())
      : engine_(engine), registry_(registry) {}

  /// Routes `path` (query strings ignored): /metrics, /health, /flight,
  /// else 404. Never throws.
  ScrapeResponse handle(std::string_view path) const;

 private:
  HealthEngine* engine_;
  MetricsRegistry* registry_;
};

class ScrapeServer {
 public:
  explicit ScrapeServer(HealthHandler handler) : handler_(handler) {}
  ~ScrapeServer() { stop(); }

  ScrapeServer(const ScrapeServer&) = delete;
  ScrapeServer& operator=(const ScrapeServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned) and starts the acceptor
  /// thread. Returns false (with no thread started) if bind/listen fail.
  bool start(std::uint16_t port);
  /// The bound port (valid after a successful start()).
  std::uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_relaxed); }
  /// Stops accepting, joins the acceptor thread. Idempotent.
  void stop();

  /// Connections served so far (including 404s). A request is counted
  /// before its response is written, so a client that has read a whole
  /// response already sees it here.
  std::uint64_t requests_served() const {
    return served_.load(std::memory_order_acquire);
  }

 private:
  void serve_loop();

  HealthHandler handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> served_{0};
};

/// Minimal HTTP/1.0 GET against 127.0.0.1:`port`. On success returns true
/// and fills `*body` with the response payload (headers stripped) and
/// `*status` with the response code. Used by CI to self-scrape.
bool http_get(std::uint16_t port, const std::string& path, std::string* body,
              int* status);

}  // namespace kdd::obs
