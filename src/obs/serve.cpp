#include "obs/serve.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "obs/log.hpp"

namespace kdd::obs {

ScrapeResponse HealthHandler::handle(std::string_view path) const {
  // Strip any query string; the endpoints take no parameters.
  const std::size_t q = path.find('?');
  if (q != std::string_view::npos) path = path.substr(0, q);

  ScrapeResponse r;
  if (path == "/metrics") {
    r.content_type = "text/plain; version=0.0.4";
    r.body = prometheus_text(registry_->snapshot());
    return r;
  }
  if (path == "/health") {
    r.content_type = "application/json";
    if (engine_ != nullptr) {
      r.body = engine_->health_json();
    } else {
      r.body = "{\"schema\":\"kdd-health-v1\",\"engine_installed\":false}\n";
    }
    return r;
  }
  if (path == "/flight") {
    r.content_type = "application/json";
    r.body = FlightRecorder::global().json("scrape");
    return r;
  }
  r.status = 404;
  r.body = "not found: /metrics /health /flight\n";
  return r;
}

namespace {

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 404: return "Not Found";
    default: return "Error";
  }
}

void write_all(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

bool ScrapeServer::start(std::uint16_t port) {
  if (running()) return false;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, 8) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { serve_loop(); });
  KDD_LOG(Info, "scrape server listening on 127.0.0.1:%u",
          static_cast<unsigned>(port_));
  return true;
}

void ScrapeServer::serve_loop() {
  while (running()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running()) break;
      continue;
    }
    // Read until the end of the request headers (or the 4 KiB cap; the
    // request line always fits well inside it).
    std::string req;
    char buf[1024];
    while (req.find("\r\n\r\n") == std::string::npos &&
           req.find("\n\n") == std::string::npos && req.size() < 4096) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n <= 0) break;
      req.append(buf, static_cast<std::size_t>(n));
    }
    std::string path = "/";
    if (req.rfind("GET ", 0) == 0) {
      const std::size_t sp = req.find(' ', 4);
      if (sp != std::string::npos) path = req.substr(4, sp - 4);
    }
    const ScrapeResponse r = handler_.handle(path);
    served_.fetch_add(1, std::memory_order_release);
    char head[160];
    std::snprintf(head, sizeof head,
                  "HTTP/1.0 %d %s\r\nContent-Type: %s\r\n"
                  "Content-Length: %zu\r\nConnection: close\r\n\r\n",
                  r.status, status_text(r.status), r.content_type.c_str(),
                  r.body.size());
    write_all(fd, head, std::strlen(head));
    write_all(fd, r.body.data(), r.body.size());
    ::close(fd);
  }
}

void ScrapeServer::stop() {
  if (!running()) return;
  running_.store(false, std::memory_order_relaxed);
  // Shut the listening socket down to kick accept() loose, then join.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (thread_.joinable()) thread_.join();
  listen_fd_ = -1;
}

bool http_get(std::uint16_t port, const std::string& path, std::string* body,
              int* status) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return false;
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  write_all(fd, req.data(), req.size());

  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof buf)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  if (resp.rfind("HTTP/", 0) != 0) return false;
  const std::size_t sp = resp.find(' ');
  if (sp == std::string::npos) return false;
  if (status != nullptr) *status = std::atoi(resp.c_str() + sp + 1);
  std::size_t hdr_end = resp.find("\r\n\r\n");
  std::size_t skip = 4;
  if (hdr_end == std::string::npos) {
    hdr_end = resp.find("\n\n");
    skip = 2;
  }
  if (hdr_end == std::string::npos) return false;
  if (body != nullptr) *body = resp.substr(hdr_end + skip);
  return true;
}

}  // namespace kdd::obs
