#include "obs/http.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace resex::obs {

namespace {

void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

const char* statusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    default: return "Internal Server Error";
  }
}

/// Serialises status line + headers + body. `includeBody=false` (HEAD)
/// still advertises the GET-equivalent Content-Length, per RFC 9110.
std::string renderResponse(const HttpResponse& response,
                           bool includeBody = true) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    statusText(response.status) + "\r\n";
  out += "Content-Type: " + response.contentType + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  if (includeBody) out += response.body;
  return out;
}

}  // namespace

/// One client connection's read/write state. Requests are head-only (GET
/// with no body), so reading until "\r\n\r\n" or the size bound is the
/// whole parse; the response is buffered and drained as POLLOUT allows.
struct HttpServer::Connection {
  int fd = -1;
  std::string inbox;
  std::string outbox;
  std::size_t sent = 0;
  bool responding = false;
};

HttpServer::HttpServer(std::uint16_t port) {
  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listenFd_ < 0) throw std::runtime_error("HttpServer: socket() failed");
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listenFd_, SOMAXCONN) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("HttpServer: cannot listen on port " +
                             std::to_string(port) + ": " + why);
  }
  socklen_t len = sizeof addr;
  ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  setNonBlocking(listenFd_);
  int pipeFds[2];
  if (::pipe(pipeFds) != 0) {
    ::close(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("HttpServer: pipe() failed");
  }
  wakeRead_ = pipeFds[0];
  wakeWrite_ = pipeFds[1];
  setNonBlocking(wakeRead_);
}

HttpServer::~HttpServer() {
  stop();
  if (listenFd_ >= 0) ::close(listenFd_);
  if (wakeRead_ >= 0) ::close(wakeRead_);
  if (wakeWrite_ >= 0) ::close(wakeWrite_);
}

void HttpServer::handle(std::string path, HttpHandler handler) {
  routes_.emplace_back(std::move(path), std::move(handler));
}

void HttpServer::start() {
  if (running_.load(std::memory_order_acquire)) return;
  stopRequested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serveLoop(); });
}

void HttpServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  stopRequested_.store(true, std::memory_order_release);
  const char wake = 'w';
  [[maybe_unused]] const auto n = ::write(wakeWrite_, &wake, 1);
  if (thread_.joinable()) thread_.join();
}

HttpResponse HttpServer::dispatch(const HttpRequest& request) const {
  if (request.method != "GET" && request.method != "HEAD")
    return HttpResponse::text("method not allowed\n", 405);
  for (const auto& [path, handler] : routes_)
    if (path == request.path) return handler(request);
  return HttpResponse::notFound();
}

void HttpServer::serveLoop() {
  std::vector<Connection> connections;
  std::vector<pollfd> fds;
  while (!stopRequested_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back(pollfd{listenFd_, POLLIN, 0});
    fds.push_back(pollfd{wakeRead_, POLLIN, 0});
    for (const Connection& conn : connections)
      fds.push_back(pollfd{conn.fd,
                           static_cast<short>(conn.responding ? POLLOUT : POLLIN),
                           0});
    // No idle timeout: the wake pipe (fds[1], written by stop()) is the
    // sole idle wakeup, so an idle server parks in the kernel instead of
    // spinning awake four times a second.
    if (::poll(fds.data(), fds.size(), /*timeout_ms=*/-1) < 0) {
      if (errno == EINTR) continue;
      RESEX_LOG_ERROR("obs.http: poll failed: %s", std::strerror(errno));
      break;
    }

    if (fds[0].revents & POLLIN) {
      for (;;) {
        const int client = ::accept(listenFd_, nullptr, nullptr);
        if (client < 0) break;
        setNonBlocking(client);
        const int one = 1;
        ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        connections.push_back(Connection{client, {}, {}, 0, false});
      }
    }
    if (fds[1].revents & POLLIN) {
      char drain[16];
      while (::read(wakeRead_, drain, sizeof drain) > 0) {
      }
    }

    // fds[i + 2] corresponds to connections[i] as polled; connections
    // accepted this round sit past the polled range and are skipped.
    const std::size_t polled = fds.size() - 2;
    for (std::size_t i = 0; i < polled && i < connections.size(); ++i) {
      Connection& conn = connections[i];
      bool drop = (fds[i + 2].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      if (!drop && !conn.responding && (fds[i + 2].revents & POLLIN)) {
        char buf[2048];
        bool peerClosed = false;
        for (;;) {
          const ssize_t n = ::read(conn.fd, buf, sizeof buf);
          if (n > 0) {
            conn.inbox.append(buf, static_cast<std::size_t>(n));
            if (conn.inbox.size() > kMaxRequestBytes) break;
            continue;
          }
          peerClosed = n == 0;
          break;
        }
        if (conn.inbox.size() > kMaxRequestBytes) {
          conn.outbox = renderResponse(
              HttpResponse::text("request too large\n", 431));
          conn.responding = true;
        } else if (const std::size_t headEnd = conn.inbox.find("\r\n\r\n");
                   headEnd != std::string::npos) {
          // Parse the request line; headers are read and ignored.
          HttpRequest request;
          const std::size_t lineEnd = conn.inbox.find("\r\n");
          const std::string line = conn.inbox.substr(0, lineEnd);
          const std::size_t sp1 = line.find(' ');
          const std::size_t sp2 =
              sp1 == std::string::npos ? std::string::npos
                                       : line.find(' ', sp1 + 1);
          if (sp1 == std::string::npos || sp2 == std::string::npos) {
            conn.outbox =
                renderResponse(HttpResponse::text("bad request\n", 400));
          } else {
            request.method = line.substr(0, sp1);
            std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
            if (const std::size_t qm = target.find('?');
                qm != std::string::npos) {
              request.query = target.substr(qm + 1);
              target.resize(qm);
            }
            request.path = std::move(target);
            HttpResponse response;
            try {
              response = dispatch(request);
            } catch (const std::exception& e) {
              response = HttpResponse::text(
                  std::string("handler error: ") + e.what() + "\n", 500);
            }
            conn.outbox = renderResponse(response, request.method != "HEAD");
            requests_.fetch_add(1, std::memory_order_relaxed);
          }
          conn.responding = true;
        }
        // A peer that closed without completing a request head will never
        // complete one; reap instead of polling it forever.
        if (peerClosed && !conn.responding) drop = true;
      }
      if (!drop && conn.responding && (fds[i + 2].revents & POLLOUT)) {
        // MSG_NOSIGNAL: a peer that disconnects mid-response must surface
        // as EPIPE here, not raise SIGPIPE and kill the whole process.
        const ssize_t n = ::send(conn.fd, conn.outbox.data() + conn.sent,
                                 conn.outbox.size() - conn.sent, MSG_NOSIGNAL);
        if (n > 0) conn.sent += static_cast<std::size_t>(n);
        else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) drop = true;
        if (conn.sent == conn.outbox.size()) drop = true;  // done: close
      }
      if (drop) {
        ::close(conn.fd);
        conn.fd = -1;
      }
    }
    std::erase_if(connections, [](const Connection& c) { return c.fd < 0; });
  }
  for (const Connection& conn : connections) ::close(conn.fd);
}

std::unique_ptr<HttpServer> serveIntrospection(int port,
                                               IntrospectionSources sources) {
  if (port < 0) return nullptr;
  auto server = std::make_unique<HttpServer>(static_cast<std::uint16_t>(port));
  server->handle("/healthz", [](const HttpRequest&) {
    return HttpResponse::text("ok\n");
  });
  server->handle("/metrics", [](const HttpRequest&) {
    return HttpResponse::text(
        MetricsRegistry::global().snapshot().toPrometheusText());
  });
  server->handle("/metrics.json", [](const HttpRequest&) {
    return HttpResponse::json(MetricsRegistry::global().snapshot().toJson());
  });
  server->handle("/traces", [](const HttpRequest&) {
    return HttpResponse::json(TraceRegistry::global().tracesJson());
  });
  server->handle("/debug/slo", [](const HttpRequest&) {
    return HttpResponse::json(SloRegistry::global().toJson());
  });
  if (sources.brokerJson)
    server->handle("/debug/broker",
                   [source = std::move(sources.brokerJson)](const HttpRequest&) {
                     return HttpResponse::json(source());
                   });
  if (sources.shardsJson)
    server->handle("/debug/shards",
                   [source = std::move(sources.shardsJson)](const HttpRequest&) {
                     return HttpResponse::json(source());
                   });
  if (sources.tenantsJson)
    server->handle("/debug/tenants",
                   [source = std::move(sources.tenantsJson)](const HttpRequest&) {
                     return HttpResponse::json(source());
                   });
  server->start();
  return server;
}

}  // namespace resex::obs
