/// \file http.cpp
/// \brief POSIX-socket implementation of the minimal HTTP server/client.

#include "common/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <list>
#include <mutex>
#include <thread>

namespace prime::common {
namespace {

/// \brief Close \p fd if open and mark it closed. Tolerates -1.
void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// \brief Send all of \p data on \p fd; returns false on any error (peer
///        gone). MSG_NOSIGNAL keeps a dead peer from raising SIGPIPE.
bool send_all(int fd, const char* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool send_all(int fd, const std::string& data) {
  return send_all(fd, data.data(), data.size());
}

/// \brief %xx-decode a URL component ('+' is left alone: the dashboard never
///        emits it and the tools never send it).
std::string url_decode(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '%' && i + 2 < in.size()) {
      const auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        return -1;
      };
      const int hi = hex(in[i + 1]);
      const int lo = hex(in[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
        continue;
      }
    }
    out.push_back(in[i]);
  }
  return out;
}

/// \brief Split "path?a=1&b=2" into the request's path/query fields.
void parse_target(const std::string& target, HttpRequest& req) {
  req.target = target;
  const std::size_t qpos = target.find('?');
  req.path = target.substr(0, qpos);
  if (qpos == std::string::npos) return;
  std::string rest = target.substr(qpos + 1);
  std::size_t start = 0;
  while (start <= rest.size()) {
    std::size_t amp = rest.find('&', start);
    if (amp == std::string::npos) amp = rest.size();
    const std::string pair = rest.substr(start, amp - start);
    if (!pair.empty()) {
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        req.query[url_decode(pair)] = "";
      } else {
        req.query[url_decode(pair.substr(0, eq))] =
            url_decode(pair.substr(eq + 1));
      }
    }
    start = amp + 1;
  }
}

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

/// \brief Read from \p fd until the header terminator, parse the request
///        line. Returns false on malformed/oversized/closed input.
bool read_request(int fd, HttpRequest& req) {
  std::string buf;
  char chunk[1024];
  // 16 KB is orders of magnitude beyond any dash_tool/curl request line.
  constexpr std::size_t kMaxHeader = 16 * 1024;
  while (buf.find("\r\n\r\n") == std::string::npos) {
    if (buf.size() > kMaxHeader) return false;
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  const std::size_t eol = buf.find("\r\n");
  const std::string line = buf.substr(0, eol);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) return false;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return false;
  req.method = line.substr(0, sp1);
  parse_target(line.substr(sp1 + 1, sp2 - sp1 - 1), req);
  return !req.method.empty() && !req.path.empty();
}

std::string response_head(int status, const std::string& content_type,
                          bool streaming, std::size_t body_len) {
  std::string head = "HTTP/1.1 " + std::to_string(status) + " " +
                     status_text(status) + "\r\n";
  head += "Content-Type: " + content_type + "\r\n";
  head += "Connection: close\r\n";
  head += "Cache-Control: no-cache\r\n";
  if (!streaming) {
    head += "Content-Length: " + std::to_string(body_len) + "\r\n";
  }
  head += "\r\n";
  return head;
}

/// \brief Connect to \p host:\p port with send/recv timeouts; throws
///        HttpError on failure. Caller owns the returned fd.
int connect_to(const std::string& host, std::uint16_t port, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw HttpError("http: socket() failed: " +
                    std::string(std::strerror(errno)));
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw HttpError("http: bad host address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw HttpError("http: connect to " + host + ":" + std::to_string(port) +
                    " failed: " + err);
  }
  return fd;
}

/// \brief Send the GET request line; throws HttpError on failure.
void send_get(int fd, const std::string& host, const std::string& target) {
  const std::string req = "GET " + target +
                          " HTTP/1.1\r\nHost: " + host +
                          "\r\nConnection: close\r\n\r\n";
  if (!send_all(fd, req)) {
    throw HttpError("http: failed to send request for " + target);
  }
}

/// \brief Parse "HTTP/1.1 200 OK" + headers out of a received prefix.
///        Returns the byte offset where the body starts, or npos if the
///        header block is not complete yet.
std::size_t parse_response_head(const std::string& buf, int& status,
                                long long& content_length) {
  const std::size_t head_end = buf.find("\r\n\r\n");
  if (head_end == std::string::npos) return std::string::npos;
  const std::size_t eol = buf.find("\r\n");
  const std::string line = buf.substr(0, eol);
  const std::size_t sp = line.find(' ');
  if (sp == std::string::npos || line.compare(0, 5, "HTTP/") != 0) {
    throw HttpError("http: malformed status line '" + line + "'");
  }
  status = std::atoi(line.c_str() + sp + 1);
  content_length = -1;
  std::size_t pos = eol + 2;
  while (pos < head_end) {
    std::size_t next = buf.find("\r\n", pos);
    if (next == std::string::npos || next > head_end) next = head_end;
    std::string header = buf.substr(pos, next - pos);
    for (char& c : header) c = static_cast<char>(std::tolower(c));
    if (header.compare(0, 15, "content-length:") == 0) {
      content_length = std::atoll(header.c_str() + 15);
    }
    pos = next + 2;
  }
  return head_end + 4;
}

}  // namespace

struct HttpServer::Impl {
  /// \brief One live connection: its fd, its thread, and a done flag the
  ///        thread raises as its very last action so the accept loop can
  ///        join-and-erase it. `done` is only set after the thread's final
  ///        conn_mu critical section, so joining a done connection can
  ///        never deadlock against a thread still waiting on conn_mu.
  struct Conn {
    int fd = -1;
    std::atomic<bool> done{false};
    std::thread thread;
  };

  Handler handler;
  int listen_fd = -1;
  std::uint16_t port = 0;
  std::atomic<bool> stopping{false};
  std::atomic<std::uint64_t> served{0};
  std::thread accept_thread;
  std::mutex conn_mu;                      ///< Guards conns (list + fd fields).
  std::list<std::unique_ptr<Conn>> conns;  ///< Live connections; reaped per accept.

  void serve_connection(Conn* conn);
  void reap_finished();
  void accept_loop();
};

void HttpServer::Impl::serve_connection(Conn* conn) {
  const int fd = conn->fd;
  HttpRequest req;
  if (read_request(fd, req)) {
    HttpResponse resp;
    if (req.method != "GET") {
      resp.status = 400;
      resp.content_type = "text/plain";
      resp.body = "only GET is supported\n";
    } else {
      try {
        resp = handler(req);
      } catch (const std::exception& e) {
        resp = HttpResponse{};
        resp.status = 500;
        resp.content_type = "text/plain";
        resp.body = std::string("handler error: ") + e.what() + "\n";
        resp.next_chunk = nullptr;
      }
    }
    const bool streaming = static_cast<bool>(resp.next_chunk);
    // Count the request as served *before* dispatching the bytes: on
    // loopback a client can read the complete body while this thread is
    // still inside send(), so counting afterwards races any caller that
    // checks requests_served() the moment its GET returns.
    served.fetch_add(1, std::memory_order_relaxed);
    bool ok = send_all(
        fd, response_head(resp.status, resp.content_type, streaming,
                          resp.body.size()));
    if (ok && !resp.body.empty()) ok = send_all(fd, resp.body);
    if (ok && streaming) {
      std::string chunk;
      while (!stopping.load(std::memory_order_relaxed)) {
        chunk.clear();
        if (!resp.next_chunk(chunk)) break;
        if (!chunk.empty() && !send_all(fd, chunk)) break;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu);
    close_fd(conn->fd);
  }
  conn->done.store(true, std::memory_order_release);
}

void HttpServer::Impl::reap_finished() {
  // Splice finished connections out under the lock, join them outside it:
  // a long-poll dashboard then holds exactly its live connections, instead
  // of one zombie thread + slot per request ever served.
  std::list<std::unique_ptr<Conn>> finished;
  {
    std::lock_guard<std::mutex> lock(conn_mu);
    for (auto it = conns.begin(); it != conns.end();) {
      const auto next = std::next(it);
      if ((*it)->done.load(std::memory_order_acquire)) {
        finished.splice(finished.end(), conns, it);
      }
      it = next;
    }
  }
  for (auto& conn : finished) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void HttpServer::Impl::accept_loop() {
  while (!stopping.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen fd closed by stop(), or unrecoverable.
    }
    if (stopping.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    reap_finished();
    // Bound how long a silent or stalled peer can pin this connection's
    // thread: recv in read_request and send on a wedged client both time
    // out instead of blocking until stop().
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    Conn* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conn_mu);
      conns.push_back(std::move(conn));
    }
    try {
      raw->thread = std::thread([this, raw] { serve_connection(raw); });
    } catch (const std::system_error&) {
      // Thread spawn failed (EAGAIN under resource pressure): drop this one
      // connection and keep accepting rather than letting the exception
      // escape the accept thread and terminate the monitored run.
      std::lock_guard<std::mutex> lock(conn_mu);
      close_fd(raw->fd);
      conns.remove_if([raw](const std::unique_ptr<Conn>& c) {
        return c.get() == raw;
      });
    }
  }
}

HttpServer::HttpServer(std::uint16_t port, Handler handler)
    : impl_(std::make_unique<Impl>()) {
  impl_->handler = std::move(handler);
  impl_->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (impl_->listen_fd < 0) {
    throw HttpError("http: socket() failed: " +
                    std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    close_fd(impl_->listen_fd);
    throw HttpError("http: cannot bind 127.0.0.1:" + std::to_string(port) +
                    ": " + err);
  }
  if (::listen(impl_->listen_fd, 16) != 0) {
    const std::string err = std::strerror(errno);
    close_fd(impl_->listen_fd);
    throw HttpError("http: listen() failed: " + err);
  }
  socklen_t len = sizeof addr;
  ::getsockname(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  impl_->port = ntohs(addr.sin_port);
  impl_->accept_thread = std::thread([this] { impl_->accept_loop(); });
}

HttpServer::~HttpServer() { stop(); }

std::uint16_t HttpServer::port() const noexcept { return impl_->port; }

std::uint64_t HttpServer::requests_served() const noexcept {
  return impl_->served.load(std::memory_order_relaxed);
}

void HttpServer::stop() {
  if (impl_->stopping.exchange(true)) {
    // Second call: threads already joined (or being joined) by the first.
    return;
  }
  // shutdown() unblocks accept() on the listen fd, and any connection thread
  // parked in recv()/send() below. The listen fd is closed only after the
  // accept thread has exited: it reads the fd on every accept, and closing
  // under it would race the read (and let accept() hit a reused fd number).
  ::shutdown(impl_->listen_fd, SHUT_RDWR);
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  close_fd(impl_->listen_fd);
  {
    std::lock_guard<std::mutex> lock(impl_->conn_mu);
    for (auto& conn : impl_->conns) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  // accept_loop has exited, so conns can no longer grow; connection threads
  // only mutate their own fd/done fields, never the list itself.
  for (auto& conn : impl_->conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  std::lock_guard<std::mutex> lock(impl_->conn_mu);
  for (auto& conn : impl_->conns) close_fd(conn->fd);
  impl_->conns.clear();
}

HttpResult http_get(const std::string& host, std::uint16_t port,
                    const std::string& target, int timeout_ms) {
  const int fd = connect_to(host, port, timeout_ms);
  try {
    send_get(fd, host, target);
    std::string buf;
    char chunk[4096];
    int status = 0;
    long long content_length = -1;
    std::size_t body_start = std::string::npos;
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) {
        throw HttpError("http: recv from " + host + ":" +
                        std::to_string(port) + " failed: " +
                        std::string(std::strerror(errno)));
      }
      if (n == 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
      if (body_start == std::string::npos) {
        body_start = parse_response_head(buf, status, content_length);
      }
      if (body_start != std::string::npos && content_length >= 0 &&
          buf.size() - body_start >=
              static_cast<std::size_t>(content_length)) {
        break;
      }
    }
    if (body_start == std::string::npos) {
      throw HttpError("http: connection closed before response headers");
    }
    ::close(fd);
    HttpResult result;
    result.status = status;
    result.body = buf.substr(body_start);
    if (content_length >= 0 &&
        result.body.size() > static_cast<std::size_t>(content_length)) {
      result.body.resize(static_cast<std::size_t>(content_length));
    }
    return result;
  } catch (...) {
    ::close(fd);
    throw;
  }
}

int http_get_stream(
    const std::string& host, std::uint16_t port, const std::string& target,
    const std::function<bool(const std::string& line)>& on_line,
    int timeout_ms) {
  const int fd = connect_to(host, port, timeout_ms);
  try {
    send_get(fd, host, target);
    std::string buf;
    char chunk[4096];
    int status = 0;
    long long content_length = -1;
    std::size_t body_start = std::string::npos;
    bool keep_going = true;
    std::size_t scanned = 0;  // Start of the first undelivered line.
    while (keep_going) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // Close or timeout ends the stream.
      buf.append(chunk, static_cast<std::size_t>(n));
      if (body_start == std::string::npos) {
        body_start = parse_response_head(buf, status, content_length);
        if (body_start == std::string::npos) continue;
        scanned = body_start;
      }
      for (;;) {
        const std::size_t nl = buf.find('\n', scanned);
        if (nl == std::string::npos) break;
        std::string line = buf.substr(scanned, nl - scanned);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        scanned = nl + 1;
        if (!on_line(line)) {
          keep_going = false;
          break;
        }
      }
    }
    if (body_start == std::string::npos) {
      throw HttpError("http: connection closed before response headers");
    }
    ::close(fd);
    return status;
  } catch (...) {
    ::close(fd);
    throw;
  }
}

}  // namespace prime::common
