#include "net/http.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <utility>

namespace music::net {

namespace {

constexpr size_t kMaxHeaderBytes = 64 * 1024;
constexpr size_t kMaxBodyBytes = 16 * 1024 * 1024;

bool set_nonblocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

const char* reason_for(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 409: return "Conflict";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Status";
  }
}

}  // namespace

HttpServer::HttpServer(EventLoop& loop, Handler handler)
    : loop_(loop), handler_(std::move(handler)) {}

HttpServer::~HttpServer() {
  if (listen_fd_ >= 0) {
    loop_.del_fd(listen_fd_);
    close(listen_fd_);
  }
  for (auto& [id, c] : conns_) {
    loop_.del_fd(c->fd);
    close(c->fd);
  }
}

uint16_t HttpServer::listen(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0 || !set_nonblocking(fd)) {
    close(fd);
    return 0;
  }
  socklen_t len = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  if (!loop_.add_fd(fd, EPOLLIN, [this](uint32_t ev) { on_accept(ev); })) {
    close(fd);
    return 0;
  }
  listen_fd_ = fd;
  return ntohs(addr.sin_port);
}

void HttpServer::on_accept(uint32_t) {
  while (true) {
    int cfd = accept(listen_fd_, nullptr, nullptr);
    if (cfd < 0) break;
    if (!set_nonblocking(cfd)) {
      close(cfd);
      continue;
    }
    int one = 1;
    setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    uint64_t cid = next_conn_id_++;
    if (!loop_.add_fd(cfd, EPOLLIN,
                      [this, cid](uint32_t ev) { on_conn_io(cid, ev); })) {
      close(cfd);
      continue;
    }
    auto conn = std::make_unique<Conn>();
    conn->id = cid;
    conn->fd = cfd;
    conns_[cid] = std::move(conn);
  }
}

void HttpServer::close_conn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  loop_.del_fd(it->second->fd);
  close(it->second->fd);
  conns_.erase(it);
}

void HttpServer::on_conn_io(uint64_t conn_id, uint32_t events) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn& c = *it->second;
  if (events & (EPOLLHUP | EPOLLERR)) {
    close_conn(conn_id);
    return;
  }
  if (events & EPOLLIN) {
    char buf[16384];
    while (true) {
      ssize_t n = read(c.fd, buf, sizeof(buf));
      if (n > 0) {
        c.inbuf.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      close_conn(conn_id);
      return;
    }
    if (!drain(c)) {
      close_conn(conn_id);
      return;
    }
  }
  if (events & EPOLLOUT) flush(c);
}

bool HttpServer::drain(Conn& c) {
  uint64_t cid = c.id;
  while (!c.busy) {
    size_t hdr_end = c.inbuf.find("\r\n\r\n");
    if (hdr_end == std::string::npos) {
      return c.inbuf.size() <= kMaxHeaderBytes;  // oversized headers: kill
    }
    // Request line: METHOD SP PATH SP VERSION.
    size_t line_end = c.inbuf.find("\r\n");
    std::string line = c.inbuf.substr(0, line_end);
    size_t sp1 = line.find(' ');
    size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                          : line.find(' ', sp1 + 1);
    if (sp2 == std::string::npos) return false;
    HttpRequest req;
    req.method = line.substr(0, sp1);
    req.path = line.substr(sp1 + 1, sp2 - sp1 - 1);
    // Content-Length (case-insensitive scan of the header block).
    size_t body_len = 0;
    {
      std::string headers = c.inbuf.substr(line_end + 2, hdr_end - line_end);
      for (auto& ch : headers) {
        ch = static_cast<char>(
            ch >= 'A' && ch <= 'Z' ? ch - 'A' + 'a' : ch);
      }
      size_t pos = headers.find("content-length:");
      if (pos != std::string::npos) {
        body_len = static_cast<size_t>(
            strtoul(headers.c_str() + pos + 15, nullptr, 10));
        if (body_len > kMaxBodyBytes) return false;
      }
    }
    size_t total = hdr_end + 4 + body_len;
    if (c.inbuf.size() < total) return true;  // body still in flight
    req.body = c.inbuf.substr(hdr_end + 4, body_len);
    c.inbuf.erase(0, total);

    // Hand off to the (possibly async) handler.  A synchronous handler
    // calls finish() before handler_ returns — busy flips back and the
    // loop picks up any pipelined request; an async one leaves busy set
    // and parsing pauses until its respond callback fires.
    c.busy = true;
    handler_(req, [this, cid](HttpResponse resp) {
      finish(cid, std::move(resp));
    });
    // finish() may have closed the connection (malformed pipelined data);
    // `c` is dangling then — re-check before touching it again.
    if (conns_.find(cid) == conns_.end()) return true;
  }
  return true;
}

void HttpServer::finish(uint64_t conn_id, HttpResponse resp) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // connection died while the handler ran
  Conn& c = *it->second;
  std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                    reason_for(resp.status) +
                    "\r\nContent-Type: " + resp.content_type +
                    "\r\nContent-Length: " + std::to_string(resp.body.size()) +
                    "\r\n\r\n" + resp.body;
  c.outbuf.append(out);
  flush(c);
  c.busy = false;
  if (!drain(c)) close_conn(conn_id);
}

void HttpServer::flush(Conn& c) {
  while (!c.outbuf.empty()) {
    // MSG_NOSIGNAL: a client that hung up must not SIGPIPE the server.
    ssize_t n = send(c.fd, c.outbuf.data(), c.outbuf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      c.outbuf.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return;  // hard error: EPOLLHUP tears the connection down
  }
  loop_.mod_fd(c.fd, EPOLLIN | (c.outbuf.empty() ? 0u : uint32_t{EPOLLOUT}));
}

}  // namespace music::net
