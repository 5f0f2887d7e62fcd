#include "net/tcp.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

namespace music::net {

namespace {

bool set_nonblocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_nodelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// The retryable store-seam result synthesized for an in-flight call whose
/// connection died: a nack with no ballot promise and no cell.  Every
/// consumer treats it exactly like a replica-side rejection — it counts as
/// a (failed) response toward quorum waits and never toward success, so
/// failing fast is safe for both the replication and the Paxos paths.
wire::StoreReply store_nack(PeerId from) {
  wire::StoreReply nack;
  nack.ok = false;
  nack.ballot = -1;
  nack.has_cell = false;
  nack.cell_ballot = -1;
  nack.from = static_cast<int32_t>(from);
  return nack;
}

/// Appends what `fd` has to `inbuf`.  A short read means the socket is
/// empty for now; the level-triggered epoll reports whatever arrives later,
/// so the loop stops there instead of paying a read() that returns EAGAIN.
/// Returns false at EOF or on a hard error; the bytes read before it stay
/// in `inbuf` for the caller to deliver first.
bool read_available(int fd, std::string& inbuf) {
  char buf[16384];
  while (true) {
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) {
      inbuf.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) return true;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

/// One non-blocking send() of `outbuf`, dropping the sent prefix.  Returns
/// false on a hard error.
bool write_once(int fd, std::string& outbuf) {
  if (outbuf.empty()) return true;
  // MSG_NOSIGNAL: a peer that closed first (e.g. mid rolling restart)
  // must surface as EPIPE here, not kill the process with SIGPIPE.
  ssize_t n = send(fd, outbuf.data(), outbuf.size(), MSG_NOSIGNAL);
  if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  outbuf.erase(0, static_cast<size_t>(n));
  return true;
}

}  // namespace

TcpTransport::TcpTransport(EventLoop& loop, TcpOptions options)
    : loop_(loop),
      sim_(loop.simulation()),
      options_(options),
      backoff_rng_(options.backoff_seed),
      flush_hook_(loop.add_flush_hook([this] { flush(); })) {}

TcpTransport::~TcpTransport() {
  loop_.remove_flush_hook(flush_hook_);
  for (auto& l : listeners_) {
    if (l.fd >= 0) {
      loop_.del_fd(l.fd);
      close(l.fd);
    }
  }
  for (auto& [id, p] : peers_) {
    if (p->fd >= 0) {
      loop_.del_fd(p->fd);
      close(p->fd);
    }
  }
  for (auto& [id, c] : inconns_) {
    loop_.del_fd(c->fd);
    close(c->fd);
  }
}

// ---- Handshake helpers -----------------------------------------------------

wire::PeelLimits TcpTransport::peel_limits(bool hello_ok, uint8_t version) const {
  wire::PeelLimits lim;
  lim.min_version = wire::kWireVersionMin;
  // Before the handshake only the Hello (always v1-layout) is expected, but
  // the peel window stays open to our full range so a peer's first frame is
  // judged by TYPE at dispatch, not mis-reported as a version error.  After
  // the handshake nothing above the pinned version may appear.
  lim.max_version = hello_ok ? version : options_.wire_version_max;
  if (lim.max_version < wire::kWireVersionMin) lim.max_version = wire::kWireVersionMin;
  lim.max_frame_bytes = options_.max_frame_bytes;
  return lim;
}

bool TcpTransport::accept_hello(const wire::FrameView& fv, uint8_t& version_out) {
  if (fv.type != wire::FrameType::Hello) return false;
  auto hello = wire::parse_hello(fv.payload);
  if (!hello) return false;
  auto v = wire::negotiate(options_.wire_version_min, options_.wire_version_max,
                           hello->min, hello->max);
  if (!v) return false;  // disjoint ranges: incompatible peer
  version_out = *v;
  return true;
}

// ---- Local endpoints -------------------------------------------------------

void TcpTransport::bind_local(PeerId id, ServeRequestFn serve_request,
                              ServeStoreFn serve_store) {
  local_[id] =
      LocalEndpoint{std::move(serve_request), std::move(serve_store)};
}

void TcpTransport::dispatch_local_invoke(const LocalEndpoint& ep,
                                         wire::Request req,
                                         sim::Promise<wire::Response> reply) {
  RespondFn respond = [reply](wire::Response resp) mutable {
    reply.set_value(std::move(resp));
  };
  ep.serve_request(std::move(req), std::move(respond));
}

// ---- Listening side --------------------------------------------------------

uint16_t TcpTransport::listen_for(PeerId id, uint16_t port,
                                  ServeRequestFn serve_request,
                                  ServeStoreFn serve_store) {
  bind_local(id, std::move(serve_request), std::move(serve_store));

  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, 64) != 0 || !set_nonblocking(fd)) {
    close(fd);
    return 0;
  }
  socklen_t len = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  uint16_t bound = ntohs(addr.sin_port);

  size_t idx = listeners_.size();
  if (!loop_.add_fd(fd, EPOLLIN, [this, idx](uint32_t) { on_accept(idx); })) {
    close(fd);
    return 0;
  }
  listeners_.push_back(Listener{fd, id});
  return bound;
}

void TcpTransport::on_accept(size_t listener_idx) {
  const Listener& l = listeners_[listener_idx];
  while (true) {
    int cfd = accept(l.fd, nullptr, nullptr);
    if (cfd < 0) break;  // EAGAIN or error: done for this wakeup
    if (!set_nonblocking(cfd)) {
      close(cfd);
      continue;
    }
    set_nodelay(cfd);
    uint64_t cid = next_conn_id_++;
    if (!loop_.add_fd(cfd, EPOLLIN,
                      [this, cid](uint32_t ev) { on_inconn_io(cid, ev); })) {
      close(cfd);  // never watched: drop it like a failed accept
      continue;
    }
    auto conn = std::make_unique<InConn>();
    conn->id = cid;
    conn->fd = cfd;
    conn->serves = l.serves;
    InConn& c = *conn;
    inconns_[cid] = std::move(conn);
    // Advertise our version range immediately; the peer does the same, and
    // both sides pin the connection version on receipt.
    wire::Hello hello;
    hello.min = options_.wire_version_min;
    hello.max = options_.wire_version_max;
    hello.node = static_cast<uint32_t>(l.serves);
    send_on_inconn(c, wire::encode_hello(hello));
  }
}

void TcpTransport::close_inconn(uint64_t conn_id) {
  auto it = inconns_.find(conn_id);
  if (it == inconns_.end()) return;
  loop_.del_fd(it->second->fd);
  close(it->second->fd);
  inconns_.erase(it);
}

void TcpTransport::on_inconn_io(uint64_t conn_id, uint32_t events) {
  auto it = inconns_.find(conn_id);
  if (it == inconns_.end()) return;
  InConn& c = *it->second;
  // Frames that arrived before a close are served before it is honoured.
  bool open = (events & (EPOLLHUP | EPOLLERR)) == 0;
  if (events & EPOLLIN) {
    if (!read_available(c.fd, c.inbuf)) open = false;  // EOF or hard error
    if (!drain_serving(c)) {
      close_inconn(conn_id);  // malformed frame or drain: kill the connection
      return;
    }
    // drain_serving may have dispatched handlers that closed this conn.
    if (inconns_.find(conn_id) == inconns_.end()) return;
  }
  if (!open) {
    close_inconn(conn_id);
    return;
  }
  if (events & EPOLLOUT) write_inconn(c);
}

bool TcpTransport::drain_serving(InConn& c) {
  while (true) {
    wire::FrameView fv;
    wire::FrameStatus st = wire::peel_frame(c.inbuf.data(), c.inbuf.size(), fv,
                                            peel_limits(c.hello_ok, c.version));
    if (st == wire::FrameStatus::NeedMore) return true;
    if (st != wire::FrameStatus::Ok) return false;  // Bad or TooLarge
    if (!c.hello_ok) {
      // The handshake gate: nothing is served until the peer's Hello pins a
      // version.  A request-before-Hello is a protocol violation.
      if (!accept_hello(fv, c.version)) return false;
      c.hello_ok = true;
      c.inbuf.erase(0, fv.frame_bytes);
      continue;
    }
    auto lit = local_.find(c.serves);
    const LocalEndpoint* ep = lit == local_.end() ? nullptr : &lit->second;
    switch (fv.type) {
      case wire::FrameType::ClientRequest: {
        auto req = wire::parse_request(fv.payload);
        if (!req) return false;
        if (ep != nullptr && ep->serve_request) {
          uint64_t cid = c.id;
          uint64_t rid = fv.req_id;
          RespondFn respond = [this, cid, rid](wire::Response resp) {
            respond_on_inconn(cid, rid, resp);
          };
          ep->serve_request(std::move(*req), std::move(respond));
        }
        break;
      }
      case wire::FrameType::StoreRequest: {
        auto msg = wire::parse_store_request(fv.payload);
        if (!msg) return false;
        if (ep != nullptr && ep->serve_store) {
          wire::StoreReply reply = ep->serve_store(*msg);
          send_on_inconn(c, wire::encode_store_reply(fv.req_id, reply, c.version));
        }
        break;
      }
      case wire::FrameType::Goodbye:
        // The peer is draining; it will not send more requests and no reply
        // we still owe it can matter.  Clean close.
        return false;
      default:
        return false;  // responses / second Hellos never arrive here
    }
    c.inbuf.erase(0, fv.frame_bytes);
  }
}

void TcpTransport::respond_on_inconn(uint64_t conn_id, uint64_t req_id,
                                     const wire::Response& resp) {
  // Encoding is deferred to send time so the reply is stamped with the
  // version the connection negotiated (and silently dropped if the
  // requester is already gone).
  auto it = inconns_.find(conn_id);
  if (it == inconns_.end()) return;  // requester went away: reply dropped
  InConn& c = *it->second;
  send_on_inconn(c, wire::encode_response(req_id, resp, c.version));
}

void TcpTransport::send_on_inconn(InConn& c, std::string frame) {
  c.outbuf.append(frame);
  if (!c.dirty) {
    c.dirty = true;
    dirty_inconns_.push_back(c.id);
  }
}

void TcpTransport::write_inconn(InConn& c) {
  if (!write_once(c.fd, c.outbuf)) {
    close_inconn(c.id);
    return;
  }
  set_out_interest(c.fd, c.out_armed, !c.outbuf.empty());
}

void TcpTransport::set_out_interest(int fd, bool& armed, bool want) {
  if (armed == want) return;
  armed = want;
  loop_.mod_fd(fd, EPOLLIN | (want ? uint32_t{EPOLLOUT} : 0u));
}

void TcpTransport::flush() {
  // Walk a swapped-out list: a write may close a connection, and an id
  // whose connection is gone is simply skipped.
  flushing_peers_.swap(dirty_peers_);
  for (PeerId id : flushing_peers_) {
    auto it = peers_.find(id);
    if (it == peers_.end()) continue;
    it->second->dirty = false;
    write_peer(*it->second);
  }
  flushing_peers_.clear();
  flushing_inconns_.swap(dirty_inconns_);
  for (uint64_t cid : flushing_inconns_) {
    auto it = inconns_.find(cid);
    if (it == inconns_.end()) continue;
    it->second->dirty = false;
    write_inconn(*it->second);
  }
  flushing_inconns_.clear();
}

// ---- Outbound side ---------------------------------------------------------

void TcpTransport::route(PeerId id, std::string host, uint16_t port) {
  auto p = std::make_unique<Peer>();
  p->host = std::move(host);
  p->port = port;
  peers_[id] = std::move(p);
  start_connect(id);
}

void TcpTransport::start_connect(PeerId id) {
  auto it = peers_.find(id);
  if (it == peers_.end()) return;
  Peer& p = *it->second;
  p.reconnect_pending = false;
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0 || !set_nonblocking(fd)) {
    if (fd >= 0) close(fd);
    schedule_reconnect(id);
    return;
  }
  set_nodelay(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(p.port);
  if (inet_pton(AF_INET, p.host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    schedule_reconnect(id);
    return;
  }
  int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    close(fd);
    schedule_reconnect(id);
    return;
  }
  uint32_t mask = rc != 0 ? (EPOLLIN | EPOLLOUT)
                          : static_cast<uint32_t>(EPOLLIN);
  if (!loop_.add_fd(fd, mask, [this, id](uint32_t ev) { on_peer_io(id, ev); })) {
    close(fd);  // never watched: a failed connect, retried with backoff
    schedule_reconnect(id);
    return;
  }
  p.fd = fd;
  p.connected = false;
  p.connecting = (rc != 0);
  p.out_armed = (rc != 0);  // the connect completes as EPOLLOUT
  if (rc == 0) on_peer_connected(id);
}

void TcpTransport::on_peer_connected(PeerId id) {
  auto it = peers_.find(id);
  if (it == peers_.end()) return;
  Peer& p = *it->second;
  p.connecting = false;
  p.connected = true;
  // First bytes on the wire in each direction: our version advertisement.
  // No payload frame is sent until the peer's Hello arrives (hello_ok), so
  // the peer never sees a frame above the version it ends up pinning.
  wire::Hello hello;
  hello.min = options_.wire_version_min;
  hello.max = options_.wire_version_max;
  hello.node = options_.hello_node;
  send_to_peer(id, p, wire::encode_hello(hello));
}

void TcpTransport::schedule_reconnect(PeerId id) {
  auto it = peers_.find(id);
  if (it == peers_.end() || it->second->reconnect_pending) return;
  Peer& p = *it->second;
  p.reconnect_pending = true;
  // Decorrelated jitter, same scheme as client retries: spread out the
  // reconnect stampede a restarted musicd would otherwise see from every
  // peer at once, growing toward the cap while the peer stays down.
  sim::Duration prev = p.backoff > 0 ? p.backoff : options_.reconnect_backoff_base;
  p.backoff = sim::decorrelated_backoff(options_.reconnect_backoff_base,
                                        options_.reconnect_backoff_cap, prev,
                                        backoff_rng_);
  // The generation token resolves the reconnect/handshake race: if anything
  // re-established or re-failed this route before the timer fires, the gen
  // moved on and this (stale) attempt must not touch the live connection.
  uint64_t gen = p.gen;
  sim_.schedule(p.backoff, [this, id, gen] {
    auto pit = peers_.find(id);
    if (pit == peers_.end() || pit->second->gen != gen) return;
    if (pit->second->connected || pit->second->connecting) return;
    start_connect(id);
  });
}

void TcpTransport::fail_inflight(Peer& p) {
  // Requests that were on the wire when the connection died fail FAST with
  // a retryable result — not silently dropped (callers would burn a full
  // timeout) and not resent here (redelivery is the retry layer's decision,
  // so nothing can be duplicated by the transport).
  for (auto& [rid, promise] : p.pending_invoke) {
    promise.set_value(wire::Response(OpStatus::Timeout));
  }
  p.pending_invoke.clear();
  for (auto& [rid, promise] : p.pending_store) {
    promise.set_value(store_nack(-1));
  }
  p.pending_store.clear();
}

void TcpTransport::fail_peer(PeerId id) {
  auto it = peers_.find(id);
  if (it == peers_.end()) return;
  Peer& p = *it->second;
  ++p.gen;  // invalidate any timer scheduled against the old connection
  if (p.fd >= 0) {
    loop_.del_fd(p.fd);
    close(p.fd);
    p.fd = -1;
  }
  p.connected = false;
  p.connecting = false;
  p.out_armed = false;
  p.hello_ok = false;
  p.version = 0;
  p.inbuf.clear();
  p.outbuf.clear();
  fail_inflight(p);
  schedule_reconnect(id);
}

void TcpTransport::on_peer_io(PeerId id, uint32_t events) {
  auto it = peers_.find(id);
  if (it == peers_.end()) return;
  Peer& p = *it->second;
  if (p.connecting && (events & (EPOLLOUT | EPOLLERR | EPOLLHUP))) {
    int err = 0;
    socklen_t len = sizeof(err);
    getsockopt(p.fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      fail_peer(id);
      return;
    }
    on_peer_connected(id);
  }
  // Replies that arrived before a close are delivered before it is
  // honoured: a reply read in the same wakeup as the peer's FIN is a
  // reply, not a retryable failure.
  bool open = (events & (EPOLLHUP | EPOLLERR)) == 0;
  if (events & EPOLLIN) {
    if (!read_available(p.fd, p.inbuf)) open = false;  // EOF or hard error
    bool drained = false;
    if (!drain_peer(p, drained)) {
      // Either a protocol violation or a Goodbye.  A Goodbye is the clean
      // case: the peer is restarting/exiting, so tear down now — in-flight
      // requests fail retryable immediately instead of waiting for the FIN
      // — and let the backoff loop re-establish when the peer is back.  A
      // violation before the handshake completed counts against the route's
      // handshake diagnostics (incompatible or malformed Hello).
      if (!drained && !p.hello_ok) ++p.handshake_failures;
      fail_peer(id);
      return;
    }
  }
  if (!open) {
    fail_peer(id);
    return;
  }
  if ((events & EPOLLOUT) && p.connected) write_peer(p);
}

bool TcpTransport::drain_peer(Peer& p, bool& drained) {
  drained = false;
  while (true) {
    wire::FrameView fv;
    wire::FrameStatus st = wire::peel_frame(p.inbuf.data(), p.inbuf.size(), fv,
                                            peel_limits(p.hello_ok, p.version));
    if (st == wire::FrameStatus::NeedMore) return true;
    if (st != wire::FrameStatus::Ok) return false;  // Bad or TooLarge
    if (!p.hello_ok) {
      if (!accept_hello(fv, p.version)) return false;
      p.hello_ok = true;
      ++p.established_count;
      p.backoff = 0;  // healthy again: next outage starts from the base pause
      p.inbuf.erase(0, fv.frame_bytes);
      continue;
    }
    switch (fv.type) {
      case wire::FrameType::ClientResponse: {
        auto resp = wire::parse_response(fv.payload);
        if (!resp) return false;
        auto pit = p.pending_invoke.find(fv.req_id);
        if (pit != p.pending_invoke.end()) {
          pit->second.set_value(std::move(*resp));
          p.pending_invoke.erase(pit);
        }
        break;
      }
      case wire::FrameType::StoreReply: {
        auto reply = wire::parse_store_reply(fv.payload);
        if (!reply) return false;
        auto pit = p.pending_store.find(fv.req_id);
        if (pit != p.pending_store.end()) {
          pit->second.set_value(std::move(*reply));
          p.pending_store.erase(pit);
        }
        break;
      }
      case wire::FrameType::Goodbye: {
        if (p.version < 2) return false;  // v1 connections cannot carry it
        if (!wire::parse_goodbye(fv.payload)) return false;
        p.inbuf.erase(0, fv.frame_bytes);
        drained = true;
        return false;  // stop draining; caller tears the connection down
      }
      default:
        return false;  // requests / second Hellos never arrive here
    }
    p.inbuf.erase(0, fv.frame_bytes);
  }
}

void TcpTransport::send_to_peer(PeerId id, Peer& p, std::string frame) {
  p.outbuf.append(frame);
  ++p.frames;
  if (!p.dirty) {
    p.dirty = true;
    dirty_peers_.push_back(id);
  }
}

void TcpTransport::write_peer(Peer& p) {
  if (!p.connected) return;  // written on connect completion
  if (!p.outbuf.empty()) ++p.writes;
  // A hard write error surfaces as EPOLLERR/HUP at the next wakeup, which
  // tears the connection down; stop pushing bytes now.
  if (!write_once(p.fd, p.outbuf)) return;
  set_out_interest(p.fd, p.out_armed, !p.outbuf.empty());
}

// ---- Drain -----------------------------------------------------------------

void TcpTransport::announce_drain(wire::GoodbyeReason reason) {
  // Serving side: tell every connected client we are going away so its
  // in-flight requests fail fast at its end (v2+ connections; v1 peers see
  // the plain close that follows).
  for (auto& [cid, c] : inconns_) {
    if (c->hello_ok && c->version >= 2) {
      send_on_inconn(*c, wire::encode_goodbye(reason, c->version));
    }
  }
  // Outbound side: same notice to peers we call, then fail our own
  // in-flight requests retryable — the process is about to exit and no
  // reply can be delivered to the caller coroutines after that.
  for (auto& [id, p] : peers_) {
    if (p->connected && p->hello_ok && p->version >= 2) {
      send_to_peer(id, *p, wire::encode_goodbye(reason, p->version));
    }
    fail_inflight(*p);
  }
  // The caller exits next, with no loop iteration left to flush.
  flush();
}

// ---- Transport -------------------------------------------------------------

sim::Future<wire::Response> TcpTransport::invoke(PeerId self, PeerId peer,
                                                 wire::Request req,
                                                 size_t overhead_bytes) {
  (void)self;
  (void)overhead_bytes;  // real framing bills itself
  sim::Promise<wire::Response> reply(sim_);
  auto lit = local_.find(peer);
  if (lit != local_.end()) {
    if (lit->second.serve_request) {
      dispatch_local_invoke(lit->second, std::move(req), reply);
    }
    return reply.future();
  }
  auto pit = peers_.find(peer);
  if (pit == peers_.end() || !pit->second->hello_ok) {
    return reply.future();  // no route / link down: lost, caller times out
  }
  uint64_t id = next_req_id_++;
  pit->second->pending_invoke.emplace(id, reply);
  send_to_peer(peer, *pit->second,
               wire::encode_request(id, req, pit->second->version));
  return reply.future();
}

sim::Future<wire::StoreReply> TcpTransport::store_call(
    PeerId self, PeerId peer, wire::StoreRequest msg, size_t bytes,
    size_t reply_bytes, size_t overhead_bytes, sim::MsgKind kind,
    sim::MsgKind reply_kind) {
  (void)self;
  (void)bytes;
  (void)reply_bytes;
  (void)overhead_bytes;
  (void)kind;
  (void)reply_kind;  // byte/kind accounting is the sim backend's concern
  sim::Promise<wire::StoreReply> p(sim_);
  auto lit = local_.find(peer);
  if (lit != local_.end()) {
    if (lit->second.serve_store) {
      // set_value schedules the fulfilment as a fresh event, so local calls
      // keep the async discipline protocol code assumes.
      p.set_value(lit->second.serve_store(msg));
    }
    return p.future();
  }
  auto pit = peers_.find(peer);
  if (pit == peers_.end() || !pit->second->hello_ok) {
    return p.future();
  }
  uint64_t id = next_req_id_++;
  pit->second->pending_store.emplace(id, p);
  send_to_peer(peer, *pit->second,
               wire::encode_store_request(id, msg, pit->second->version));
  return p.future();
}

bool TcpTransport::peer_up(PeerId peer) const {
  if (local_.find(peer) != local_.end()) return true;
  auto it = peers_.find(peer);
  return it != peers_.end() && it->second->hello_ok;
}

bool TcpTransport::reachable(PeerId self, PeerId peer) const {
  (void)self;
  return peer_up(peer);
}

int TcpTransport::connected_peers() const {
  int n = 0;
  for (const auto& [id, p] : peers_) n += p->hello_ok ? 1 : 0;
  return n;
}

std::vector<PeerInfo> TcpTransport::peer_info() const {
  std::vector<PeerInfo> out;
  out.reserve(peers_.size());
  for (const auto& [id, p] : peers_) {
    PeerInfo info;
    info.id = id;
    info.connected = p->hello_ok;
    info.wire_version = p->hello_ok ? p->version : 0;
    info.reconnects =
        p->established_count > 0 ? p->established_count - 1 : 0;
    info.handshake_failures = p->handshake_failures;
    info.frames = p->frames;
    info.writes = p->writes;
    out.push_back(info);
  }
  std::sort(out.begin(), out.end(),
            [](const PeerInfo& a, const PeerInfo& b) { return a.id < b.id; });
  return out;
}

}  // namespace music::net
