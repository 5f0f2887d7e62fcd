// TcpTransport: the real-socket Transport backend (the musicd deployment
// path).
//
// The same wire structs protocol code hands to SimTransport are framed
// through wire/codec.h and shipped over non-blocking TCP driven by an
// EventLoop.  Topology is explicit and per-node:
//
//   * listen_for(id, port, ...) — serve node `id`'s seams on a listening
//     socket (one port per hosted node, so frames need no addressing
//     beyond the connection they arrive on);
//   * bind_local(id, ...)      — serve node `id` in-process only
//     (self-calls and co-hosted nodes short-circuit, no socket);
//   * route(id, host, port)    — reach remote node `id` at host:port over
//     one outbound connection, auto-reconnecting with decorrelated-jitter
//     backoff.
//
// Version handshake (docs/TRANSPORT.md): both sides of every connection send
// a Hello frame advertising their [min,max] wire-version range the moment
// the connection is up; the highest common version is pinned for the
// connection's lifetime and stamps every subsequent frame.  No payload frame
// moves in either direction until the peer's Hello has arrived, so a v2 node
// never shows a v2 frame to a v1 peer.  A malformed or incompatible Hello
// kills only that connection (outbound routes keep retrying with backoff —
// the peer may restart onto a compatible binary).
//
// Loss model matches the sim's for requests that never made it onto a
// connection: sent while the route is down → future unfulfilled, caller's
// await times out.  Requests that WERE in flight when their connection died
// (peer crash, Goodbye drain, framing violation) are instead failed fast
// with a retryable result — Response{Timeout} on the client seam, a
// StoreReply nack on the store seam — never silently lost and never
// resent by the transport (retry stays the caller's decision, so nothing is
// duplicated).  Replies that arrived before the connection died are
// delivered first: a reply and the FIN read in one wakeup is still a reply.
//
// Writes are coalesced: sending a frame only appends it to the
// connection's buffer and marks the connection dirty; the EventLoop's
// flush hook then makes one send() per dirty connection after each
// advance of the simulation.  EPOLLOUT is watched only while a connection
// has a backlog the kernel would not take.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/event_loop.h"
#include "net/transport.h"
#include "sim/rng.h"
#include "wire/codec.h"

namespace music::net {

/// Tuning knobs for a TcpTransport.  Defaults match production; tests narrow
/// them to provoke rejections (a tiny frame limit, a pinned version range).
struct TcpOptions {
  /// Wire-version range advertised in Hellos and accepted from peers.
  /// Narrowing max to 1 makes this process a "v1 binary" for mixed-version
  /// fleets (musicd --wire-max-version).
  uint8_t wire_version_min = wire::kWireVersionMin;
  uint8_t wire_version_max = wire::kWireVersionMax;
  /// Per-connection inbound frame ceiling; larger length prefixes are
  /// rejected with FrameStatus::TooLarge and the connection is dropped.
  uint32_t max_frame_bytes = wire::kMaxFrameBytes;
  /// Reconnect backoff window: decorrelated jitter in [base, cap]
  /// (sim::decorrelated_backoff — the same scheme as client retries).
  sim::Duration reconnect_backoff_base = sim::ms(50);
  sim::Duration reconnect_backoff_cap = sim::ms(2000);
  /// Seed for the backoff jitter stream (deterministic under the sim clock).
  uint64_t backoff_seed = 0x7C93;
  /// Node id stamped into outgoing Hellos, for the peer's diagnostics.
  uint32_t hello_node = 0;
};

/// Per-route diagnostics surfaced in GET /v1/status and the metrics
/// registry: which wire version each live connection negotiated, how
/// churned the route has been, and how well its writes coalesce.
struct PeerInfo {
  PeerId id = -1;
  bool connected = false;     // handshake complete, requests flowing
  uint8_t wire_version = 0;   // negotiated version; 0 until established
  uint64_t reconnects = 0;    // successful re-establishments after the first
  uint64_t handshake_failures = 0;  // Hellos rejected (malformed/incompatible)
  uint64_t frames = 0;        // frames queued on the route (Hellos included)
  uint64_t writes = 0;        // send() calls that carried them
};

class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(EventLoop& loop, TcpOptions options = {});
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Serves node `id` on a listening TCP socket bound to 127.0.0.1:`port`
  /// (0 = ephemeral).  Also registers the handlers as a local endpoint, so
  /// in-process calls to `id` short-circuit.  Returns the bound port, or 0
  /// on failure.
  uint16_t listen_for(PeerId id, uint16_t port, ServeRequestFn serve_request,
                      ServeStoreFn serve_store);

  /// Registers node `id` as served in-process, without a socket.
  void bind_local(PeerId id, ServeRequestFn serve_request,
                  ServeStoreFn serve_store);

  /// Routes calls for node `id` to the process listening at host:port.
  /// Connects immediately and reconnects with jittered backoff after any
  /// failure.
  void route(PeerId id, std::string host, uint16_t port);

  /// Graceful-drain notice: sends a Goodbye frame on every established
  /// connection whose negotiated version carries it (v2+), then fails this
  /// side's in-flight requests as retryable.  v1 peers see a plain close.
  /// Call before exiting/re-execing (musicd's SIGTERM path); the notices
  /// are written before it returns, since no loop iteration may follow.
  void announce_drain(wire::GoodbyeReason reason);

  // ---- Transport -----------------------------------------------------------

  sim::Future<wire::Response> invoke(PeerId self, PeerId peer,
                                     wire::Request req,
                                     size_t overhead_bytes) override;

  sim::Future<wire::StoreReply> store_call(PeerId self, PeerId peer,
                                           wire::StoreRequest msg, size_t bytes,
                                           size_t reply_bytes,
                                           size_t overhead_bytes,
                                           sim::MsgKind kind,
                                           sim::MsgKind reply_kind) override;

  /// Local nodes are always up; remote nodes are up once their connection
  /// has completed the version handshake.
  bool peer_up(PeerId peer) const override;
  bool reachable(PeerId self, PeerId peer) const override;

  EventLoop& loop() { return loop_; }
  const TcpOptions& options() const { return options_; }

  /// Connections currently established (handshake complete) to remote peers.
  int connected_peers() const;

  /// Per-route handshake/churn diagnostics, sorted by peer id.
  std::vector<PeerInfo> peer_info() const;

 private:
  struct LocalEndpoint {
    ServeRequestFn serve_request;
    ServeStoreFn serve_store;
  };

  /// One outbound route (and its connection state + in-flight requests).
  struct Peer {
    std::string host;
    uint16_t port = 0;
    int fd = -1;
    bool connected = false;      // TCP established
    bool connecting = false;     // nonblocking connect in flight
    bool out_armed = false;      // EPOLLOUT in the watched mask
    bool dirty = false;          // queued in dirty_peers_
    bool hello_ok = false;       // peer's Hello accepted, version pinned
    uint8_t version = 0;         // negotiated wire version once hello_ok
    bool reconnect_pending = false;
    /// Bumped on every connection teardown; timer callbacks carry the
    /// generation they were scheduled under and no-op when stale, so a
    /// reconnect racing a fresh handshake resolves deterministically in
    /// favour of whichever connection attempt is current.
    uint64_t gen = 0;
    sim::Duration backoff = 0;   // previous jittered pause (0 = fresh)
    uint64_t established_count = 0;
    uint64_t handshake_failures = 0;
    uint64_t frames = 0;
    uint64_t writes = 0;
    std::string inbuf;
    std::string outbuf;
    std::unordered_map<uint64_t, sim::Promise<wire::Response>> pending_invoke;
    std::unordered_map<uint64_t, sim::Promise<wire::StoreReply>> pending_store;
  };

  /// One accepted (serving) connection.
  struct InConn {
    uint64_t id = 0;
    int fd = -1;
    PeerId serves = -1;
    bool hello_ok = false;
    uint8_t version = 0;
    bool out_armed = false;  // EPOLLOUT in the watched mask
    bool dirty = false;      // queued in dirty_inconns_
    std::string inbuf;
    std::string outbuf;
  };

  struct Listener {
    int fd = -1;
    PeerId serves = -1;
  };

  void start_connect(PeerId id);
  void on_peer_io(PeerId id, uint32_t events);
  void on_peer_connected(PeerId id);
  /// Tears the connection down.  In-flight requests are failed retryable
  /// (see file comment); the route reconnects with backoff.
  void fail_peer(PeerId id);
  void fail_inflight(Peer& p);
  void schedule_reconnect(PeerId id);
  /// Queues a frame on the route; it leaves at the next flush.
  void send_to_peer(PeerId id, Peer& p, std::string frame);
  /// One send() of the route's backlog; EPOLLOUT stays armed for the rest.
  void write_peer(Peer& p);

  void on_accept(size_t listener_idx);
  void on_inconn_io(uint64_t conn_id, uint32_t events);
  void close_inconn(uint64_t conn_id);
  void respond_on_inconn(uint64_t conn_id, uint64_t req_id, const wire::Response& resp);
  /// Queues a frame on a serving connection; it leaves at the next flush.
  void send_on_inconn(InConn& c, std::string frame);
  /// One send() of the connection's backlog; closes it on a hard error.
  void write_inconn(InConn& c);
  /// The loop's flush hook: writes every dirty connection once.
  void flush();
  /// Watches EPOLLOUT on `fd` iff `want`, calling epoll_ctl only when
  /// that changes.
  void set_out_interest(int fd, bool& armed, bool want);

  /// The acceptance window for peel_frame on a connection: pre-handshake
  /// only Hello-compatible frames, post-handshake everything up to the
  /// pinned version; the frame ceiling applies throughout.
  wire::PeelLimits peel_limits(bool hello_ok, uint8_t version) const;
  /// Validates and applies a peer's Hello; false = kill the connection.
  bool accept_hello(const wire::FrameView& fv, uint8_t& version_out);

  /// Peels and dispatches every complete frame in a serving connection's
  /// buffer; false = protocol violation, caller must kill the connection.
  bool drain_serving(InConn& c);
  /// Same for an outbound connection (responses/replies).  Sets
  /// `drained` when the peer announced a Goodbye (clean teardown, not a
  /// protocol violation).
  bool drain_peer(Peer& p, bool& drained);

  void dispatch_local_invoke(const LocalEndpoint& ep, wire::Request req,
                             sim::Promise<wire::Response> reply);

  EventLoop& loop_;
  sim::Simulation& sim_;
  TcpOptions options_;
  sim::Rng backoff_rng_;
  std::unordered_map<PeerId, LocalEndpoint> local_;
  std::unordered_map<PeerId, std::unique_ptr<Peer>> peers_;
  std::vector<Listener> listeners_;
  std::unordered_map<uint64_t, std::unique_ptr<InConn>> inconns_;
  uint64_t next_conn_id_ = 1;
  uint64_t next_req_id_ = 1;
  /// Connections with queued output, by id (a connection may close before
  /// the flush); `flushing_` is the swap buffer the flush walks.
  std::vector<PeerId> dirty_peers_, flushing_peers_;
  std::vector<uint64_t> dirty_inconns_, flushing_inconns_;
  int flush_hook_ = -1;
};

}  // namespace music::net
