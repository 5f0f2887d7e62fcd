// TcpTransport tests over real loopback sockets, in one process: a server
// transport and a client transport share the hybrid EventLoop and the test
// drives poll_once() until futures resolve.  Pins the deployment-path
// behaviours musicd relies on: framing round trips, req_id multiplexing,
// the sim loss model (unfulfilled futures), corrupt-frame connection
// hygiene, and reconnect after a peer comes (back) up.
#include "net/tcp.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <optional>
#include <string>

#include "net/event_loop.h"
#include "sim/future.h"
#include "sim/simulation.h"
#include "wire/codec.h"
#include "wire/messages.h"

namespace music::net {
namespace {

/// Pumps the loop (wall-clock bounded) until `f` resolves; nullopt on
/// timeout — the bounded-wait discipline protocol code uses, inlined.
template <typename T>
std::optional<T> drive(EventLoop& loop, sim::Future<T> f, int limit_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(limit_ms);
  while (!f.ready() && std::chrono::steady_clock::now() < deadline) {
    loop.poll_once(5);
  }
  if (!f.ready()) return std::nullopt;
  return f.value();
}

/// Pumps the loop for a fixed wall-clock interval.
void pump_for(EventLoop& loop, int ms) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < deadline) loop.poll_once(5);
}

/// Pumps until the outbound connection to `id` is established.  Sends
/// issued before that are dropped, sim-style — real callers ride their
/// retry discipline over this window; single-shot tests must wait it out.
bool wait_peer_up(EventLoop& loop, TcpTransport& t, PeerId id, int limit_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(limit_ms);
  while (!t.peer_up(id) && std::chrono::steady_clock::now() < deadline) {
    loop.poll_once(5);
  }
  return t.peer_up(id);
}

ServeRequestFn echo_server() {
  return [](wire::Request req, RespondFn respond) {
    wire::Response resp(OpStatus::Ok);
    resp.value = req.value;
    respond(std::move(resp));
  };
}

ServeStoreFn store_server() {
  return [](const wire::StoreRequest& msg) {
    wire::StoreReply r(true, msg.ballot);
    r.has_cell = true;
    r.cell = msg.cell;
    return r;
  };
}

/// Grabs a loopback port that is currently free (bind ephemeral, read it
/// back, close).  Small race window, fine for tests.
uint16_t free_port() {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  close(fd);
  return ntohs(addr.sin_port);
}

TEST(TcpTransport, InvokeRoundTripsOverRealSockets) {
  sim::Simulation sim(1);
  EventLoop loop(sim);
  TcpTransport server(loop);
  TcpTransport client(loop);

  uint16_t port = server.listen_for(1, 0, echo_server(), nullptr);
  ASSERT_NE(port, 0);
  client.route(1, "127.0.0.1", port);
  ASSERT_TRUE(wait_peer_up(loop, client, 1, 3000));

  wire::Request req(wire::Request::Op::CriticalGet, "k", 7, Value("ping"));
  auto resp = drive(loop, client.invoke(100, 1, req, 96), 3000);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, OpStatus::Ok);
  EXPECT_EQ(resp->value.data, "ping");
  EXPECT_TRUE(client.peer_up(1));
  EXPECT_EQ(client.connected_peers(), 1);
}

TEST(TcpTransport, StoreCallRoundTripsOverRealSockets) {
  sim::Simulation sim(1);
  EventLoop loop(sim);
  TcpTransport server(loop);
  TcpTransport client(loop);

  uint16_t port = server.listen_for(2, 0, nullptr, store_server());
  ASSERT_NE(port, 0);
  client.route(2, "127.0.0.1", port);
  ASSERT_TRUE(wait_peer_up(loop, client, 2, 3000));

  wire::StoreRequest msg =
      wire::StoreRequest::accept("k", wire::WireCell(Value("v"), 11), 5);
  auto reply = drive(loop,
                     client.store_call(0, 2, msg, 64, 32, 16,
                                       sim::MsgKind::PaxosAccept,
                                       sim::MsgKind::StoreAck),
                     3000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->ok);
  EXPECT_EQ(reply->ballot, 5);
  EXPECT_EQ(reply->cell.value.data, "v");
  EXPECT_EQ(reply->cell.ts, 11);
}

TEST(TcpTransport, ConcurrentInvokesMultiplexOneConnection) {
  sim::Simulation sim(1);
  EventLoop loop(sim);
  TcpTransport server(loop);
  TcpTransport client(loop);

  uint16_t port = server.listen_for(1, 0, echo_server(), nullptr);
  ASSERT_NE(port, 0);
  client.route(1, "127.0.0.1", port);
  ASSERT_TRUE(wait_peer_up(loop, client, 1, 3000));

  // Issue several requests before pumping again: they queue on one
  // connection and resolve by req_id, not arrival order assumptions.
  std::vector<sim::Future<wire::Response>> futs;
  for (int i = 0; i < 8; ++i) {
    wire::Request req(wire::Request::Op::CriticalGet, "k", 1,
                      Value("m" + std::to_string(i)));
    futs.push_back(client.invoke(100, 1, req, 96));
  }
  for (int i = 0; i < 8; ++i) {
    auto resp = drive(loop, futs[static_cast<size_t>(i)], 3000);
    ASSERT_TRUE(resp.has_value()) << i;
    EXPECT_EQ(resp->value.data, "m" + std::to_string(i));
  }
  EXPECT_EQ(client.connected_peers(), 1);
}

TEST(TcpTransport, LocalEndpointShortCircuits) {
  sim::Simulation sim(1);
  EventLoop loop(sim);
  TcpTransport t(loop);
  t.bind_local(9, echo_server(), store_server());
  EXPECT_TRUE(t.peer_up(9));

  auto resp = drive(loop, t.invoke(100, 9, wire::Request(), 96), 1000);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, OpStatus::Ok);
  EXPECT_EQ(t.connected_peers(), 0);  // no socket involved
}

TEST(TcpTransport, UnroutedPeerLeavesFutureUnfulfilled) {
  sim::Simulation sim(1);
  EventLoop loop(sim);
  TcpTransport t(loop);
  EXPECT_FALSE(t.peer_up(5));
  EXPECT_FALSE(t.reachable(0, 5));
  auto resp = drive(loop, t.invoke(100, 5, wire::Request(), 96), 200);
  EXPECT_FALSE(resp.has_value());  // lost, not errored — caller's timeout
}

TEST(TcpTransport, CorruptFrameKillsConnectionNotServer) {
  sim::Simulation sim(1);
  EventLoop loop(sim);
  TcpTransport server(loop);
  TcpTransport client(loop);

  uint16_t port = server.listen_for(1, 0, echo_server(), nullptr);
  ASSERT_NE(port, 0);

  // A raw attacker connection feeding a frame with a hostile length prefix.
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  // The loop owns accept(); pump until connect lands.
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  pump_for(loop, 50);
  char bad[16];
  std::memset(bad, 0, sizeof(bad));
  uint32_t evil_len = wire::kMaxFrameBytes + 1;
  std::memcpy(bad, &evil_len, sizeof(evil_len));
  ASSERT_EQ(write(fd, bad, sizeof(bad)), static_cast<ssize_t>(sizeof(bad)));
  pump_for(loop, 100);

  // The server must have dropped only that connection: after draining its
  // Hello advertisement, EOF here...
  timeval tv{1, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char drainbuf[256];
  ssize_t n;
  while ((n = recv(fd, drainbuf, sizeof(drainbuf), 0)) > 0) {
  }
  EXPECT_EQ(n, 0);
  close(fd);

  // ...while a well-behaved client still gets served.
  client.route(1, "127.0.0.1", port);
  ASSERT_TRUE(wait_peer_up(loop, client, 1, 3000));
  auto resp = drive(loop, client.invoke(100, 1, wire::Request(), 96), 3000);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, OpStatus::Ok);
}

TEST(TcpTransport, ReconnectsAfterPeerComesUp) {
  sim::Simulation sim(1);
  EventLoop loop(sim);
  TcpTransport client(loop);

  uint16_t port = free_port();
  ASSERT_NE(port, 0);
  client.route(1, "127.0.0.1", port);  // nothing listening yet
  pump_for(loop, 50);
  EXPECT_FALSE(client.peer_up(1));
  auto lost = drive(loop, client.invoke(100, 1, wire::Request(), 96), 100);
  EXPECT_FALSE(lost.has_value());  // down-route sends are lost, sim-style

  // Peer appears; the client's reconnect backoff (200ms) must find it
  // without any new route() call.
  TcpTransport server(loop);
  ASSERT_EQ(server.listen_for(1, port, echo_server(), nullptr), port);
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!client.peer_up(1) && std::chrono::steady_clock::now() < deadline) {
    loop.poll_once(5);
  }
  ASSERT_TRUE(client.peer_up(1));
  auto resp = drive(loop, client.invoke(100, 1, wire::Request(), 96), 3000);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, OpStatus::Ok);

  // Per-route diagnostics: the route came up once (no reconnects yet
  // counted — the first establishment is not a reconnect) at the highest
  // common version.
  auto info = client.peer_info();
  ASSERT_EQ(info.size(), 1u);
  EXPECT_EQ(info[0].id, 1);
  EXPECT_TRUE(info[0].connected);
  EXPECT_EQ(info[0].wire_version, wire::kWireVersionMax);
}

// ---- Version handshake -----------------------------------------------------

TEST(TcpTransport, HandshakePinsHighestCommonVersion) {
  sim::Simulation sim(1);
  EventLoop loop(sim);
  TcpTransport server(loop);  // speaks [1, kWireVersionMax]
  TcpTransport client(loop);

  uint16_t port = server.listen_for(1, 0, echo_server(), nullptr);
  ASSERT_NE(port, 0);
  client.route(1, "127.0.0.1", port);
  ASSERT_TRUE(wait_peer_up(loop, client, 1, 3000));

  auto info = client.peer_info();
  ASSERT_EQ(info.size(), 1u);
  EXPECT_EQ(info[0].wire_version, wire::kWireVersionMax);
  EXPECT_EQ(info[0].handshake_failures, 0u);
}

TEST(TcpTransport, MixedVersionPeerSpeaksV1) {
  // A "v1 binary" server (mixed-version fleet mid-upgrade): the connection
  // pins v1, and the v2 client serves traffic over it regardless.
  sim::Simulation sim(1);
  EventLoop loop(sim);
  TcpOptions v1_only;
  v1_only.wire_version_max = 1;
  TcpTransport server(loop, v1_only);
  TcpTransport client(loop);

  uint16_t port = server.listen_for(1, 0, echo_server(), nullptr);
  ASSERT_NE(port, 0);
  client.route(1, "127.0.0.1", port);
  ASSERT_TRUE(wait_peer_up(loop, client, 1, 3000));

  auto info = client.peer_info();
  ASSERT_EQ(info.size(), 1u);
  EXPECT_EQ(info[0].wire_version, 1);

  wire::Request req(wire::Request::Op::CriticalGet, "k", 7, Value("ping"));
  auto resp = drive(loop, client.invoke(100, 1, req, 96), 3000);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, OpStatus::Ok);
  EXPECT_EQ(resp->value.data, "ping");
}

TEST(TcpTransport, IncompatibleVersionRangesNeverEstablish) {
  // An all-future peer ([5,9]): Hellos exchange, negotiation fails on both
  // sides, the connection dies — and ONLY the connection; the processes
  // stay healthy and the client keeps retrying with backoff.
  sim::Simulation sim(1);
  EventLoop loop(sim);
  TcpOptions future;
  future.wire_version_min = 5;
  future.wire_version_max = 9;
  TcpTransport server(loop, future);
  TcpTransport client(loop);

  uint16_t port = server.listen_for(1, 0, echo_server(), nullptr);
  ASSERT_NE(port, 0);
  client.route(1, "127.0.0.1", port);
  EXPECT_FALSE(wait_peer_up(loop, client, 1, 400));

  auto info = client.peer_info();
  ASSERT_EQ(info.size(), 1u);
  EXPECT_FALSE(info[0].connected);
  EXPECT_EQ(info[0].wire_version, 0);
  EXPECT_GE(info[0].handshake_failures, 1u);

  auto lost = drive(loop, client.invoke(100, 1, wire::Request(), 96), 100);
  EXPECT_FALSE(lost.has_value());  // un-established route: sim-style loss
}

TEST(TcpTransport, GarbageBeforeHelloKillsConnection) {
  // A peer that speaks frames before its Hello violates the handshake: the
  // serving side must refuse to dispatch anything pre-negotiation.
  sim::Simulation sim(1);
  EventLoop loop(sim);
  int served = 0;
  TcpTransport server(loop);
  uint16_t port = server.listen_for(
      1, 0,
      [&served](wire::Request req, RespondFn respond) {
        ++served;
        respond(wire::Response(OpStatus::Ok));
        (void)req;
      },
      nullptr);
  ASSERT_NE(port, 0);

  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // A perfectly well-formed request frame — but no Hello first.
  std::string frame = wire::encode_request(1, wire::Request());
  ASSERT_EQ(write(fd, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  pump_for(loop, 100);
  timeval tv{1, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char drainbuf[256];
  ssize_t n;
  while ((n = recv(fd, drainbuf, sizeof(drainbuf), 0)) > 0) {
  }
  EXPECT_EQ(n, 0);  // connection killed
  EXPECT_EQ(served, 0);  // and the request was never dispatched
  close(fd);
}

// ---- Churn hardening -------------------------------------------------------

TEST(TcpTransport, InflightRequestsFailRetryableWhenConnectionDrops) {
  sim::Simulation sim(1);
  EventLoop loop(sim);
  // A server that accepts requests and never answers them (holds the
  // RespondFns), then dies with requests in flight.
  std::vector<RespondFn> held;
  auto server = std::make_unique<TcpTransport>(loop);
  uint16_t port = server->listen_for(
      1, 0,
      [&held](wire::Request, RespondFn respond) {
        held.push_back(std::move(respond));
      },
      [](const wire::StoreRequest&) { return wire::StoreReply(true, -1); });
  ASSERT_NE(port, 0);

  TcpTransport client(loop);
  client.route(1, "127.0.0.1", port);
  ASSERT_TRUE(wait_peer_up(loop, client, 1, 3000));

  auto f_invoke = client.invoke(100, 1, wire::Request(), 96);
  // The invoke reaches the server's hold queue...
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (held.empty() && std::chrono::steady_clock::now() < deadline) {
    loop.poll_once(5);
  }
  ASSERT_FALSE(held.empty());

  // ...a store call is issued (the store handler answers synchronously, so
  // it is in flight only until the server next runs)...
  wire::StoreRequest msg = wire::StoreRequest::read("k");
  auto f_store = client.store_call(0, 1, msg, 64, 32, 16,
                                   sim::MsgKind::StoreRead,
                                   sim::MsgKind::StoreAck);
  // ...then the server process dies before the loop runs again.  The
  // in-flight requests must surface as retryable results FAST
  // (transport-synthesized), not hang until some distant caller timeout.
  held.clear();
  server.reset();
  auto invoke_result = drive(loop, f_invoke, 2000);
  ASSERT_TRUE(invoke_result.has_value()) << "in-flight invoke silently lost";
  EXPECT_EQ(invoke_result->status, OpStatus::Timeout);
  EXPECT_TRUE(is_retryable(invoke_result->status));
  auto store_result = drive(loop, f_store, 2000);
  ASSERT_TRUE(store_result.has_value()) << "in-flight store call silently lost";
  EXPECT_FALSE(store_result->ok);  // a nack: never counted as success
  EXPECT_EQ(store_result->ballot, -1);
}

TEST(TcpTransport, ReplyReadWithThePeersCloseIsDelivered) {
  // The server answers and closes before the client reads: the reply and
  // the FIN then arrive in one wakeup.  The reply frame is exactly one
  // 16 KiB read chunk, so the client's read loop sees the EOF right after
  // it (a short read would end the loop before the EOF).
  sim::Simulation sim(1);
  EventLoop loop(sim);
  static constexpr size_t kFrameBytes = 16384;
  size_t value_bytes =
      kFrameBytes - wire::encode_response(1, wire::Response(OpStatus::Ok),
                                          wire::kWireVersionMax)
                        .size();
  bool answered = false;
  auto server = std::make_unique<TcpTransport>(loop);
  uint16_t port = server->listen_for(
      1, 0,
      [&answered, value_bytes](wire::Request, RespondFn respond) {
        wire::Response resp(OpStatus::Ok);
        resp.value = Value(std::string(value_bytes, 'r'));
        ASSERT_EQ(wire::encode_response(1, resp, wire::kWireVersionMax).size(),
                  kFrameBytes);
        respond(std::move(resp));
        answered = true;
      },
      nullptr);
  ASSERT_NE(port, 0);
  TcpTransport client(loop);
  client.route(1, "127.0.0.1", port);
  ASSERT_TRUE(wait_peer_up(loop, client, 1, 3000));

  auto f = client.invoke(100, 1, wire::Request(), 96);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (!answered && std::chrono::steady_clock::now() < deadline) {
    loop.poll_once(5);
  }
  ASSERT_TRUE(answered);
  // The iteration that served the request also wrote the reply; the
  // server dies before the client's next read.
  server.reset();
  auto resp = drive(loop, f, 2000);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, OpStatus::Ok);  // the real reply, not a nack
  EXPECT_EQ(resp->value.size(), value_bytes);
  pump_for(loop, 20);
  EXPECT_FALSE(client.peer_up(1));  // and the close was still honoured
}

TEST(TcpTransport, FramesQueuedInOneIterationLeaveInOneWrite) {
  sim::Simulation sim(1);
  EventLoop loop(sim);
  TcpTransport server(loop);
  TcpTransport client(loop);
  uint16_t port = server.listen_for(1, 0, echo_server(), nullptr);
  ASSERT_NE(port, 0);
  client.route(1, "127.0.0.1", port);
  ASSERT_TRUE(wait_peer_up(loop, client, 1, 3000));
  PeerInfo before = client.peer_info().at(0);
  EXPECT_EQ(before.frames, 1u);  // the Hello
  EXPECT_EQ(before.writes, 1u);

  std::vector<sim::Future<wire::Response>> fs;
  for (int i = 0; i < 16; ++i) {
    wire::Request req(wire::Request::Op::CriticalGet, "k", 7,
                      Value("p" + std::to_string(i)));
    fs.push_back(client.invoke(100, 1, req, 96));
  }
  for (int i = 0; i < 16; ++i) {
    auto resp = drive(loop, fs[static_cast<size_t>(i)], 3000);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->value.data, "p" + std::to_string(i));
  }
  PeerInfo after = client.peer_info().at(0);
  EXPECT_EQ(after.frames - before.frames, 16u);
  EXPECT_EQ(after.writes - before.writes, 1u);
}

TEST(TcpTransport, GoodbyeDrainFailsInflightAndReconnects) {
  sim::Simulation sim(1);
  EventLoop loop(sim);
  std::vector<RespondFn> held;
  TcpTransport server(loop);
  uint16_t port = server.listen_for(
      1, 0,
      [&held](wire::Request, RespondFn respond) {
        held.push_back(std::move(respond));
      },
      nullptr);
  ASSERT_NE(port, 0);

  TcpTransport client(loop);
  client.route(1, "127.0.0.1", port);
  ASSERT_TRUE(wait_peer_up(loop, client, 1, 3000));

  auto f = client.invoke(100, 1, wire::Request(), 96);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (held.empty() && std::chrono::steady_clock::now() < deadline) {
    loop.poll_once(5);
  }
  ASSERT_FALSE(held.empty());

  // The server announces a drain (v2 Goodbye).  The client must fail the
  // in-flight request retryable immediately — before any FIN arrives.
  server.announce_drain(wire::GoodbyeReason::Restart);
  auto result = drive(loop, f, 2000);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, OpStatus::Timeout);

  // The server in this test never actually exits, so the client's backoff
  // loop re-establishes — and the churn shows up in the route diagnostics.
  ASSERT_TRUE(wait_peer_up(loop, client, 1, 5000));
  auto info = client.peer_info();
  ASSERT_EQ(info.size(), 1u);
  EXPECT_GE(info[0].reconnects, 1u);
  EXPECT_EQ(info[0].wire_version, wire::kWireVersionMax);
}

TEST(TcpTransport, OversizedFrameLimitIsConfigurable) {
  sim::Simulation sim(1);
  EventLoop loop(sim);
  TcpOptions tight;
  tight.max_frame_bytes = 256;  // tiny per-connection ceiling
  TcpTransport server(loop, tight);
  TcpTransport client(loop);

  uint16_t port = server.listen_for(1, 0, echo_server(), nullptr);
  ASSERT_NE(port, 0);
  client.route(1, "127.0.0.1", port);
  ASSERT_TRUE(wait_peer_up(loop, client, 1, 3000));

  // A small request round-trips under the ceiling...
  wire::Request small(wire::Request::Op::CriticalGet, "k", 1, Value("v"));
  auto ok = drive(loop, client.invoke(100, 1, small, 96), 3000);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, OpStatus::Ok);

  // ...an oversized one trips TooLarge on the server, which kills the
  // connection; the client sees its in-flight request fail retryable.
  wire::Request fat(wire::Request::Op::CriticalPut, "k", 1,
                    Value(std::string(1024, 'x'), 1024));
  auto dropped = drive(loop, client.invoke(100, 1, fat, 96), 3000);
  ASSERT_TRUE(dropped.has_value());
  EXPECT_EQ(dropped->status, OpStatus::Timeout);
}

}  // namespace
}  // namespace music::net
