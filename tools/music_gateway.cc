// music_gateway: the REST front end (§VI) as a real HTTP server.
//
// Binds a core::MusicClient to the three musicd MUSIC replicas over
// TcpTransport and serves the JSON verb surface over HTTP/1.1:
//
//   POST /v1/music    — the RestGateway verb surface (rest/rest.h); the
//                       HTTP status comes from the reply's "code" via the
//                       single REST error table
//   GET  /v1/status   — the keyless "status" verb (deployment shape)
//   GET  /v1/metrics  — live client/transport counters as flat JSON
//   GET  /healthz     — liveness
//
//   music_gateway --music-ports 7101,7102,7103 [--port 8080] [--site 0]
//
// SIGINT/SIGTERM stop the loop; in-flight requests are dropped (their
// respond callbacks never fire once the loop exits), sockets close, exit 0.
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/text.h"
#include "core/client.h"
#include "net/event_loop.h"
#include "net/http.h"
#include "net/tcp.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "rest/rest.h"
#include "sim/simulation.h"

namespace {

music::net::EventLoop* g_loop = nullptr;

void on_signal(int) {
  if (g_loop != nullptr) g_loop->stop();
}

/// One REST request end-to-end (a named free coroutine: spawned frames must
/// not be capturing lambdas).  The HTTP status is derived from the reply's
/// stable "code" through the one REST error table.
music::sim::Task<void> serve_music(music::rest::RestGateway* gw,
                                   std::string body,
                                   music::net::HttpServer::Respond respond) {
  std::string reply = co_await gw->handle(std::move(body));
  music::net::HttpResponse r;
  auto parsed = music::rest::Json::parse(reply);
  if (parsed && (*parsed)["code"].is_string()) {
    r.status = music::rest::http_status_for_code((*parsed)["code"].as_string());
  }
  r.body = std::move(reply);
  respond(std::move(r));
}

/// The transport's per-route handshake/churn diagnostics as a JSON array:
/// which wire version each musicd connection negotiated, how many times
/// the route has re-established (rolling restarts show up here), and how
/// many frames left in how many writes.
music::rest::Json peers_json(const music::net::TcpTransport& tcp) {
  music::rest::Json arr;
  for (const music::net::PeerInfo& p : tcp.peer_info()) {
    music::rest::Json entry;
    entry.set("node", static_cast<int64_t>(p.id));
    entry.set("connected", p.connected);
    entry.set("wire_version", static_cast<int64_t>(p.wire_version));
    entry.set("reconnects", static_cast<int64_t>(p.reconnects));
    entry.set("handshake_failures",
              static_cast<int64_t>(p.handshake_failures));
    entry.set("frames", static_cast<int64_t>(p.frames));
    entry.set("writes", static_cast<int64_t>(p.writes));
    arr.push(std::move(entry));
  }
  return arr;
}

/// GET /v1/status: the keyless "status" verb, with the live transport
/// peer table merged in (the verb reply describes the deployment shape;
/// "peers" describes what this gateway is actually connected to).
music::sim::Task<void> serve_status(music::rest::RestGateway* gw,
                                    music::net::TcpTransport* tcp,
                                    music::net::HttpServer::Respond respond) {
  std::string reply = co_await gw->handle(R"({"op":"status"})");
  music::net::HttpResponse r;
  auto parsed = music::rest::Json::parse(reply);
  if (parsed) {
    if ((*parsed)["code"].is_string()) {
      r.status =
          music::rest::http_status_for_code((*parsed)["code"].as_string());
    }
    parsed->set("peers", peers_json(*tcp));
    r.body = parsed->dump();
  } else {
    r.body = std::move(reply);
  }
  respond(std::move(r));
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<uint16_t> music_ports;
  uint16_t http_port = 8080;
  int site = 0;
  std::string host = "127.0.0.1";
  for (int i = 1; i < argc - 1; ++i) {
    if (strcmp(argv[i], "--music-ports") == 0)
      music_ports = music::text::parse_ports(argv[++i]);
    else if (strcmp(argv[i], "--port") == 0)
      http_port = static_cast<uint16_t>(atoi(argv[++i]));
    else if (strcmp(argv[i], "--site") == 0) site = atoi(argv[++i]);
    else if (strcmp(argv[i], "--host") == 0) host = argv[++i];
  }
  constexpr int kSites = 3;
  if (music_ports.size() != kSites || site < 0 || site >= kSites) {
    fprintf(stderr,
            "usage: music_gateway --music-ports m0,m1,m2 [--port P] "
            "[--site N] [--host H]\n");
    return 2;
  }

  using namespace music;

  sim::Simulation sim(1);
  net::EventLoop loop(sim);
  net::TcpTransport tcp(loop);

  // musicd's construction order assigns store nodes ids 0..2 and MUSIC
  // replicas 3..5; routes here use the same ids so diagnostics line up.
  constexpr net::PeerId kMusicNodeBase = 3;
  std::vector<net::PeerId> peers;
  peers.push_back(kMusicNodeBase + site);  // local site first (proximity)
  for (int s = 0; s < kSites; ++s) {
    if (s != site) peers.push_back(kMusicNodeBase + s);
  }
  for (int s = 0; s < kSites; ++s) {
    tcp.route(kMusicNodeBase + s, host,
              music_ports[static_cast<size_t>(s)]);
  }

  constexpr net::PeerId kClientNode = 100;
  core::MusicClient client(sim, tcp, peers, core::ClientConfig{}, site,
                           kClientNode);
  rest::RestGateway gw(client);

  net::HttpServer http(
      loop, [&](const net::HttpRequest& req, net::HttpServer::Respond respond) {
        if (req.path == "/healthz") {
          net::HttpResponse r;
          r.content_type = "text/plain";
          r.body = "ok\n";
          respond(std::move(r));
          return;
        }
        if (req.path == "/v1/metrics") {
          obs::MetricsRegistry reg;
          const core::ClientStats& st = client.stats();
          reg.set("client.attempts", st.attempts);
          reg.set("client.retries", st.retries);
          reg.set("client.retry_exhausted", st.retry_exhausted);
          reg.set("client.deadline_exceeded", st.deadline_exceeded);
          reg.set("client.demotions", st.demotions);
          reg.set("transport.connected_peers",
                  static_cast<uint64_t>(tcp.connected_peers()));
          for (const net::PeerInfo& p : tcp.peer_info()) {
            std::string pre = "transport.peer." + std::to_string(p.id);
            reg.set(pre + ".connected", p.connected ? 1u : 0u);
            reg.set(pre + ".wire_version", p.wire_version);
            reg.set(pre + ".reconnects", p.reconnects);
            reg.set(pre + ".handshake_failures", p.handshake_failures);
            reg.set(pre + ".frames", p.frames);
            reg.set(pre + ".writes", p.writes);
          }
          reg.set("loop.now_us", static_cast<uint64_t>(sim.now()));
          net::HttpResponse r;
          r.body = obs::metrics_json(reg);
          respond(std::move(r));
          return;
        }
        if (req.path == "/v1/status") {
          sim::spawn(sim, serve_status(&gw, &tcp, std::move(respond)));
          return;
        }
        if (req.path == "/v1/music" && req.method == "POST") {
          sim::spawn(sim, serve_music(&gw, req.body, std::move(respond)));
          return;
        }
        net::HttpResponse r;
        r.status = 404;
        r.body = R"({"status":"BadRequest","code":"bad_request","error":"no such endpoint"})";
        respond(std::move(r));
      });
  uint16_t bound = http.listen(http_port);
  if (bound == 0) {
    fprintf(stderr, "music_gateway: bind 127.0.0.1:%u failed\n", http_port);
    return 1;
  }

  signal(SIGINT, on_signal);
  signal(SIGTERM, on_signal);
  signal(SIGPIPE, SIG_IGN);  // peer hangups surface as EPIPE, not death
  g_loop = &loop;
  fprintf(stderr, "music_gateway: http://127.0.0.1:%u (site %d)\n", bound,
          site);
  fflush(stderr);
  loop.run();
  g_loop = nullptr;
  fprintf(stderr, "music_gateway: clean shutdown\n");
  return 0;
}
