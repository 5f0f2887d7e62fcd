// musicd: one MUSIC site as a real process.
//
// Hosts site N of the paper's 3-site deployment (Fig. 1) over TCP: the
// site's store replica and MUSIC replica listen on real sockets, and the
// store coordinator reaches the other sites' store replicas through
// TcpTransport routes.  Three musicd processes on loopback form the same
// world every sim test runs in-memory — same protocol code, same wire
// structs, framed through wire/codec.h instead of moved by sim::Network.
//
// Every process constructs the FULL group (core::Group: 3 store nodes + 3
// MUSIC replicas) in the same order, so node ids agree across processes;
// only the hosted site's replicas are served, the rest are inert locals.  Unlike a
// sim world, the store carries no modelled service cost: the sim charges
// each store message a calibrated 190us CassaEV hop, but here the
// process's real CPU and syscalls are the serving cost, so adding the
// model on top would count it twice (and only for local reads, since
// remote store requests are served inline by the transport).  Port
// layout is explicit and symmetric — each process gets the whole map:
//
//   musicd --site 1 --store-ports 7001,7002,7003 --music-ports 7101,7102,7103
//
// serves store node 1 on 7002 and MUSIC replica (site 1) on 7102, and
// routes store nodes 0 and 2 to 127.0.0.1:7001 / 127.0.0.1:7003.
//
// Rolling-upgrade knobs (docs/TRANSPORT.md):
//   --wire-max-version K   pin the advertised wire-version ceiling to K —
//                          running with K=1 makes this process the "old
//                          binary" of a mixed-version fleet.  The
//                          MUSIC_WIRE_MAX_VERSION env var does the same
//                          (flag wins).
//   --state-file PATH      durable store snapshot: loaded before serving,
//                          written on clean shutdown.  Without it a restart
//                          is an amnesia restart (empty table, as if the
//                          disk was lost).
//
// SIGINT/SIGTERM stop the loop and exit cleanly; on the way out the
// process sends a Goodbye drain notice on every v2+ connection so peers
// fail their in-flight requests fast instead of waiting out a timeout.
#include <signal.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/text.h"
#include "core/client.h"
#include "core/group.h"
#include "core/music.h"
#include "datastore/store.h"
#include "net/event_loop.h"
#include "net/tcp.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "wire/codec.h"

namespace {

music::net::EventLoop* g_loop = nullptr;

void on_signal(int) {
  if (g_loop != nullptr) g_loop->stop();
}

int usage() {
  fprintf(stderr,
          "usage: musicd --site N --store-ports p0,p1,p2 "
          "--music-ports m0,m1,m2 [--host H] [--wire-max-version K] "
          "[--state-file PATH]\n");
  return 2;
}

// ---- Durable store snapshot -------------------------------------------------
//
// Line-oriented, length-prefixed (keys/values may hold anything but \n is
// avoided by the length prefixes):
//
//   musicd-state v1
//   <ts> <keylen> <vallen>
//   <key bytes><value bytes>
//
// Written to PATH.tmp then renamed, so a crash mid-write leaves the
// previous snapshot intact.

bool save_state(music::ds::StoreReplica& rep, const std::string& path) {
  std::string tmp = path + ".tmp";
  FILE* f = fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  fprintf(f, "musicd-state v1\n");
  for (const music::Key& key : rep.local_keys_with_prefix("")) {
    auto cell = rep.local_read(key);
    if (!cell.has_value()) continue;
    fprintf(f, "%lld %zu %zu\n", static_cast<long long>(cell->ts), key.size(),
            cell->value.data.size());
    fwrite(key.data(), 1, key.size(), f);
    fwrite(cell->value.data.data(), 1, cell->value.data.size(), f);
    fputc('\n', f);
  }
  bool ok = fclose(f) == 0;
  if (ok) ok = rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) remove(tmp.c_str());
  return ok;
}

bool load_state(music::ds::StoreReplica& rep, const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) return true;  // no snapshot yet: cold start, not an error
  char header[32] = {0};
  if (fgets(header, sizeof header, f) == nullptr ||
      strcmp(header, "musicd-state v1\n") != 0) {
    fclose(f);
    return false;
  }
  long long ts;
  long long max_ts = 0;
  size_t klen, vlen;
  while (fscanf(f, "%lld %zu %zu", &ts, &klen, &vlen) == 3) {
    fgetc(f);  // the newline after the lengths
    if (klen > (1u << 20) || vlen > (16u << 20)) {
      fclose(f);
      return false;
    }
    std::string key(klen, '\0');
    std::string val(vlen, '\0');
    if (fread(key.data(), 1, klen, f) != klen ||
        fread(val.data(), 1, vlen, f) != vlen) {
      fclose(f);
      return false;
    }
    fgetc(f);  // trailing newline
    music::ds::Cell cell;
    cell.value = music::Value(std::move(val));
    cell.ts = static_cast<music::ScalarTs>(ts);
    rep.apply_write(key, cell);
    max_ts = std::max(max_ts, ts);
  }
  fclose(f);
  // Ballot counters are volatile: without this, the restarted coordinator
  // would mint ballots below the ballot-stamped rows it just reloaded and
  // its first LWT commits would lose LWW against them (the lwt() loop also
  // guards against this; advancing here skips the wasted round).
  rep.advance_ballot_past(static_cast<music::ScalarTs>(max_ts));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int site = -1;
  std::vector<uint16_t> store_ports, music_ports;
  std::string host = "127.0.0.1";
  std::string state_file;
  int wire_max = music::wire::kWireVersionMax;
  if (const char* env = getenv("MUSIC_WIRE_MAX_VERSION")) {
    wire_max = atoi(env);
  }
  for (int i = 1; i < argc - 1; ++i) {
    if (strcmp(argv[i], "--site") == 0) site = atoi(argv[++i]);
    else if (strcmp(argv[i], "--store-ports") == 0)
      store_ports = music::text::parse_ports(argv[++i]);
    else if (strcmp(argv[i], "--music-ports") == 0)
      music_ports = music::text::parse_ports(argv[++i]);
    else if (strcmp(argv[i], "--host") == 0) host = argv[++i];
    else if (strcmp(argv[i], "--wire-max-version") == 0)
      wire_max = atoi(argv[++i]);
    else if (strcmp(argv[i], "--state-file") == 0) state_file = argv[++i];
  }
  constexpr int kSites = 3;
  if (site < 0 || site >= kSites ||
      store_ports.size() != kSites || music_ports.size() != kSites) {
    return usage();
  }
  if (wire_max < music::wire::kWireVersionMin ||
      wire_max > music::wire::kWireVersionMax) {
    fprintf(stderr,
            "musicd[%d]: --wire-max-version %d out of range (this binary "
            "speaks %u..%u)\n",
            site, wire_max, music::wire::kWireVersionMin,
            music::wire::kWireVersionMax);
    return 2;
  }

  using namespace music;

  // The same group every sim world builds (core::Group), in the same
  // construction order: store nodes get ids 0..2, MUSIC replicas 3..5 —
  // identical in all three processes, so a node id names the same role
  // everywhere.  No clients, and no failure detectors until this site's.
  sim::Simulation sim(1);
  net::EventLoop loop(sim);
  net::TcpOptions topt;
  topt.wire_version_max = static_cast<uint8_t>(wire_max);
  topt.hello_node = static_cast<uint32_t>(site);
  net::TcpTransport tcp(loop, topt);
  sim::Network net(sim, sim::NetworkConfig{});  // id registry only; the
                                                // fabric is the TcpTransport
  // The process's real CPU is its serving cost: no modelled service time.
  core::GroupConfig gcfg;
  gcfg.store.service = sim::ServiceConfig{8, 0, 0.0};
  core::Group group(sim, net, gcfg, {0, 1, 2}, core::LockBackend::Lwt, &tcp);
  core::MusicReplica& my_music = *group.replicas[static_cast<size_t>(site)];

  // Serve this site's two roles; everything else is reached by route.
  ds::StoreReplica& my_store = group.store.replica(site);
  if (!state_file.empty() && !load_state(my_store, state_file)) {
    fprintf(stderr, "musicd[%d]: corrupt state file %s\n", site,
            state_file.c_str());
    return 1;
  }
  auto serve_store = [&my_store](const wire::StoreRequest& m) {
    return my_store.serve_store(m);
  };
  uint16_t sp = tcp.listen_for(my_store.node(), store_ports[site], nullptr,
                               serve_store);
  uint16_t mp = tcp.listen_for(my_music.node(), music_ports[site],
                               core::serve_request_fn(my_music), nullptr);
  if (sp == 0 || mp == 0) {
    fprintf(stderr, "musicd[%d]: bind failed (store=%u music=%u)\n", site, sp,
            mp);
    return 1;
  }
  for (int s = 0; s < kSites; ++s) {
    if (s == site) continue;
    tcp.route(group.store.replica(s).node(), host, store_ports[s]);
  }
  my_music.start_failure_detector();

  signal(SIGINT, on_signal);
  signal(SIGTERM, on_signal);
  signal(SIGPIPE, SIG_IGN);  // peer hangups surface as EPIPE, not death
  g_loop = &loop;
  fprintf(stderr,
          "musicd[%d]: store node %d on %s:%u, music node %d on %s:%u, "
          "wire v%u..v%d%s%s\n",
          site, static_cast<int>(my_store.node()), host.c_str(), sp,
          static_cast<int>(my_music.node()), host.c_str(), mp,
          wire::kWireVersionMin, wire_max,
          state_file.empty() ? "" : ", state ", state_file.c_str());
  fflush(stderr);
  loop.run();
  g_loop = nullptr;

  // Graceful drain: tell every v2+ peer we are going away (they fail their
  // in-flight requests as retryable instead of timing out), then snapshot.
  tcp.announce_drain(wire::GoodbyeReason::Shutdown);
  if (!state_file.empty() && !save_state(my_store, state_file)) {
    fprintf(stderr, "musicd[%d]: state save failed: %s\n", site,
            state_file.c_str());
    return 1;
  }
  fprintf(stderr, "musicd[%d]: clean shutdown\n", site);
  return 0;
}
