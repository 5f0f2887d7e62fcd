// REST gateway tests: the §VI JSON interface end-to-end over a simulated
// deployment, including the full Listing-1 flow driven purely by JSON.
#include "rest/rest.h"

#include <gtest/gtest.h>

#include "cluster/world.h"
#include "util/world.h"

namespace music::rest {
namespace {

using test::ClusterWorld;
using test::MusicWorld;

TEST(Rest, Listing1DrivenEntirelyByJson) {
  MusicWorld w;
  RestGateway gw(w.client(0));
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto created = Json::parse(co_await gw.handle(
        R"({"op":"createLockRef","key":"k"})"));
    CO_ASSERT_TRUE(created.has_value());
    CO_ASSERT_EQ((*created)["status"].as_string(), "Ok");
    int64_t ref = (*created)["lockRef"].as_int();
    EXPECT_EQ(ref, 1);

    // Poll acquireLock until granted (Listing 1's loop, via JSON).
    std::string status;
    for (int i = 0; i < 64 && status != "Ok"; ++i) {
      Json req;
      req.set("op", "acquireLock").set("key", "k").set("lockRef", ref);
      auto reply = co_await gw.handle_json(req);
      status = reply["status"].as_string();
      if (status != "Ok") co_await sim::sleep_for(w.sim, sim::ms(5));
    }
    CO_ASSERT_EQ(status, "Ok");

    Json put;
    put.set("op", "criticalPut").set("key", "k").set("lockRef", ref)
        .set("value", "42");
    auto pr = co_await gw.handle_json(put);
    EXPECT_EQ(pr["status"].as_string(), "Ok");

    Json get;
    get.set("op", "criticalGet").set("key", "k").set("lockRef", ref);
    auto gr = co_await gw.handle_json(get);
    CO_ASSERT_EQ(gr["status"].as_string(), "Ok");
    EXPECT_EQ(gr["value"].as_string(), "42");

    Json rel;
    rel.set("op", "releaseLock").set("key", "k").set("lockRef", ref);
    auto rr = co_await gw.handle_json(rel);
    EXPECT_EQ(rr["status"].as_string(), "Ok");
  });
  ASSERT_TRUE(ok);
}

TEST(Rest, EventualOpsAndKeyListing) {
  MusicWorld w;
  RestGateway gw(w.client(0));
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) {
      auto r = Json::parse(co_await gw.handle(
          R"({"op":"put","key":"job-)" + std::to_string(i) +
          R"(","value":"pending"})"));
      CO_ASSERT_TRUE(r.has_value());
      EXPECT_EQ((*r)["status"].as_string(), "Ok");
    }
    co_await sim::sleep_for(w.sim, sim::sec(1));
    auto g = Json::parse(co_await gw.handle(R"({"op":"get","key":"job-1"})"));
    CO_ASSERT_TRUE(g.has_value());
    EXPECT_EQ((*g)["value"].as_string(), "pending");
    auto keys = Json::parse(co_await gw.handle(
        R"({"op":"getAllKeys","key":"job-"})"));
    CO_ASSERT_TRUE(keys.has_value());
    EXPECT_EQ((*keys)["keys"].as_array().size(), 3u);
  });
  ASSERT_TRUE(ok);
}

TEST(Rest, RejectsMalformedRequestsWithoutTouchingTheStore) {
  MusicWorld w;
  RestGateway gw(w.client(0));
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    for (const char* bad : {
             "not json at all",
             R"([1,2,3])",                              // not an object
             R"({"key":"k"})",                          // no op
             R"({"op":"criticalPut","key":"k"})",       // no lockRef
             R"({"op":"criticalPut","key":"k","lockRef":1})",  // no value
             R"({"op":"teleport","key":"k"})",          // unknown op
             R"({"op":"get"})",                         // no key
         }) {
      auto r = Json::parse(co_await gw.handle(bad));
      CO_ASSERT_TRUE(r.has_value());
      EXPECT_EQ((*r)["status"].as_string(), "BadRequest") << bad;
    }
    co_return;
  });
  ASSERT_TRUE(ok);
  // No operations reached the replicas.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(w.replica(i).stats().create_lock_ref, 0u);
    EXPECT_EQ(w.replica(i).stats().critical_puts, 0u);
  }
}

TEST(Rest, GuardFailuresSurfaceAsStatusStrings) {
  MusicWorld w;
  RestGateway gw(w.client(0));
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    // criticalPut with a lockRef that was never granted.
    auto r = Json::parse(co_await gw.handle(
        R"({"op":"criticalPut","key":"k","lockRef":42,"value":"x"})"));
    CO_ASSERT_TRUE(r.has_value());
    EXPECT_EQ((*r)["status"].as_string(), "NotYetHolder");
    // criticalGet on a missing key inside a real section.
    auto created = Json::parse(co_await gw.handle(
        R"({"op":"createLockRef","key":"k"})"));
    int64_t ref = (*created)["lockRef"].as_int();
    Json acq;
    acq.set("op", "acquireLock").set("key", "k").set("lockRef", ref);
    std::string status;
    for (int i = 0; i < 64 && status != "Ok"; ++i) {
      status = (co_await gw.handle_json(acq))["status"].as_string();
      if (status != "Ok") co_await sim::sleep_for(w.sim, sim::ms(5));
    }
    Json get;
    get.set("op", "criticalGet").set("key", "k").set("lockRef", ref);
    auto gr = co_await gw.handle_json(get);
    EXPECT_EQ(gr["status"].as_string(), "NotFound");
  });
  ASSERT_TRUE(ok);
}

// The "batch" verb end-to-end: an ordered mix of puts and gets under one
// lockRef, one wire request, per-op statuses in order.
TEST(Rest, BatchExecutesOrderedOpsUnderOneLockRef) {
  MusicWorld w;
  RestGateway gw(w.client(0));
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto created = Json::parse(co_await gw.handle(
        R"({"op":"createLockRef","key":"k"})"));
    CO_ASSERT_TRUE(created.has_value());
    int64_t ref = (*created)["lockRef"].as_int();
    Json acq;
    acq.set("op", "acquireLock").set("key", "k").set("lockRef", ref);
    std::string status;
    for (int i = 0; i < 64 && status != "Ok"; ++i) {
      status = (co_await gw.handle_json(acq))["status"].as_string();
      if (status != "Ok") co_await sim::sleep_for(w.sim, sim::ms(5));
    }
    CO_ASSERT_EQ(status, "Ok");

    Json req;
    req.set("op", "batch").set("key", "k").set("lockRef", ref);
    Json ops;
    ops.push(Json().set("op", "put").set("key", "k/a").set("value", "1"));
    ops.push(Json().set("op", "put").set("key", "k/b").set("value", "2"));
    ops.push(Json().set("op", "get").set("key", "k/a"));
    ops.push(Json().set("op", "get"));  // key defaults to the lock key
    req.set("ops", ops);
    auto reply = co_await gw.handle_json(req);
    // NotFound on a get is benign, so the roll-up is still Ok.
    CO_ASSERT_EQ(reply["status"].as_string(), "Ok");
    const auto& rs = reply["results"].as_array();
    CO_ASSERT_EQ(rs.size(), 4u);
    EXPECT_EQ(rs[0]["status"].as_string(), "Ok");
    EXPECT_EQ(rs[1]["status"].as_string(), "Ok");
    CO_ASSERT_EQ(rs[2]["status"].as_string(), "Ok");
    EXPECT_EQ(rs[2]["value"].as_string(), "1");
    EXPECT_EQ(rs[3]["status"].as_string(), "NotFound");

    Json rel;
    rel.set("op", "releaseLock").set("key", "k").set("lockRef", ref);
    EXPECT_EQ((co_await gw.handle_json(rel))["status"].as_string(), "Ok");
  });
  ASSERT_TRUE(ok);
}

TEST(Rest, BatchRejectsMalformedBodiesWithoutTouchingTheStore) {
  MusicWorld w;
  RestGateway gw(w.client(0));
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    for (const char* bad : {
             // no lockRef
             R"({"op":"batch","key":"k","ops":[{"op":"get"}]})",
             // no ops array
             R"({"op":"batch","key":"k","lockRef":1})",
             // ops not an array
             R"({"op":"batch","key":"k","lockRef":1,"ops":"get"})",
             // entry not an object
             R"({"op":"batch","key":"k","lockRef":1,"ops":["get"]})",
             // put without value
             R"({"op":"batch","key":"k","lockRef":1,"ops":[{"op":"put"}]})",
             // unknown sub-op — even after valid entries
             R"({"op":"batch","key":"k","lockRef":1,)"
             R"("ops":[{"op":"put","value":"x"},{"op":"teleport"}]})",
         }) {
      auto r = Json::parse(co_await gw.handle(bad));
      CO_ASSERT_TRUE(r.has_value());
      EXPECT_EQ((*r)["status"].as_string(), "BadRequest") << bad;
    }
    co_return;
  });
  ASSERT_TRUE(ok);
  // Validation is all-or-nothing: nothing reached the replicas.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(w.replica(i).stats().batches, 0u);
    EXPECT_EQ(w.replica(i).stats().critical_puts, 0u);
  }
}

// A well-formed batch under a never-granted lockRef comes back with one
// NotYetHolder per sub-op (the aligned-results guarantee), not a bare
// top-level error.
TEST(Rest, BatchUnderUngrantedRefReportsPerOpStatuses) {
  MusicWorld w;
  RestGateway gw(w.client(0));
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto r = Json::parse(co_await gw.handle(
        R"({"op":"batch","key":"k","lockRef":42,)"
        R"("ops":[{"op":"put","value":"x"},{"op":"get"},{"op":"delete"}]})"));
    CO_ASSERT_TRUE(r.has_value());
    EXPECT_EQ((*r)["status"].as_string(), "NotYetHolder");
    const auto& rs = (*r)["results"].as_array();
    CO_ASSERT_EQ(rs.size(), 3u);
    for (const auto& e : rs) {
      EXPECT_EQ(e["status"].as_string(), "NotYetHolder");
    }
  });
  ASSERT_TRUE(ok);
}

// ---- The sharded binding: every verb routes through cluster::Client. -------

TEST(RestCluster, StatusReportsDeploymentShapeForBothBindings) {
  MusicWorld w;
  RestGateway core_gw(w.client(0));
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto r = co_await core_gw.handle_json(Json().set("op", "status"));
    CO_ASSERT_EQ(r["status"].as_string(), "Ok");
    EXPECT_EQ(r["shard_count"].as_int(), 1);
    EXPECT_EQ(r["map_epoch"].as_int(), 0);
  });
  ASSERT_TRUE(ok);

  ClusterWorld cw(test::cluster_options(), /*shards=*/4);
  RestGateway gw(cw.make_client(0));
  ok = cw.runner.run([&]() -> sim::Task<void> {
    auto r = co_await gw.handle_json(Json().set("op", "status"));
    CO_ASSERT_EQ(r["status"].as_string(), "Ok");
    EXPECT_EQ(r["shard_count"].as_int(), 4);
    EXPECT_EQ(r["map_epoch"].as_int(), 0);

    // After a shard move the epoch shows through the same endpoint.
    int shard = cw.cluster.snapshot()->route("k");
    int src = cw.cluster.snapshot()->group_of(shard);
    CO_ASSERT_TRUE((co_await cw.cluster.move_shard(
                        shard, (src + 1) % cw.cluster.num_groups()))
                       .ok());
    auto r2 = co_await gw.handle_json(Json().set("op", "status"));
    EXPECT_EQ(r2["map_epoch"].as_int(), 1);
  });
  ASSERT_TRUE(ok);
}

TEST(RestCluster, Listing1FlowOverAShardedDeployment) {
  ClusterWorld cw(test::cluster_options(), /*shards=*/4);
  RestGateway gw(cw.make_client(0));
  bool ok = cw.runner.run([&]() -> sim::Task<void> {
    auto created = Json::parse(co_await gw.handle(
        R"({"op":"createLockRef","key":"k"})"));
    CO_ASSERT_TRUE(created.has_value());
    CO_ASSERT_EQ((*created)["status"].as_string(), "Ok");
    int64_t ref = (*created)["lockRef"].as_int();

    Json acq;
    acq.set("op", "acquireLock").set("key", "k").set("lockRef", ref);
    std::string status;
    for (int i = 0; i < 64 && status != "Ok"; ++i) {
      status = (co_await gw.handle_json(acq))["status"].as_string();
      if (status != "Ok") co_await sim::sleep_for(cw.sim, sim::ms(5));
    }
    CO_ASSERT_EQ(status, "Ok");

    Json put;
    put.set("op", "criticalPut").set("key", "k").set("lockRef", ref)
        .set("value", "42");
    EXPECT_EQ((co_await gw.handle_json(put))["status"].as_string(), "Ok");
    Json get;
    get.set("op", "criticalGet").set("key", "k").set("lockRef", ref);
    auto gr = co_await gw.handle_json(get);
    CO_ASSERT_EQ(gr["status"].as_string(), "Ok");
    EXPECT_EQ(gr["value"].as_string(), "42");
    Json rel;
    rel.set("op", "releaseLock").set("key", "k").set("lockRef", ref);
    EXPECT_EQ((co_await gw.handle_json(rel))["status"].as_string(), "Ok");

    // Eventual ops and key listing fan out across groups behind the same
    // JSON surface.
    for (int i = 0; i < 3; ++i) {
      auto pr = Json::parse(co_await gw.handle(
          R"({"op":"put","key":"job-)" + std::to_string(i) +
          R"(","value":"pending"})"));
      CO_ASSERT_TRUE(pr.has_value());
      EXPECT_EQ((*pr)["status"].as_string(), "Ok");
    }
    co_await sim::sleep_for(cw.sim, sim::sec(1));
    auto keys = Json::parse(co_await gw.handle(
        R"({"op":"getAllKeys","key":"job-"})"));
    CO_ASSERT_TRUE(keys.has_value());
    EXPECT_EQ((*keys)["keys"].as_array().size(), 3u);
  });
  ASSERT_TRUE(ok);
  EXPECT_TRUE(cw.checker.ok()) << cw.checker.report();
}

}  // namespace
}  // namespace music::rest
