// Evict<C> specializations for the two client types the benchmark drives.
#pragma once

#include "cluster/client.h"
#include "section.h"
#include "verify/oracle.h"

namespace perfbench {

template <>
struct Evict<music::verify::CheckedClient> {
  static music::sim::Task<music::Status> remove_lock_ref(
      music::verify::CheckedClient& c, Key key, LockRef ref) {
    return c.inner().remove_lock_ref(std::move(key), ref);
  }
};

template <>
struct Evict<music::cluster::Client> {
  static music::sim::Task<music::Status> remove_lock_ref(
      music::cluster::Client& c, Key key, LockRef ref) {
    return c.remove_lock_ref(std::move(key), ref);
  }
};

}  // namespace perfbench
