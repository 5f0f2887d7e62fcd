// Heap-allocation counter interposed over global operator new/delete in the
// perfbench generator binary.
//
// Every thread owns one cache-line-sized slot, claimed on its first
// allocation and never released, so PDES worker threads count without
// sharing a line and totals stay readable after those threads exit.  Each
// slot has a single writer (its thread), which updates it with relaxed
// load+store; readers sum all slots with relaxed loads.  A total read after
// the writers have joined (or after a PDES barrier) is exact.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocTotals {
  uint64_t count = 0;
  uint64_t bytes = 0;
};

/// Sum over every thread that has allocated so far.
AllocTotals alloc_totals();

/// Number of thread slots claimed so far (self-test introspection).
int alloc_threads();

}  // namespace perfbench
