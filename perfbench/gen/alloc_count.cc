#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

constexpr int kMaxSlots = 1024;

struct alignas(64) Slot {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> bytes{0};
};

Slot g_slots[kMaxSlots];
// Threads beyond kMaxSlots share the last slot with an atomic add.
std::atomic<int> g_next_slot{0};

struct ThreadSlot {
  Slot* slot = nullptr;
  bool shared = false;
};

thread_local ThreadSlot t_slot;

inline void note(std::size_t n) {
  if (t_slot.slot == nullptr) {
    int i = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    t_slot.shared = i >= kMaxSlots - 1;
    t_slot.slot = &g_slots[t_slot.shared ? kMaxSlots - 1 : i];
  }
  Slot& s = *t_slot.slot;
  if (t_slot.shared) {
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.bytes.fetch_add(n, std::memory_order_relaxed);
  } else {
    s.count.store(s.count.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    s.bytes.store(s.bytes.load(std::memory_order_relaxed) + n,
                  std::memory_order_relaxed);
  }
}

void* alloc(std::size_t n) {
  note(n);
  if (n == 0) n = 1;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void* alloc_aligned(std::size_t n, std::align_val_t al) {
  note(n);
  std::size_t a = static_cast<std::size_t>(al);
  std::size_t rounded = (n + a - 1) / a * a;
  if (rounded == 0) rounded = a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

AllocTotals alloc_totals() {
  AllocTotals t;
  int used = g_next_slot.load(std::memory_order_relaxed);
  if (used > kMaxSlots) used = kMaxSlots;
  for (int i = 0; i < used; ++i) {
    t.count += g_slots[i].count.load(std::memory_order_relaxed);
    t.bytes += g_slots[i].bytes.load(std::memory_order_relaxed);
  }
  return t;
}

int alloc_threads() { return g_next_slot.load(std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t n) { return perfbench::alloc(n); }
void* operator new[](std::size_t n) { return perfbench::alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return perfbench::alloc_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return perfbench::alloc_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
