// Heap footprint of one binary-consensus node. Once the execution's shared
// ConsensusConfig is built, a Few-Crashes, Many-Crashes, AEA or SCV process
// is a single heap block (its stages live inside it and borrow the config's
// graphs), so building one costs one allocation and no free, and destroying
// it costs one free. This binary replaces the global operator new/delete
// with counting versions, which is why it stands alone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "core/consensus.hpp"
#include "core/params.hpp"
#include "core/stages.hpp"

namespace {

std::atomic<std::int64_t> g_allocations{0};
std::atomic<std::int64_t> g_bytes{0};
std::atomic<std::int64_t> g_frees{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(static_cast<std::int64_t>(size), std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

void operator delete(void* p, std::size_t /*size*/) noexcept { operator delete(p); }

// The remaining forms route through the two above, so every allocation and
// free pairs malloc with free whichever form a library uses.
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t& /*tag*/) noexcept {
  try {
    return operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t /*size*/) noexcept { operator delete(p); }
void operator delete(void* p, const std::nothrow_t& /*tag*/) noexcept { operator delete(p); }
void operator delete[](void* p, const std::nothrow_t& /*tag*/) noexcept { operator delete(p); }

namespace lft::core {
namespace {

struct HeapCounts {
  std::int64_t allocations = g_allocations.load();
  std::int64_t bytes = g_bytes.load();
  std::int64_t frees = g_frees.load();
};

constexpr NodeId kNodes = 1000;

/// Builds node 0 (warming the config), then nodes 1..kNodes, then destroys
/// those kNodes, checking the heap traffic of each step.
template <typename Make>
void expect_one_block_per_node(Make make) {
  std::vector<std::unique_ptr<StageProcess>> procs;
  procs.reserve(static_cast<std::size_t>(kNodes) + 1);
  procs.push_back(make(0));

  const HeapCounts before;
  for (NodeId v = 1; v <= kNodes; ++v) procs.push_back(make(v));
  const HeapCounts built;
  EXPECT_EQ(built.allocations - before.allocations, kNodes) << "allocations while building";
  EXPECT_EQ(built.frees - before.frees, 0) << "frees while building";
  EXPECT_EQ(built.bytes - before.bytes,
            static_cast<std::int64_t>(kNodes) * static_cast<std::int64_t>(sizeof(StageProcess)))
      << "heap bytes while building";

  procs.resize(1);
  const HeapCounts destroyed;
  EXPECT_EQ(destroyed.frees - built.frees, kNodes) << "frees while destroying";
  EXPECT_EQ(destroyed.allocations - built.allocations, 0) << "allocations while destroying";
}

const ConsensusParams& params() {
  static const ConsensusParams p = ConsensusParams::practical(4096, 200);
  return p;
}

TEST(ProcessFootprint, FewCrashesIsOneBlockPerNode) {
  expect_one_block_per_node(
      [](NodeId v) { return make_few_crashes_process(params(), v, static_cast<int>(v % 2)); });
}

TEST(ProcessFootprint, ManyCrashesIsOneBlockPerNode) {
  expect_one_block_per_node(
      [](NodeId v) { return make_many_crashes_process(params(), v, static_cast<int>(v % 2)); });
}

TEST(ProcessFootprint, AeaIsOneBlockPerNode) {
  expect_one_block_per_node(
      [](NodeId v) { return make_aea_process(params(), v, static_cast<int>(v % 2)); });
}

TEST(ProcessFootprint, ScvIsOneBlockPerNode) {
  expect_one_block_per_node([](NodeId v) {
    return make_scv_process(params(), v,
                            v % 3 == 0 ? std::optional<std::uint64_t>(1) : std::nullopt);
  });
}

TEST(ProcessFootprint, PooledRebuildAllocatesNothing) {
  // The service's pooled slots rebuild each node in its own block.
  auto proc = make_few_crashes_process(params(), 7, 1);
  const HeapCounts before;
  for (int k = 0; k < 100; ++k) rebuild_few_crashes_process(*proc, k % 2);
  const HeapCounts after;
  EXPECT_EQ(after.allocations - before.allocations, 0);
  EXPECT_EQ(after.frees - before.frees, 0);
  EXPECT_EQ(proc->self(), 7);
  EXPECT_EQ(proc->state().candidate, 1);
}

}  // namespace
}  // namespace lft::core
