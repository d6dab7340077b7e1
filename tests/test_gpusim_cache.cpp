// Tests for the L2 sector-cache model and the warp coalescer: hit/miss
// accounting, LRU eviction, write-back behaviour, Nsight-style counters, the
// L2's allocation on first simulated use, and differentials of the optimized
// cache and contiguous-request paths against the seed implementations.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/memory.hpp"

namespace pd::gpusim {
namespace {

constexpr unsigned kSector = DeviceSpec::kSectorBytes;

TEST(CacheModel, ColdMissThenHit) {
  CacheModel cache(1024 * kSector, 4);
  TrafficCounters tc;
  EXPECT_FALSE(cache.access(100, false, tc));
  EXPECT_TRUE(cache.access(100, false, tc));
  EXPECT_EQ(tc.dram_read_bytes, kSector);
  EXPECT_EQ(tc.l2_read_sectors, 2u);
  EXPECT_EQ(tc.l2_read_hits, 1u);
}

TEST(CacheModel, LruEvictionWithinSet) {
  // 2-way cache with 4 sets: sectors 0, 4, 8 all map to set 0.
  CacheModel cache(8 * kSector, 2);
  ASSERT_EQ(cache.sets(), 4u);
  TrafficCounters tc;
  cache.access(0, false, tc);
  cache.access(4, false, tc);
  cache.access(0, false, tc);   // touch 0 -> 4 becomes LRU
  cache.access(8, false, tc);   // evicts 4
  EXPECT_TRUE(cache.access(0, false, tc));
  EXPECT_FALSE(cache.access(4, false, tc));  // was evicted
}

TEST(CacheModel, WriteBackOnDirtyEviction) {
  CacheModel cache(8 * kSector, 2);
  TrafficCounters tc;
  cache.access(0, true, tc);  // dirty
  cache.access(4, false, tc);
  cache.access(8, false, tc);   // evicts dirty line 0
  EXPECT_EQ(tc.dram_write_bytes, kSector);
}

TEST(CacheModel, CleanEvictionWritesNothing) {
  CacheModel cache(8 * kSector, 2);
  TrafficCounters tc;
  cache.access(0, false, tc);
  cache.access(4, false, tc);
  cache.access(8, false, tc);
  EXPECT_EQ(tc.dram_write_bytes, 0u);
}

TEST(CacheModel, FlushWritesDirtyOnce) {
  CacheModel cache(1024 * kSector, 4);
  TrafficCounters tc;
  cache.access(1, true, tc);
  cache.access(2, true, tc);
  cache.access(3, false, tc);
  cache.flush_dirty(tc);
  EXPECT_EQ(tc.dram_write_bytes, 2 * kSector);
  cache.flush_dirty(tc);  // idempotent
  EXPECT_EQ(tc.dram_write_bytes, 2 * kSector);
}

TEST(CacheModel, InvalidateForgetsEverything) {
  CacheModel cache(1024 * kSector, 4);
  TrafficCounters tc;
  cache.access(9, false, tc);
  cache.invalidate();
  EXPECT_FALSE(cache.access(9, false, tc));
}

TEST(CacheModel, RejectsDegenerateGeometry) {
  EXPECT_THROW(CacheModel(0, 4), pd::Error);
  EXPECT_THROW(CacheModel(kSector, 0), pd::Error);
}

TEST(MemoryModel, PerfectlyCoalescedWarpLoad) {
  // 32 lanes x 4 bytes contiguous = 128 bytes = 4 sectors, one request.
  MemoryModel mem(make_a100());
  mem.begin_kernel();
  alignas(64) static float data[32];
  Lanes<std::uint64_t> addr;
  for (unsigned i = 0; i < kWarpSize; ++i) {
    addr[i] = reinterpret_cast<std::uint64_t>(&data[i]);
  }
  mem.warp_access(addr, sizeof(float), kFullMask, false);
  const TrafficCounters tc = mem.counters();
  EXPECT_EQ(tc.warp_requests, 1u);
  EXPECT_EQ(tc.sectors_requested, 4u);
  EXPECT_DOUBLE_EQ(tc.sectors_per_request(), 4.0);
}

TEST(MemoryModel, ScatteredGatherTouchesManySectors) {
  MemoryModel mem(make_a100());
  mem.begin_kernel();
  alignas(32) static double data[32 * 64];
  Lanes<std::uint64_t> addr;
  for (unsigned i = 0; i < kWarpSize; ++i) {
    addr[i] = reinterpret_cast<std::uint64_t>(&data[i * 64]);  // 512B stride
  }
  mem.warp_access(addr, sizeof(double), kFullMask, false);
  EXPECT_EQ(mem.counters().sectors_requested, 32u);  // fully uncoalesced
}

TEST(MemoryModel, DuplicateLaneAddressesCoalesceToOneSector) {
  MemoryModel mem(make_a100());
  mem.begin_kernel();
  alignas(32) static double one;
  Lanes<std::uint64_t> addr;
  for (unsigned i = 0; i < kWarpSize; ++i) {
    addr[i] = reinterpret_cast<std::uint64_t>(&one);
  }
  mem.warp_access(addr, sizeof(double), kFullMask, false);
  EXPECT_EQ(mem.counters().sectors_requested, 1u);
}

TEST(MemoryModel, MaskedLanesDoNotTouchMemory) {
  MemoryModel mem(make_a100());
  mem.begin_kernel();
  alignas(32) static float data[32];
  Lanes<std::uint64_t> addr;
  for (unsigned i = 0; i < kWarpSize; ++i) {
    addr[i] = reinterpret_cast<std::uint64_t>(&data[i]);
  }
  mem.warp_access(addr, sizeof(float), 0u, false);
  EXPECT_EQ(mem.counters().warp_requests, 0u);
  EXPECT_EQ(mem.counters().sectors_requested, 0u);
}

TEST(MemoryModel, StraddlingLaneCountsBothSectors) {
  MemoryModel mem(make_a100());
  mem.begin_kernel();
  alignas(32) static std::uint8_t buf[128];
  Lanes<std::uint64_t> addr;
  // One active lane reading 8 bytes across a 32B boundary.
  addr[0] = reinterpret_cast<std::uint64_t>(&buf[28]);
  mem.warp_access(addr, 8, 0x1u, false);
  EXPECT_EQ(mem.counters().sectors_requested, 2u);
}

TEST(MemoryModel, AtomicCountsRmwAndOp) {
  MemoryModel mem(make_a100());
  mem.begin_kernel();
  alignas(32) static double cell;
  mem.atomic_access(reinterpret_cast<std::uint64_t>(&cell), sizeof(double));
  const TrafficCounters tc = mem.counters();
  EXPECT_EQ(tc.l2_atomic_ops, 1u);
  EXPECT_EQ(tc.l2_read_sectors, 1u);
  EXPECT_EQ(tc.l2_write_sectors, 1u);
}

TEST(MemoryModel, EndKernelFlushesDirtyToDram) {
  MemoryModel mem(make_a100());
  mem.begin_kernel();
  alignas(32) static double cell;
  mem.scalar_access(reinterpret_cast<std::uint64_t>(&cell), sizeof(double), true);
  const TrafficCounters tc = mem.end_kernel();
  // write-allocate read + final writeback
  EXPECT_EQ(tc.dram_read_bytes, kSector);
  EXPECT_EQ(tc.dram_write_bytes, kSector);
}

TEST(MemoryModel, StreamingLargeArrayMissesEveryLine) {
  // An array bigger than L2 touched twice: the second pass gets no reuse —
  // the regime the paper's 9 GB matrices live in.
  DeviceSpec tiny = make_a100();
  tiny.l2_bytes = 64 * kSector;  // 2 KiB cache
  MemoryModel mem(tiny);
  mem.begin_kernel();
  alignas(32) static std::uint8_t big[8192];
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t off = 0; off < sizeof(big); off += kSector) {
      mem.scalar_access(reinterpret_cast<std::uint64_t>(&big[off]), 4, false);
    }
  }
  const TrafficCounters tc = mem.counters();
  EXPECT_EQ(tc.dram_read_bytes, 2 * sizeof(big));
  EXPECT_EQ(tc.l2_read_hits, 0u);
}

TEST(MemoryModel, SmallArrayIsCacheResident) {
  // The input vector regime: second pass is all hits.
  MemoryModel mem(make_a100());
  mem.begin_kernel();
  alignas(32) static std::uint8_t small[4096];
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t off = 0; off < sizeof(small); off += kSector) {
      mem.scalar_access(reinterpret_cast<std::uint64_t>(&small[off]), 4, false);
    }
  }
  const TrafficCounters tc = mem.counters();
  EXPECT_EQ(tc.dram_read_bytes, sizeof(small));
  EXPECT_EQ(tc.l2_read_hits, sizeof(small) / kSector);
}

// --- lazy L2: allocation on first simulated use must be invisible ---------

void expect_same_traffic(const TrafficCounters& a, const TrafficCounters& b) {
  EXPECT_EQ(a.dram_read_bytes, b.dram_read_bytes);
  EXPECT_EQ(a.dram_write_bytes, b.dram_write_bytes);
  EXPECT_EQ(a.l2_read_sectors, b.l2_read_sectors);
  EXPECT_EQ(a.l2_write_sectors, b.l2_write_sectors);
  EXPECT_EQ(a.l2_read_hits, b.l2_read_hits);
  EXPECT_EQ(a.l2_write_hits, b.l2_write_hits);
  EXPECT_EQ(a.l2_atomic_ops, b.l2_atomic_ops);
  EXPECT_EQ(a.warp_requests, b.warp_requests);
  EXPECT_EQ(a.sectors_requested, b.sectors_requested);
  EXPECT_EQ(a.scalar_requests, b.scalar_requests);
  EXPECT_EQ(a.scalar_sectors, b.scalar_sectors);
}

TEST(CacheModel, FlushAndInvalidateOnUnusedCacheAreNoOps) {
  CacheModel unused(8 * kSector, 2);
  TrafficCounters tc;
  unused.flush_dirty(tc);
  expect_same_traffic(tc, TrafficCounters{});
  unused.invalidate();
  // The invalidated cache behaves exactly like a new one.
  CacheModel fresh(8 * kSector, 2);
  TrafficCounters a, b;
  for (const std::uint64_t s : {0u, 4u, 0u, 8u, 4u, 12u, 0u}) {
    EXPECT_EQ(unused.access(s, s % 8 == 0, a), fresh.access(s, s % 8 == 0, b));
  }
  unused.flush_dirty(a);
  fresh.flush_dirty(b);
  expect_same_traffic(a, b);
}

bool same_traffic(const TrafficCounters& a, const TrafficCounters& b) {
  return a.dram_read_bytes == b.dram_read_bytes &&
         a.dram_write_bytes == b.dram_write_bytes &&
         a.l2_read_sectors == b.l2_read_sectors &&
         a.l2_write_sectors == b.l2_write_sectors &&
         a.l2_read_hits == b.l2_read_hits &&
         a.l2_write_hits == b.l2_write_hits &&
         a.l2_atomic_ops == b.l2_atomic_ops &&
         a.warp_requests == b.warp_requests &&
         a.sectors_requested == b.sectors_requested &&
         a.scalar_requests == b.scalar_requests &&
         a.scalar_sectors == b.scalar_sectors;
}

TEST(CacheModel, MatchesReferenceOnSeededStreams) {
  // The MRU-ordered sets against the seed's stamp scan, access by access.
  // Each stream works a window of a few sets: hot sectors (a few more than
  // the ways, so they also evict each other), streaming sectors that never
  // repeat, and random far sectors, read or written, with flushes and cold
  // starts interleaved.
  const DeviceSpec a100 = make_a100();
  struct Geometry {
    std::uint64_t capacity;
    unsigned ways;
    std::size_t sets;
  };
  const Geometry geometries[] = {
      {8 * kSector, 2, 4},
      {1024 * kSector, 4, 256},
      {a100.l2_bytes, a100.l2_ways, 81920},  // not a power of two
  };
  for (const Geometry& g : geometries) {
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
      SCOPED_TRACE(testing::Message() << "ways=" << g.ways << " sets=" << g.sets
                                      << " seed=" << seed);
      CacheModel fast(g.capacity, g.ways);
      CacheModel ref(g.capacity, g.ways);
      ASSERT_EQ(fast.sets(), g.sets);
      Rng rng(seed);
      const std::uint64_t window = std::min<std::uint64_t>(g.sets, 8);
      const std::uint64_t first_set = rng.uniform_index(g.sets);
      std::uint64_t next_stream_tag = g.ways + 2;  // above every hot tag
      TrafficCounters a, b;
      std::uint64_t invalidations = 0;
      for (int i = 0; i < 20000; ++i) {
        const std::uint64_t roll = rng.uniform_index(1000);
        if (roll == 0) {
          fast.invalidate();
          ref.invalidate();
          ++invalidations;
          continue;
        }
        if (roll < 4) {
          fast.flush_dirty(a);
          ref.flush_dirty(b);
          ASSERT_TRUE(same_traffic(a, b)) << "flush before access " << i;
          continue;
        }
        const std::uint64_t set =
            (first_set + rng.uniform_index(window)) % g.sets;
        std::uint64_t sector;
        if (roll < 600) {
          sector = set + rng.uniform_index(g.ways + 2) * g.sets;
        } else if (roll < 950) {
          sector = set + next_stream_tag++ * g.sets;
        } else {
          sector = rng.uniform_index(std::uint64_t{1} << 40);
        }
        const bool write = rng.uniform_index(3) == 0;
        ASSERT_EQ(fast.access(sector, write, a),
                  ref.access_reference(sector, write, b))
            << "access " << i << " sector " << sector;
        ASSERT_TRUE(same_traffic(a, b)) << "access " << i;
      }
      fast.flush_dirty(a);
      ref.flush_dirty(b);
      expect_same_traffic(a, b);
      // The streams exercised what they are meant to.
      EXPECT_GT(invalidations, 0u);
      EXPECT_GT(a.l2_read_hits, 0u);
      EXPECT_GT(a.l2_write_hits, 0u);
      EXPECT_GT(a.dram_write_bytes, 0u);
    }
  }
}

// --- contiguous requests: one byte range per run of active lanes ----------

std::vector<std::uint64_t> sectors_of(const SectorBuffer& buf) {
  return {buf.data, buf.data + buf.count};
}

Lanes<std::uint64_t> lane_addresses(std::uint64_t addr, unsigned size) {
  Lanes<std::uint64_t> lanes;
  for (unsigned i = 0; i < kWarpSize; ++i) {
    lanes[i] = addr + std::uint64_t{i} * size;
  }
  return lanes;
}

/// A small L2, so that the models compared below evict and write back.
DeviceSpec small_l2() {
  DeviceSpec spec = make_a100();
  spec.l2_bytes = 256 * kSector;
  spec.l2_ways = 4;
  return spec;
}

TEST(MemoryModel, ContiguousRunIsOneRangeRequest) {
  // Every run of active lanes, element size and base alignment: the range
  // path lists exactly the lane coalescer's sectors and counts alike.
  MemoryModel by_range(small_l2());
  MemoryModel by_lane(small_l2());
  by_range.begin_kernel();
  by_lane.begin_kernel();
  for (const unsigned size : {1u, 2u, 4u, 8u, 16u}) {
    for (const std::uint64_t base :
         {4096u, 4097u, 4099u, 4104u, 4113u, 4127u}) {
      for (unsigned first = 0; first < kWarpSize; ++first) {
        for (unsigned len = 1; first + len <= kWarpSize; ++len) {
          SCOPED_TRACE(testing::Message() << "size=" << size << " base=" << base
                                          << " lanes=" << first << "+" << len);
          const LaneMask mask = first_lanes(len) << first;
          const Lanes<std::uint64_t> lanes = lane_addresses(base, size);
          SectorBuffer range, coalesced;
          coalesce_contiguous_sectors(base, size, mask, range);
          coalesce_warp_sectors(lanes, size, mask, coalesced);
          ASSERT_EQ(sectors_of(range), sectors_of(coalesced));

          const bool write = (first + len) % 3 == 0;
          by_range.contiguous_access(base, size, mask, write);
          by_lane.warp_access(lanes, size, mask, write);
          ASSERT_TRUE(same_traffic(by_range.counters(), by_lane.counters()));
        }
      }
    }
  }
  expect_same_traffic(by_range.end_kernel(), by_lane.end_kernel());
  EXPECT_EQ(by_range.counters().warp_requests, 5u * 6u * (32u * 33u / 2u));
}

TEST(MemoryModel, ContiguousMaskWithAHoleUsesTheLaneCoalescer) {
  // Lanes 0 and 5 of 16-byte elements touch sectors 0 and 2; the bytes
  // between them, sector 1, are not requested.
  SectorBuffer out;
  coalesce_contiguous_sectors(0, 16, 0b100001u, out);
  EXPECT_EQ(sectors_of(out), (std::vector<std::uint64_t>{0, 2}));

  MemoryModel by_range(small_l2());
  MemoryModel by_lane(small_l2());
  by_range.begin_kernel();
  by_lane.begin_kernel();
  Rng rng(4242);
  for (int i = 0; i < 5000; ++i) {
    const unsigned size = 1u << rng.uniform_index(5);  // 1..16 bytes
    const std::uint64_t base = 4096 + rng.uniform_index(4096);
    // Random masks: almost all have holes; an empty one requests nothing.
    const auto mask = static_cast<LaneMask>(i == 0 ? 0 : rng.next_u64());
    const Lanes<std::uint64_t> lanes = lane_addresses(base, size);
    SectorBuffer range, coalesced;
    coalesce_contiguous_sectors(base, size, mask, range);
    coalesce_warp_sectors(lanes, size, mask, coalesced);
    ASSERT_EQ(sectors_of(range), sectors_of(coalesced)) << "mask " << mask;
    by_range.contiguous_access(base, size, mask, /*write=*/i % 2 == 0);
    by_lane.warp_access(lanes, size, mask, /*write=*/i % 2 == 0);
    ASSERT_TRUE(same_traffic(by_range.counters(), by_lane.counters()));
  }
  expect_same_traffic(by_range.end_kernel(), by_lane.end_kernel());
}

// --- warp atomics: one request per instruction, one probe per sector -----

TEST(MemoryModel, WarpAtomicMatchesPerLaneAtomics) {
  // Seeded warp atomic instructions, each counted three ways: one
  // warp_atomic_access on the optimized path, per-lane atomic_access calls
  // on a twin model, and warp_atomic_access on the reference path.  All
  // eleven counters must agree after every instruction, with contiguous
  // requests, cold starts and kernel ends interleaved.  Lanes draw sectors
  // from a window of at most 8 sets, ways + 2 tags per set, so an
  // instruction repeats sectors next to each other and apart, and evicts
  // dirty lines its own lanes or earlier instructions wrote.
  const DeviceSpec a100 = make_a100();
  struct Geometry {
    std::uint64_t capacity;
    unsigned ways;
    std::size_t sets;
  };
  const Geometry geometries[] = {
      {4 * kSector, 4, 1},
      {8 * kSector, 2, 4},
      {1024 * kSector, 4, 256},
      {a100.l2_bytes, a100.l2_ways, 81920},
  };
  for (const Geometry& g : geometries) {
    SCOPED_TRACE(testing::Message() << "ways=" << g.ways << " sets=" << g.sets);
    DeviceSpec spec = a100;
    spec.l2_bytes = g.capacity;
    spec.l2_ways = g.ways;
    MemoryModel warp(spec);
    MemoryModel per_lane(spec);
    MemoryModel reference(spec);
    reference.set_reference_path(true);
    MemoryModel* const models[] = {&warp, &per_lane, &reference};
    for (MemoryModel* m : models) {
      m->begin_kernel();
    }
    ASSERT_EQ(CacheModel(g.capacity, g.ways).sets(), g.sets);

    Rng rng(9100 + g.ways);
    const std::uint64_t window = std::min<std::uint64_t>(g.sets, 8);
    const std::uint64_t first_set = rng.uniform_index(g.sets);
    // 64 tags of headroom keep descending lanes above address 0.
    auto pick_sector = [&] {
      return (first_set + rng.uniform_index(window)) % g.sets +
             (64 + rng.uniform_index(g.ways + 2)) * g.sets;
    };
    std::uint64_t adjacent = 0, apart = 0, straddling = 0, written_back = 0;
    for (int i = 0; i < 6000; ++i) {
      SCOPED_TRACE(testing::Message() << "instruction " << i);
      const std::uint64_t roll = rng.uniform_index(100);
      if (roll == 0) {
        for (MemoryModel* m : models) {
          m->invalidate_cache();
        }
        continue;
      }
      if (roll == 1) {
        const TrafficCounters ended = warp.end_kernel();
        ASSERT_TRUE(same_traffic(ended, per_lane.end_kernel()));
        ASSERT_TRUE(same_traffic(ended, reference.end_kernel()));
        written_back += ended.dram_write_bytes;
        for (MemoryModel* m : models) {
          m->begin_kernel();
        }
        continue;
      }
      const unsigned size = 1u << rng.uniform_index(5);  // 1..16 bytes
      if (roll < 10) {
        const std::uint64_t base =
            pick_sector() * kSector + rng.uniform_index(kSector);
        const auto mask = static_cast<LaneMask>(rng.next_u64());
        const bool write = rng.uniform_index(2) == 0;
        for (MemoryModel* m : models) {
          m->contiguous_access(base, size, mask, write);
        }
        ASSERT_TRUE(same_traffic(warp.counters(), per_lane.counters()));
        ASSERT_TRUE(same_traffic(reference.counters(), per_lane.counters()));
        continue;
      }

      LaneMask mask = 0;
      switch (rng.uniform_index(4)) {
        case 0:
          mask = rng.uniform_index(8) == 0 ? 0 : kFullMask;
          break;
        case 1:
          mask = LaneMask{1} << rng.uniform_index(kWarpSize);
          break;
        default:  // holes
          mask = static_cast<LaneMask>(rng.next_u64());
          break;
      }
      Lanes<std::uint64_t> addr;
      const std::uint64_t pattern = rng.uniform_index(4);
      std::uint64_t cursor = pick_sector() * kSector + rng.uniform_index(kSector);
      const std::uint64_t pool[] = {cursor, pick_sector() * kSector + 24,
                                    pick_sector() * kSector + 3};
      for (unsigned l = 0; l < kWarpSize; ++l) {
        if (pattern == 0) {  // ascending words, some repeated
          addr[l] = cursor;
          cursor += size * rng.uniform_index(3);
        } else if (pattern == 1) {  // descending words, some repeated
          addr[l] = cursor;
          cursor -= size * rng.uniform_index(3);
        } else if (pattern == 2) {  // a few words, repeated apart
          addr[l] = pool[rng.uniform_index(3)];
        } else {  // anywhere in the window
          addr[l] = pick_sector() * kSector + rng.uniform_index(kSector);
        }
      }
      // What the lanes repeat, sector by sector in lane order.
      std::vector<std::uint64_t> seen;
      for (unsigned l = 0; l < kWarpSize; ++l) {
        if (!lane_active(mask, l)) {
          continue;
        }
        const std::uint64_t first = addr[l] / kSector;
        const std::uint64_t last = (addr[l] + size - 1) / kSector;
        straddling += last != first;
        for (std::uint64_t s = first; s <= last; ++s) {
          if (!seen.empty() && seen.back() == s) {
            ++adjacent;
          } else if (std::find(seen.begin(), seen.end(), s) != seen.end()) {
            ++apart;
          }
          seen.push_back(s);
        }
      }

      warp.warp_atomic_access(addr, size, mask);
      for (unsigned l = 0; l < kWarpSize; ++l) {
        if (lane_active(mask, l)) {
          per_lane.atomic_access(addr[l], size);
        }
      }
      reference.warp_atomic_access(addr, size, mask);
      ASSERT_TRUE(same_traffic(warp.counters(), per_lane.counters()));
      ASSERT_TRUE(same_traffic(reference.counters(), per_lane.counters()));
    }
    const TrafficCounters ended = warp.end_kernel();
    expect_same_traffic(ended, per_lane.end_kernel());
    expect_same_traffic(ended, reference.end_kernel());
    written_back += ended.dram_write_bytes;
    // The instructions exercised what they are meant to.
    EXPECT_GT(adjacent, 0u);
    EXPECT_GT(apart, 0u);
    EXPECT_GT(straddling, 0u);
    EXPECT_GT(written_back, 0u);
  }
}

TEST(MemoryModel, AllocatesL2OnFirstKernel) {
  MemoryModel mem(make_a100());
  EXPECT_FALSE(mem.cache_allocated());
  mem.invalidate_cache();  // nothing to drop yet
  EXPECT_FALSE(mem.cache_allocated());
  mem.begin_kernel();
  EXPECT_TRUE(mem.cache_allocated());
  expect_same_traffic(mem.end_kernel(), TrafficCounters{});
}

TEST(MemoryModel, DegenerateL2RejectedAtConstruction) {
  DeviceSpec bad = make_a100();
  bad.l2_ways = 0;
  EXPECT_THROW(MemoryModel{bad}, pd::Error);
  bad = make_a100();
  bad.l2_bytes = kSector;
  EXPECT_THROW(Gpu{bad}, pd::Error);
}

/// A launch whose counters depend on the L2's starting state: a streaming
/// read, a gather from a small reused table, contiguous stores (dirty lines
/// written back at kernel end) and atomics on a few hot words.
struct L2Workload {
  std::vector<double> src, dst, table, hot;
  std::vector<std::uint32_t> idx;

  L2Workload() : src(4096), dst(4096), table(300), hot(8), idx(4096) {
    for (std::size_t i = 0; i < src.size(); ++i) {
      src[i] = static_cast<double>(i % 97);
      idx[i] = static_cast<std::uint32_t>((i * 37) % table.size());
    }
  }

  KernelStats run(Gpu& gpu, bool cold_cache = true) {
    const LaunchConfig cfg =
        LaunchConfig::warp_per_item(src.size() / kWarpSize, 128, 32);
    return gpu.run(
        cfg,
        [&](WarpCtx& w) {
          const std::uint64_t base = w.global_warp_id() * kWarpSize;
          if (base >= src.size()) return;
          const auto v = w.load_contiguous(src.data(), base, kFullMask);
          const auto i = w.load_contiguous(idx.data(), base, kFullMask);
          const auto t = w.gather(table.data(), i, kFullMask);
          Lanes<double> out;
          Lanes<std::uint32_t> slot;
          for (unsigned l = 0; l < kWarpSize; ++l) {
            out[l] = v[l] * t[l];
            slot[l] = l % 8;
          }
          w.store_contiguous(dst.data(), base, out, kFullMask);
          w.atomic_add_scatter(hot.data(), slot, out, kFullMask);
        },
        /*schedule_seed=*/0, cold_cache);
  }
};

TEST(LazyL2, FirstLaunchCountsLikeAColdLaunch) {
  DeviceSpec small = make_a100();
  small.l2_bytes = 256 * kSector;  // 8 KiB: the workload evicts and writes back
  small.l2_ways = 4;
  for (const DeviceSpec& spec : {make_a100(), small}) {
    L2Workload work;
    Gpu gpu(spec);
    const KernelStats first = work.run(gpu);
    const KernelStats again = work.run(gpu);
    expect_same_traffic(first.traffic, again.traffic);
    EXPECT_GT(first.traffic.dram_write_bytes, 0u);

    // A first launch that asks for a warm cache still starts cold.
    Gpu warm_first(spec);
    expect_same_traffic(work.run(warm_first, /*cold_cache=*/false).traffic,
                        first.traffic);

    // The reference coalescer and cache scan agree from their first launch,
    // and on warm relaunches that start from what the launch before left.
    Gpu fast(spec);
    Gpu reference(spec);
    reference.set_reference_memory_path(true);
    const KernelStats ref_first = work.run(reference);
    expect_same_traffic(work.run(fast).traffic, ref_first.traffic);
    expect_same_traffic(ref_first.traffic, first.traffic);
    for (int relaunch = 0; relaunch < 2; ++relaunch) {
      SCOPED_TRACE(testing::Message() << "warm relaunch " << relaunch);
      const KernelStats warm = work.run(fast, /*cold_cache=*/false);
      expect_same_traffic(warm.traffic,
                          work.run(reference, /*cold_cache=*/false).traffic);
      EXPECT_LT(warm.traffic.dram_read_bytes, first.traffic.dram_read_bytes);
    }
  }
}

TEST(TrafficCounters, Accumulate) {
  TrafficCounters a, b;
  a.dram_read_bytes = 10;
  a.warp_requests = 1;
  b.dram_read_bytes = 5;
  b.sectors_requested = 3;
  a += b;
  EXPECT_EQ(a.dram_read_bytes, 15u);
  EXPECT_EQ(a.sectors_requested, 3u);
  EXPECT_EQ(a.dram_bytes(), 15u);
}

}  // namespace
}  // namespace pd::gpusim
