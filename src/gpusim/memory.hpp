#pragma once
// Memory-hierarchy simulator: a set-associative, write-back, write-allocate
// L2 sector cache over the kernels' real address streams.
//
// The paper derives its roofline and bandwidth results from Nsight Compute's
// dram_bytes counters (L2 <-> DRAM traffic).  This model reproduces those
// counters: every warp-level load/store is decomposed into 32-byte sectors
// (the granularity of NVIDIA's L2), deduplicated per request (the coalescer),
// probed against an LRU cache of the device's L2 capacity, and misses /
// dirty-line writebacks are accounted as DRAM traffic.  Cache *filtering*
// effects the paper discusses — the input vector staying resident in the
// 40 MB A100 L2, atomic write amplification staying intra-cache — fall out of
// the model rather than being assumed.
//
// Two implementations of the hot path coexist:
//  * the optimized path — contiguous warp requests (one run of active
//    lanes) issued as one byte range, an in-order insertion-dedup coalescer
//    with a monotone fast path for everything else, warp atomics issued as
//    one request that gives each sector one fused read-modify-write and
//    counts a lane repeating the sector just written without a probe, and
//    sets kept as most-recently-used-first lists of 8-byte entries whose
//    contents expire in O(1) on a cold start — and
//  * the reference path — the original sort+unique coalescer over every
//    lane's address, a read and a write probe per atomic lane, and the
//    global-tick full-scan cache, kept as the behavioral oracle for
//    differential tests and as the baseline the engine-throughput bench
//    measures against.
// Both produce the identical ascending distinct-sector stream per request,
// the identical per-lane atomic accounting and the identical LRU victims,
// so every counter is bitwise equal between the paths.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/lanes.hpp"

namespace pd::gpusim {

class CheckContext;  // gpusim/simcheck.hpp — optional correctness analyzer

/// Traffic counters in the spirit of Nsight Compute's memory tables.
struct TrafficCounters {
  std::uint64_t dram_read_bytes = 0;
  std::uint64_t dram_write_bytes = 0;
  std::uint64_t l2_read_sectors = 0;   ///< Sector reads requested of L2.
  std::uint64_t l2_write_sectors = 0;  ///< Sector writes requested of L2.
  std::uint64_t l2_read_hits = 0;
  std::uint64_t l2_write_hits = 0;
  std::uint64_t l2_atomic_ops = 0;     ///< FP atomic RMW ops serviced by L2.
  std::uint64_t warp_requests = 0;     ///< Warp-level vector memory instructions.
  std::uint64_t sectors_requested = 0; ///< Sectors of warp requests, coalesced.
  std::uint64_t scalar_requests = 0;   ///< Uniform (broadcast) instructions.
  std::uint64_t scalar_sectors = 0;    ///< Sectors of scalar requests.

  std::uint64_t dram_bytes() const { return dram_read_bytes + dram_write_bytes; }
  std::uint64_t l2_bytes() const {
    return (l2_read_sectors + l2_write_sectors) * DeviceSpec::kSectorBytes;
  }
  /// All issue-slot sectors (vector + scalar) — the replay term of t_issue.
  std::uint64_t total_sectors() const {
    return sectors_requested + scalar_sectors;
  }
  /// Sectors per warp *vector* request; 4.0 == perfectly coalesced 4-byte
  /// lanes.  Scalar requests are excluded so mixed traffic does not skew the
  /// coalescing metric toward 1.
  double sectors_per_request() const;

  TrafficCounters& operator+=(const TrafficCounters& o);
};

/// Scratch buffer the coalescer compacts a request's distinct sectors into.
/// The inline array covers every access the kernels issue today (<= 64-byte
/// lanes); wider accesses spill to the heap instead of overflowing.
struct SectorBuffer {
  static constexpr unsigned kInlineCapacity = 4 * kWarpSize;
  std::array<std::uint64_t, kInlineCapacity> inline_storage;
  std::vector<std::uint64_t> spill;
  std::uint64_t* data = nullptr;
  unsigned count = 0;

  /// Point `data` at storage able to hold `needed` sectors.
  void reserve(unsigned needed) {
    if (needed <= kInlineCapacity) {
      data = inline_storage.data();
    } else {
      spill.resize(needed);
      data = spill.data();
    }
    count = 0;
  }
};

/// Compact the distinct sectors touched by one warp request into `out`, in
/// ascending order.  Insertion-dedup with a monotone fast path: the kernels'
/// lanes touch monotone (contiguous loads, ascending-column gathers) or
/// near-monotone addresses, so the common case is one compare per sector and
/// no sort; only a non-monotone stream pays a final small sort.
void coalesce_warp_sectors(const Lanes<std::uint64_t>& addr, unsigned size,
                           LaneMask mask, SectorBuffer& out);

/// The seed implementation (collect all, std::sort, std::unique), kept as
/// the oracle: identical output, original cost profile.
void coalesce_warp_sectors_reference(const Lanes<std::uint64_t>& addr,
                                     unsigned size, LaneMask mask,
                                     SectorBuffer& out);

/// Compact the sectors of a contiguous warp request — active lane i touches
/// [addr + i * size, addr + (i + 1) * size) — into `out`, in ascending order.
/// When the active lanes form one run their byte ranges union to one range,
/// whose sectors are listed directly; a mask with a hole goes through
/// coalesce_warp_sectors.  The output equals coalesce_warp_sectors' on the
/// per-lane addresses either way.
void coalesce_contiguous_sectors(std::uint64_t addr, unsigned size,
                                 LaneMask mask, SectorBuffer& out);

/// Set-associative LRU sector cache with write-back / write-allocate policy.
///
/// Each set lists its resident sectors most-recently-used first, one 8-byte
/// entry (`sector << 1 | dirty`) per way.  A hit moves its entry to the
/// front; a miss inserts at the front and, in a full set, evicts the last
/// entry — exact LRU.  Every set also records the epoch it was last touched
/// in and how many entries it holds: invalidate() starts a new epoch, and a
/// set from an older one reads as empty, so a cold start costs O(1).
class CacheModel {
 public:
  /// Throws pd::Error unless `ways` ways of 32-byte sectors fit in
  /// `capacity_bytes`.
  static void check_geometry(std::uint64_t capacity_bytes, unsigned ways);

  CacheModel(std::uint64_t capacity_bytes, unsigned ways);

  /// Probe one sector; updates counters.  `write` marks the line dirty.
  /// Returns true on hit.
  bool access(std::uint64_t sector_index, bool write, TrafficCounters& tc);

  /// An atomic's read-modify-write of one sector with one set lookup,
  /// counted and cached exactly as access(sector, false) followed by
  /// access(sector, true).  The read leaves the sector at the front of its
  /// set, so the write hits and only marks that entry dirty: one write probe
  /// leaves the same state, and the read's counts are added to it.
  void read_modify_write(std::uint64_t sector_index, TrafficCounters& tc);

  /// The seed implementation: a tag/stamp array of its own (allocated by the
  /// first call), full associativity scan, global LRU tick.  Counter-
  /// equivalent to access(), but the two keep separate contents, so a
  /// stream stays on one of them until the next invalidate().
  bool access_reference(std::uint64_t sector_index, bool write,
                        TrafficCounters& tc);

  /// Write back all dirty lines (end-of-kernel accounting) without
  /// invalidating clean contents.
  void flush_dirty(TrafficCounters& tc);

  /// Drop all contents (cold cache for an independent measurement).
  void invalidate();

  std::uint64_t capacity_bytes() const { return capacity_bytes_; }
  std::size_t sets() const { return sets_; }

 private:
  struct SetState {
    std::uint64_t epoch = 0;  ///< Contents are valid only if == epoch_.
    std::uint32_t count = 0;  ///< Resident entries, front of the set.
  };
  struct Way {  ///< Reference-path line.
    std::uint64_t tag = 0;
    std::uint64_t stamp = 0;
    bool valid = false;
    bool dirty = false;
  };

  std::uint64_t capacity_bytes_;
  unsigned ways_;
  std::size_t sets_;
  /// sets_ * ways_ entries, row-major by set, MRU first; only the first
  /// `count` of a current-epoch set are ever read, so none is initialized.
  std::unique_ptr<std::uint64_t[]> entries_;
  std::vector<SetState> state_;  ///< One per set.
  std::uint64_t epoch_ = 1;
  std::vector<Way> ref_lines_;   ///< Reference path: sets_ * ways_, or empty.
  std::uint64_t tick_ = 0;       ///< Reference path's global clock.
};

/// Per-device memory model: routes warp requests through the coalescer and
/// the L2 model, accumulating counters for the active kernel.
///
/// The L2 (10.5 MB of set entries and 1.3 MB of per-set state for the A100)
/// is allocated by the first begin_kernel(), not here, so a Gpu that never
/// launches — every native-backend DoseEngine — holds none.  A new cache is
/// in exactly the state invalidate() leaves, so the first launch counts like
/// any cold one.
/// Accesses are valid between begin_kernel() and end_kernel().
class MemoryModel {
 public:
  /// Checks the L2 geometry now; allocates nothing.
  explicit MemoryModel(const DeviceSpec& spec);

  /// One warp-level memory instruction touching per-lane byte ranges
  /// [addr[i], addr[i]+size) for active lanes.  Sectors are deduplicated
  /// across the warp (the coalescer) before probing L2.
  void warp_access(const Lanes<std::uint64_t>& addr, unsigned size, LaneMask mask,
                   bool write);

  /// One contiguous warp-level memory instruction: active lane i touches
  /// [addr + i * size, addr + (i + 1) * size).  Counted like warp_access on
  /// the per-lane addresses; see coalesce_contiguous_sectors.
  void contiguous_access(std::uint64_t addr, unsigned size, LaneMask mask,
                         bool write);

  /// Uniform (single-lane / broadcast) access.
  void scalar_access(std::uint64_t addr, unsigned size, bool write);

  /// Atomic read-modify-write of one `size`-byte word, serviced at L2: a
  /// read and a write probe per sector.  The per-lane oracle of
  /// warp_atomic_access, whose reference path issues it lane by lane.
  void atomic_access(std::uint64_t addr, unsigned size);

  /// One warp atomic instruction: active lane i updates the `size`-byte
  /// word at addr[i], in lane order.  Counted exactly as atomic_access on
  /// each active lane in turn.  The optimized path gives each sector one
  /// fused read-modify-write, and counts a sector equal to the one just
  /// read-modify-written as a read hit and a write hit without a probe: that
  /// sector is at the front of its set and dirty, so re-probing it would
  /// change nothing.
  void warp_atomic_access(const Lanes<std::uint64_t>& addr, unsigned size,
                          LaneMask mask);

  /// Route subsequent accesses through the seed (reference) coalescer and
  /// cache scan instead of the optimized ones.  Counters are identical
  /// either way; this exists for differential tests and baseline timing.
  void set_reference_path(bool on) { reference_path_ = on; }
  bool reference_path() const { return reference_path_; }

  /// Zero the per-kernel counters; allocates the L2 on first use.
  void begin_kernel();
  TrafficCounters end_kernel();              ///< Flush dirty lines, return counters.
  /// Cold-start the L2 (nothing to drop before the first kernel).
  void invalidate_cache() {
    if (cache_) {
      cache_->invalidate();
    }
  }
  /// Whether the L2 has been allocated (a kernel has begun).
  bool cache_allocated() const { return cache_.has_value(); }

  const TrafficCounters& counters() const { return counters_; }

 private:
  /// Probe the L2 with one request's sectors, in order, on the active path.
  void probe(const std::uint64_t* sectors, unsigned count, bool write);
  /// Count the warp request whose sectors are in scratch_ and probe them.
  void issue_warp_request(bool write);

  std::uint64_t l2_bytes_;
  unsigned l2_ways_;
  std::optional<CacheModel> cache_;  ///< Built by the first begin_kernel().
  TrafficCounters counters_;
  SectorBuffer scratch_;
  bool reference_path_ = false;
};

/// Handle a WarpCtx issues memory instructions through: the launch's memory
/// model, or none when the launch skips traffic simulation
/// (TraceMode::kFunctionalOnly).
class MemRoute {
 public:
  static MemRoute direct(MemoryModel& mem) {
    MemRoute r;
    r.mem_ = &mem;
    return r;
  }
  static MemRoute functional() { return MemRoute{}; }

  /// True when the launch skips traffic simulation — WarpCtx uses this to
  /// elide address generation on its gathers and scatters.
  bool functional_only() const { return mem_ == nullptr; }

  /// True when the launch runs blocks concurrently: atomic_add_scatter must
  /// use real atomic RMW instead of a plain read-modify-write.  Only
  /// functional-only launches run concurrently.
  bool concurrent() const { return concurrent_; }
  void set_concurrent(bool on) { concurrent_ = on; }

  /// The launch's simcheck context, or nullptr when checking is disabled.
  /// WarpCtx/BlockCtx hooks are guarded on this pointer, so the disabled
  /// path costs one null test per instruction and nothing else.
  CheckContext* check() const { return check_; }
  void set_check(CheckContext* check) { check_ = check; }

  void warp_access(const Lanes<std::uint64_t>& addr, unsigned size,
                   LaneMask mask, bool write) {
    if (mem_ != nullptr) {
      mem_->warp_access(addr, size, mask, write);
    }
  }
  void contiguous_access(std::uint64_t addr, unsigned size, LaneMask mask,
                         bool write) {
    if (mem_ != nullptr) {
      mem_->contiguous_access(addr, size, mask, write);
    }
  }
  void scalar_access(std::uint64_t addr, unsigned size, bool write) {
    if (mem_ != nullptr) {
      mem_->scalar_access(addr, size, write);
    }
  }
  void warp_atomic_access(const Lanes<std::uint64_t>& addr, unsigned size,
                          LaneMask mask) {
    if (mem_ != nullptr) {
      mem_->warp_atomic_access(addr, size, mask);
    }
  }

 private:
  MemoryModel* mem_ = nullptr;
  bool concurrent_ = false;
  CheckContext* check_ = nullptr;
};

}  // namespace pd::gpusim
