#include "gpusim/memory.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pd::gpusim {

namespace {
constexpr unsigned kSector = DeviceSpec::kSectorBytes;

/// Upper bound on the sectors one request can span: every active lane can
/// touch ceil(size / kSector) sectors plus one more for a straddling start.
unsigned max_sectors_for(unsigned size, LaneMask mask) {
  const unsigned per_lane = (size - 1) / kSector + 2;
  return popcount_mask(mask) * per_lane;
}

/// Per-lane addresses of a contiguous request: lane i at addr + i * size.
Lanes<std::uint64_t> contiguous_lanes(std::uint64_t addr, unsigned size) {
  Lanes<std::uint64_t> lanes;
  for (unsigned i = 0; i < kWarpSize; ++i) {
    lanes[i] = addr + std::uint64_t{i} * size;
  }
  return lanes;
}

/// Fill `out` with the sectors of the byte range [addr, addr + size).
void fill_span(std::uint64_t addr, unsigned size, SectorBuffer& out) {
  const std::uint64_t first = addr / kSector;
  const std::uint64_t last = (addr + size - 1) / kSector;
  out.reserve(static_cast<unsigned>(last - first + 1));
  for (std::uint64_t s = first; s <= last; ++s) {
    out.data[out.count++] = s;
  }
}

}  // namespace

double TrafficCounters::sectors_per_request() const {
  if (warp_requests == 0) {
    return 0.0;
  }
  return static_cast<double>(sectors_requested) /
         static_cast<double>(warp_requests);
}

TrafficCounters& TrafficCounters::operator+=(const TrafficCounters& o) {
  dram_read_bytes += o.dram_read_bytes;
  dram_write_bytes += o.dram_write_bytes;
  l2_read_sectors += o.l2_read_sectors;
  l2_write_sectors += o.l2_write_sectors;
  l2_read_hits += o.l2_read_hits;
  l2_write_hits += o.l2_write_hits;
  l2_atomic_ops += o.l2_atomic_ops;
  warp_requests += o.warp_requests;
  sectors_requested += o.sectors_requested;
  scalar_requests += o.scalar_requests;
  scalar_sectors += o.scalar_sectors;
  return *this;
}

void coalesce_warp_sectors(const Lanes<std::uint64_t>& addr, unsigned size,
                           LaneMask mask, SectorBuffer& out) {
  out.reserve(max_sectors_for(size, mask));
  std::uint64_t* data = out.data;
  unsigned n = 0;
  bool monotone = true;
  for (unsigned lane = 0; lane < kWarpSize; ++lane) {
    if (!lane_active(mask, lane)) {
      continue;
    }
    const std::uint64_t first = addr[lane] / kSector;
    const std::uint64_t last = (addr[lane] + size - 1) / kSector;
    for (std::uint64_t s = first; s <= last; ++s) {
      if (n != 0 && data[n - 1] == s) {
        continue;  // repeat of the previous sector: the dominant duplicate
      }
      if (monotone) {
        if (n == 0 || s > data[n - 1]) {
          data[n++] = s;
          continue;
        }
        monotone = false;  // stream went backwards: full dedup from here on
      }
      bool seen = false;
      for (unsigned i = 0; i < n; ++i) {
        if (data[i] == s) {
          seen = true;
          break;
        }
      }
      if (!seen) {
        data[n++] = s;
      }
    }
  }
  if (!monotone) {
    // Restore the canonical ascending probe order the sort-based coalescer
    // produced, so cache behaviour is bit-identical on non-monotone streams.
    std::sort(data, data + n);
  }
  out.count = n;
}

void coalesce_warp_sectors_reference(const Lanes<std::uint64_t>& addr,
                                     unsigned size, LaneMask mask,
                                     SectorBuffer& out) {
  out.reserve(max_sectors_for(size, mask));
  std::uint64_t* data = out.data;
  unsigned n = 0;
  for (unsigned lane = 0; lane < kWarpSize; ++lane) {
    if (!lane_active(mask, lane)) {
      continue;
    }
    const std::uint64_t first = addr[lane] / kSector;
    const std::uint64_t last = (addr[lane] + size - 1) / kSector;
    for (std::uint64_t s = first; s <= last; ++s) {
      data[n++] = s;
    }
  }
  std::sort(data, data + n);
  out.count = static_cast<unsigned>(std::unique(data, data + n) - data);
}

void coalesce_contiguous_sectors(std::uint64_t addr, unsigned size,
                                 LaneMask mask, SectorBuffer& out) {
  if (mask == 0) {
    out.reserve(0);
    return;
  }
  const unsigned first = static_cast<unsigned>(__builtin_ctz(mask));
  const LaneMask run = mask >> first;
  if ((run & (run + 1)) == 0) {  // one run of active lanes
    fill_span(addr + std::uint64_t{first} * size, popcount_mask(mask) * size,
              out);
    return;
  }
  coalesce_warp_sectors(contiguous_lanes(addr, size), size, mask, out);
}

void CacheModel::check_geometry(std::uint64_t capacity_bytes, unsigned ways) {
  PD_CHECK_MSG(ways > 0, "CacheModel: need at least one way");
  PD_CHECK_MSG(capacity_bytes >= std::uint64_t{kSector} * ways,
               "CacheModel: capacity too small");
  PD_CHECK_MSG(ways <= 0xffffu, "CacheModel: too many ways");
}

CacheModel::CacheModel(std::uint64_t capacity_bytes, unsigned ways)
    : capacity_bytes_(capacity_bytes), ways_(ways) {
  check_geometry(capacity_bytes_, ways_);
  sets_ = capacity_bytes_ / kSector / ways_;
  entries_ = std::make_unique_for_overwrite<std::uint64_t[]>(sets_ * ways_);
  state_.assign(sets_, SetState{});
}

bool CacheModel::access(std::uint64_t sector_index, bool write,
                        TrafficCounters& tc) {
  const std::size_t set = static_cast<std::size_t>(sector_index % sets_);
  SetState& state = state_[set];
  if (state.epoch != epoch_) {
    state.epoch = epoch_;
    state.count = 0;
  }
  std::uint64_t* entries = &entries_[set * ways_];
  const std::uint64_t key = sector_index << 1;
  const std::uint64_t dirty = write ? 1 : 0;

  if (write) {
    ++tc.l2_write_sectors;
  } else {
    ++tc.l2_read_sectors;
  }

  // Entries equal the key up to the dirty bit exactly when they xor to <= 1.
  unsigned pos = 0;
  while (pos < state.count && (entries[pos] ^ key) > 1) {
    ++pos;
  }
  const bool hit = pos < state.count;
  std::uint64_t front;
  if (hit) {
    front = entries[pos] | dirty;
    if (write) {
      ++tc.l2_write_hits;
    } else {
      ++tc.l2_read_hits;
    }
  } else {
    // Miss: fill from DRAM (write-allocate); a full set evicts its least
    // recently used entry, the last one.
    front = key | dirty;
    tc.dram_read_bytes += kSector;
    if (state.count == ways_) {
      pos = ways_ - 1;
      if ((entries[pos] & 1) != 0) {
        tc.dram_write_bytes += kSector;
      }
    } else {
      pos = state.count++;
    }
  }
  std::copy_backward(entries, entries + pos, entries + pos + 1);
  entries[0] = front;
  return hit;
}

void CacheModel::read_modify_write(std::uint64_t sector_index,
                                   TrafficCounters& tc) {
  // One write probe leaves the set as the read and write probes would: the
  // sector at the front, dirty, with the same victim evicted on a miss.  Add
  // the read's counts, and the write hit that follows a read miss.
  if (access(sector_index, /*write=*/true, tc)) {
    ++tc.l2_read_hits;
  } else {
    ++tc.l2_write_hits;
  }
  ++tc.l2_read_sectors;
}

bool CacheModel::access_reference(std::uint64_t sector_index, bool write,
                                  TrafficCounters& tc) {
  if (ref_lines_.empty()) {
    ref_lines_.assign(sets_ * ways_, Way{});
  }
  const std::size_t set = static_cast<std::size_t>(sector_index % sets_);
  Way* base = &ref_lines_[set * ways_];
  ++tick_;

  if (write) {
    ++tc.l2_write_sectors;
  } else {
    ++tc.l2_read_sectors;
  }

  for (unsigned w = 0; w < ways_; ++w) {
    Way& way = base[w];
    if (way.valid && way.tag == sector_index) {
      way.stamp = tick_;
      way.dirty = way.dirty || write;
      if (write) {
        ++tc.l2_write_hits;
      } else {
        ++tc.l2_read_hits;
      }
      return true;
    }
  }
  // Miss: fill from DRAM (write-allocate).  Prefer an invalid way; otherwise
  // evict the least-recently-used one.
  unsigned victim = ways_;
  for (unsigned w = 0; w < ways_; ++w) {
    if (!base[w].valid) {
      victim = w;
      break;
    }
  }
  if (victim == ways_) {
    victim = 0;
    for (unsigned w = 1; w < ways_; ++w) {
      if (base[w].stamp < base[victim].stamp) {
        victim = w;
      }
    }
  }
  Way& way = base[victim];
  if (way.valid && way.dirty) {
    tc.dram_write_bytes += kSector;
  }
  tc.dram_read_bytes += kSector;
  way.tag = sector_index;
  way.stamp = tick_;
  way.valid = true;
  way.dirty = write;
  return false;
}

void CacheModel::flush_dirty(TrafficCounters& tc) {
  for (std::size_t set = 0; set < sets_; ++set) {
    if (state_[set].epoch != epoch_) {
      continue;
    }
    std::uint64_t* entries = &entries_[set * ways_];
    for (unsigned i = 0; i < state_[set].count; ++i) {
      if ((entries[i] & 1) != 0) {
        tc.dram_write_bytes += kSector;
        entries[i] &= ~std::uint64_t{1};
      }
    }
  }
  for (Way& way : ref_lines_) {
    if (way.valid && way.dirty) {
      tc.dram_write_bytes += kSector;
      way.dirty = false;
    }
  }
}

void CacheModel::invalidate() {
  ++epoch_;
  std::fill(ref_lines_.begin(), ref_lines_.end(), Way{});
  tick_ = 0;
}

MemoryModel::MemoryModel(const DeviceSpec& spec)
    : l2_bytes_(spec.l2_bytes), l2_ways_(spec.l2_ways) {
  CacheModel::check_geometry(l2_bytes_, l2_ways_);
}

void MemoryModel::probe(const std::uint64_t* sectors, unsigned count,
                        bool write) {
  PD_ASSERT(cache_.has_value());  // begin_kernel() allocated it
  CacheModel& cache = *cache_;
  if (reference_path_) {
    for (unsigned i = 0; i < count; ++i) {
      cache.access_reference(sectors[i], write, counters_);
    }
  } else {
    for (unsigned i = 0; i < count; ++i) {
      cache.access(sectors[i], write, counters_);
    }
  }
}

void MemoryModel::issue_warp_request(bool write) {
  ++counters_.warp_requests;
  counters_.sectors_requested += scratch_.count;
  probe(scratch_.data, scratch_.count, write);
}

void MemoryModel::warp_access(const Lanes<std::uint64_t>& addr, unsigned size,
                              LaneMask mask, bool write) {
  if (mask == 0) {
    return;
  }
  if (reference_path_) {
    coalesce_warp_sectors_reference(addr, size, mask, scratch_);
  } else {
    coalesce_warp_sectors(addr, size, mask, scratch_);
  }
  issue_warp_request(write);
}

void MemoryModel::contiguous_access(std::uint64_t addr, unsigned size,
                                    LaneMask mask, bool write) {
  if (mask == 0) {
    return;
  }
  if (reference_path_) {
    // The oracle sees every lane, as the seed engine issued them.
    coalesce_warp_sectors_reference(contiguous_lanes(addr, size), size, mask,
                                    scratch_);
  } else {
    coalesce_contiguous_sectors(addr, size, mask, scratch_);
  }
  issue_warp_request(write);
}

void MemoryModel::scalar_access(std::uint64_t addr, unsigned size, bool write) {
  fill_span(addr, size, scratch_);
  ++counters_.scalar_requests;
  counters_.scalar_sectors += scratch_.count;
  probe(scratch_.data, scratch_.count, write);
}

void MemoryModel::atomic_access(std::uint64_t addr, unsigned size) {
  fill_span(addr, size, scratch_);
  ++counters_.l2_atomic_ops;
  // Atomics are read-modify-write at the L2: one read + one write request
  // per sector.
  for (unsigned i = 0; i < scratch_.count; ++i) {
    probe(scratch_.data + i, 1, /*write=*/false);
    probe(scratch_.data + i, 1, /*write=*/true);
  }
}

void MemoryModel::warp_atomic_access(const Lanes<std::uint64_t>& addr,
                                     unsigned size, LaneMask mask) {
  if (reference_path_) {
    // The oracle issues every lane on its own, as the seed engine did.
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
      if (lane_active(mask, lane)) {
        atomic_access(addr[lane], size);
      }
    }
    return;
  }
  PD_ASSERT(cache_.has_value());  // begin_kernel() allocated it
  CacheModel& cache = *cache_;
  counters_.l2_atomic_ops += popcount_mask(mask);
  // The sector read-modify-written last.  A repeat of it right away finds it
  // at the front of its set, already dirty: its read and write probes would
  // both hit and move nothing, so they are counted without a probe.  Any
  // other sector in between may have moved or evicted it, so only the
  // immediately preceding one folds.
  std::uint64_t last = ~std::uint64_t{0};
  std::uint64_t folded = 0;
  for (LaneMask m = mask; m != 0; m &= m - 1) {
    const auto lane = static_cast<unsigned>(__builtin_ctz(m));
    const std::uint64_t first = addr[lane] / kSector;
    const std::uint64_t end = (addr[lane] + size - 1) / kSector;
    for (std::uint64_t s = first; s <= end; ++s) {
      if (s == last) {
        ++folded;
      } else {
        cache.read_modify_write(s, counters_);
        last = s;
      }
    }
  }
  counters_.l2_read_sectors += folded;
  counters_.l2_read_hits += folded;
  counters_.l2_write_sectors += folded;
  counters_.l2_write_hits += folded;
}

void MemoryModel::begin_kernel() {
  if (!cache_) {
    cache_.emplace(l2_bytes_, l2_ways_);
  }
  counters_ = TrafficCounters{};
}

TrafficCounters MemoryModel::end_kernel() {
  if (cache_) {
    cache_->flush_dirty(counters_);
  }
  return counters_;
}

}  // namespace pd::gpusim
