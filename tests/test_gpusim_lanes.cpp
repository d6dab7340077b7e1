// Tests for warp-level primitives: masks, lane registers, the deterministic
// tree reduction, and the segmented scan (unsigned running sums and
// floating-point networks alike held to the network's bits).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "common/rng.hpp"
#include "gpusim/lanes.hpp"

namespace pd::gpusim {
namespace {

TEST(LaneMaskOps, FirstLanes) {
  EXPECT_EQ(first_lanes(0), 0u);
  EXPECT_EQ(first_lanes(1), 1u);
  EXPECT_EQ(first_lanes(4), 0xfu);
  EXPECT_EQ(first_lanes(32), kFullMask);
}

TEST(LaneMaskOps, LaneActiveAndPopcount) {
  const LaneMask m = 0b1010;
  EXPECT_FALSE(lane_active(m, 0));
  EXPECT_TRUE(lane_active(m, 1));
  EXPECT_TRUE(lane_active(m, 3));
  EXPECT_EQ(popcount_mask(m), 2u);
  EXPECT_EQ(popcount_mask(kFullMask), 32u);
}

TEST(Lanes, BroadcastAndLaneId) {
  const auto b = Lanes<double>::broadcast(3.5);
  for (unsigned i = 0; i < kWarpSize; ++i) {
    EXPECT_EQ(b[i], 3.5);
  }
  const auto ids = Lanes<double>::lane_id();
  for (unsigned i = 0; i < kWarpSize; ++i) {
    EXPECT_EQ(ids[i], i);
  }
}

TEST(Lanes, LaneMapRespectsMask) {
  Lanes<int> x;
  for (unsigned i = 0; i < kWarpSize; ++i) x[i] = static_cast<int>(i);
  const auto doubled =
      lane_map<int>(x, first_lanes(4), [](int v) { return 2 * v; }, -1);
  EXPECT_EQ(doubled[0], 0);
  EXPECT_EQ(doubled[3], 6);
  EXPECT_EQ(doubled[4], -1);  // inactive keeps fill
}

TEST(WarpReduce, SumsAllLanes) {
  Lanes<double> x;
  for (unsigned i = 0; i < kWarpSize; ++i) x[i] = static_cast<double>(i + 1);
  EXPECT_DOUBLE_EQ(warp_reduce_add(x), 32.0 * 33.0 / 2.0);
}

TEST(WarpReduce, MaskedLanesContributeIdentity) {
  Lanes<double> x = Lanes<double>::broadcast(5.0);
  EXPECT_DOUBLE_EQ(warp_reduce_add(x, first_lanes(3)), 15.0);
  EXPECT_DOUBLE_EQ(warp_reduce_add(x, 0u), 0.0);
}

TEST(WarpReduce, FixedTreeOrderIsDeterministic) {
  // The reduction order is fixed, so re-running with the same lanes must be
  // bit-identical — and it must equal an explicit 16/8/4/2/1 butterfly.
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    Lanes<double> x;
    for (unsigned i = 0; i < kWarpSize; ++i) x[i] = rng.uniform(-1.0, 1.0);
    const double a = warp_reduce_add(x);
    const double b = warp_reduce_add(x);
    EXPECT_EQ(a, b);

    double manual[kWarpSize];
    for (unsigned i = 0; i < kWarpSize; ++i) manual[i] = x[i];
    for (unsigned o = 16; o > 0; o /= 2) {
      for (unsigned i = 0; i < o; ++i) manual[i] += manual[i + o];
    }
    EXPECT_EQ(a, manual[0]);
  }
}

TEST(WarpReduce, TreeOrderDiffersFromSequentialInGeneral) {
  // Sanity that the bitwise tests downstream are meaningful: tree order and
  // sequential order genuinely disagree in the last ulp for some input.
  Rng rng(17);
  bool found_difference = false;
  for (int trial = 0; trial < 100 && !found_difference; ++trial) {
    Lanes<double> x;
    double seq = 0.0;
    for (unsigned i = 0; i < kWarpSize; ++i) {
      x[i] = rng.uniform(0.0, 1.0);
      seq += x[i];
    }
    found_difference = (warp_reduce_add(x) != seq);
  }
  EXPECT_TRUE(found_difference);
}

TEST(SegmentedScan, SingleSegmentIsInclusiveScan) {
  Lanes<float> x;
  for (unsigned i = 0; i < kWarpSize; ++i) x[i] = 1.0f;
  const auto incl = warp_segmented_inclusive_sum(x, /*head_flags=*/1u);
  for (unsigned i = 0; i < kWarpSize; ++i) {
    EXPECT_FLOAT_EQ(incl[i], static_cast<float>(i + 1));
  }
}

TEST(SegmentedScan, SegmentsResetAtHeads) {
  Lanes<float> x = Lanes<float>::broadcast(1.0f);
  // Heads at lanes 0, 4, 10 -> per-segment running counts.
  const LaneMask heads = (1u << 0) | (1u << 4) | (1u << 10);
  const auto incl = warp_segmented_inclusive_sum(x, heads);
  EXPECT_FLOAT_EQ(incl[3], 4.0f);
  EXPECT_FLOAT_EQ(incl[4], 1.0f);   // new segment
  EXPECT_FLOAT_EQ(incl[9], 6.0f);
  EXPECT_FLOAT_EQ(incl[10], 1.0f);  // new segment
  EXPECT_FLOAT_EQ(incl[31], 22.0f);
}

TEST(SegmentedScan, MatchesSerialReference) {
  Rng rng(23);
  for (int trial = 0; trial < 100; ++trial) {
    Lanes<double> x;
    LaneMask heads = 1u;
    for (unsigned i = 0; i < kWarpSize; ++i) {
      x[i] = rng.uniform(-2.0, 2.0);
      if (i > 0 && rng.uniform() < 0.2) {
        heads |= (1u << i);
      }
    }
    const auto incl = warp_segmented_inclusive_sum(x, heads);
    // Serial reference (same left-to-right accumulation within segments is
    // not guaranteed bitwise by the Hillis-Steele network, so compare with a
    // tolerance).
    double running = 0.0;
    for (unsigned i = 0; i < kWarpSize; ++i) {
      if (lane_active(heads, i)) running = 0.0;
      running += x[i];
      EXPECT_NEAR(incl[i], running, 1e-12);
    }
  }
}

TEST(SegmentedScan, InactiveLanesContributeZero) {
  Lanes<double> x = Lanes<double>::broadcast(7.0);
  const auto incl = warp_segmented_inclusive_sum(x, 1u, first_lanes(2));
  EXPECT_DOUBLE_EQ(incl[1], 14.0);
  EXPECT_DOUBLE_EQ(incl[31], 14.0);  // inactive lanes appended nothing
}

/// The segmented Hillis–Steele network, written out here so the library's
/// scan is held to its bits whichever way the library computes them.
template <typename T>
Lanes<T> network_scan(const Lanes<T>& x, LaneMask heads, LaneMask active) {
  Lanes<T> out;
  unsigned seg[kWarpSize];
  unsigned current = 0;
  for (unsigned i = 0; i < kWarpSize; ++i) {
    out[i] = lane_active(active, i) ? x[i] : T{};
    if (lane_active(heads, i)) current = i;
    seg[i] = current;
  }
  for (unsigned d = 1; d < kWarpSize; d *= 2) {
    const Lanes<T> prev = out;
    for (unsigned i = d; i < kWarpSize; ++i) {
      if (seg[i] <= i - d) out[i] = prev[i - d] + prev[i];
    }
  }
  return out;
}

/// Random head flags: segments of a few lanes.
LaneMask random_heads(Rng& rng) {
  LaneMask heads = 0;
  for (unsigned i = 0; i < kWarpSize; ++i) {
    if (rng.uniform_index(4) == 0) heads |= LaneMask{1} << i;
  }
  return heads;
}

/// A random active mask: full, the first n lanes (n = 0 included) or holed.
LaneMask random_active(Rng& rng) {
  switch (rng.uniform_index(4)) {
    case 0:
      return kFullMask;
    case 1:
      return first_lanes(static_cast<unsigned>(rng.uniform_index(kWarpSize + 1)));
    default:
      return static_cast<LaneMask>(rng.next_u64());
  }
}

template <typename T>
void expect_running_sum_matches_network(std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "bytes=" << sizeof(T));
  Rng rng(seed);
  const T top = std::numeric_limits<T>::max();
  unsigned wrapped = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    Lanes<T> x;
    for (unsigned i = 0; i < kWarpSize; ++i) {
      // Mostly values near the maximum, so that sums wrap around.
      x[i] = rng.uniform_index(4) == 0 ? static_cast<T>(rng.uniform_index(100))
                                       : static_cast<T>(top - rng.uniform_index(100));
    }
    const LaneMask heads = random_heads(rng);
    const LaneMask active = random_active(rng);
    const Lanes<T> scan = warp_segmented_inclusive_sum(x, heads, active);
    const Lanes<T> net = network_scan(x, heads, active);
    for (unsigned i = 0; i < kWarpSize; ++i) {
      ASSERT_EQ(scan[i], net[i]) << "trial " << trial << " lane " << i;
      if (i > 0 && !lane_active(heads, i) && lane_active(active, i) &&
          scan[i] < x[i]) {
        ++wrapped;
      }
    }
  }
  EXPECT_GT(wrapped, 0u);  // the sums did wrap
}

TEST(SegmentedScan, UnsignedRunningSumMatchesNetwork) {
  expect_running_sum_matches_network<std::uint16_t>(31);
  expect_running_sum_matches_network<std::uint32_t>(32);
  expect_running_sum_matches_network<std::uint64_t>(33);
}

TEST(SegmentedScan, DoubleLanesKeepTheNetworkBits) {
  // Floating-point lanes must take the network: a running sum rounds
  // differently for some inputs, which the second check makes sure of.
  Rng rng(34);
  bool running_sum_differs = false;
  for (int trial = 0; trial < 500; ++trial) {
    Lanes<double> x;
    for (unsigned i = 0; i < kWarpSize; ++i) x[i] = rng.uniform(-1.0, 1.0);
    // A head-free first quarter: long sums round in more ways.
    const LaneMask heads = random_heads(rng) & ~LaneMask{0xff};
    const LaneMask active = random_active(rng);
    const Lanes<double> scan = warp_segmented_inclusive_sum(x, heads, active);
    const Lanes<double> net = network_scan(x, heads, active);
    double running = 0.0;
    for (unsigned i = 0; i < kWarpSize; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(scan[i]),
                std::bit_cast<std::uint64_t>(net[i]))
          << "trial " << trial << " lane " << i;
      const double xi = lane_active(active, i) ? x[i] : 0.0;
      running = (i == 0 || lane_active(heads, i)) ? xi : running + xi;
      running_sum_differs = running_sum_differs || running != net[i];
    }
  }
  EXPECT_TRUE(running_sum_differs);
}

}  // namespace
}  // namespace pd::gpusim
