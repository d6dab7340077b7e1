#pragma once
// simcheck — a compute-sanitizer-style correctness analyzer for gpusim
// kernels.
//
// Real CUDA development leans on `compute-sanitizer` to catch the hazards
// that silently corrupt results: out-of-bounds accesses (memcheck),
// shared-memory races across missing barriers (racecheck), divergent barrier
// participation (synccheck) and reads of never-written memory (initcheck).
// The simulator executes the same SIMT model, so it can host the equivalent
// analyses natively — plus one the hardware tool cannot offer: a
// *determinism lint* that flags floating-point accumulation through
// unordered atomics, the exact hazard class the paper's §II-D
// reproducibility contract forbids.
//
// The layer is strictly opt-in (Gpu::enable_check).  When disabled, the only
// cost on any memory path is one null-pointer test per warp instruction, and
// the simulation output — dose bits, traffic counters, cache state — is
// bitwise identical to an uninstrumented build (asserted by
// tests/test_engine_equivalence.cpp).
//
// Shadow-state model (docs/simcheck.md has the full write-up):
//  * global memory — launchers register the launch's device-visible buffers
//    (base, size, label, initialized?).  Every lane access is checked for
//    containment; buffers registered as outputs carry a per-byte
//    written-shadow that initcheck consults on reads.  An empty registration
//    table disables memcheck/initcheck for the launch (no information).
//  * shared memory — each BlockCtx arena carries a per-byte shadow record
//    {barrier epoch, writer warp, reader warps, written-ever}.  The barrier
//    epoch is (phase index, per-warp sync count); two accesses to one byte
//    race iff they happen in the same epoch from different warps with at
//    least one write.
//  * barriers — for_each_warp phases open/close a participation frame;
//    warps of one block must report the same sync() count per phase, and a
//    sync() issued with a partial lane mask is divergent by definition.

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "gpusim/lanes.hpp"

namespace pd::gpusim {

/// The violation taxonomy, mirroring compute-sanitizer's tool names.
enum class ViolationKind : std::uint8_t {
  kGlobalOutOfBounds,      ///< memcheck: global access outside tracked buffers.
  kSharedOutOfBounds,      ///< memcheck: shared access outside block arenas.
  kSharedRace,             ///< racecheck: same-epoch W/W or R/W hazard.
  kBarrierDivergence,      ///< synccheck: unequal barrier participation.
  kUninitRead,             ///< initcheck: read of never-written memory.
  kNonDeterministicAtomic, ///< determinism-lint: unordered FP accumulation.
};

const char* violation_kind_name(ViolationKind kind);

/// One structured finding: what happened, where in the grid, and on which
/// buffer.  `detail` is a human-readable sentence for reports.
struct Violation {
  ViolationKind kind = ViolationKind::kGlobalOutOfBounds;
  std::uint64_t block = 0;
  unsigned warp = 0;       ///< warp index within the block
  unsigned lane = 0;
  std::uint64_t address = 0;
  std::string buffer;      ///< label of the tracked buffer, if resolvable
  std::string detail;
};

/// Which analyses run.  All default on; callers can narrow the scope (e.g.
/// racecheck-only) exactly like compute-sanitizer's --tool flag.
struct CheckConfig {
  bool memcheck = true;
  bool racecheck = true;
  bool synccheck = true;
  bool initcheck = true;
  bool determinism_lint = true;
  /// Recording cap; further findings only bump `CheckReport::suppressed`.
  std::size_t max_violations = 256;

  static CheckConfig all() { return CheckConfig{}; }
};

/// Accumulated findings across every checked launch of the context.
struct CheckReport {
  std::vector<Violation> violations;
  std::uint64_t suppressed = 0;        ///< findings past max_violations
  std::uint64_t launches_checked = 0;

  bool clean() const { return violations.empty() && suppressed == 0; }
  std::uint64_t count(ViolationKind kind) const;
  /// Multi-line human-readable summary (the CLI's --check output).
  std::string summary() const;
};

/// The shadow-state owner.  One per Gpu; hooks are called from WarpCtx /
/// BlockCtx / the launch loop only when checking is enabled, so none of this
/// is on the disabled path.  Checked launches run on the calling thread (the
/// shadow state is not thread-safe, and serial execution keeps findings
/// deterministic); counters are unaffected because they are
/// parallelism-invariant.
class CheckContext {
 public:
  explicit CheckContext(CheckConfig config) : config_(config) {}

  // --- host-side buffer registration (kernel launchers) --------------------

  /// Forget all tracked global buffers and their written-shadows.  Launchers
  /// call this before registering their launch's buffer set.
  void clear_tracking();

  /// Register a device-visible buffer.  `initialized` buffers (inputs) pass
  /// initcheck unconditionally; outputs start with a fully-unwritten shadow.
  void track_global(const void* ptr, std::size_t bytes, std::string label,
                    bool initialized);

  // --- launch lifecycle (Gpu::launch) --------------------------------------

  void begin_launch(std::uint64_t num_blocks, unsigned warps_per_block);
  void end_launch();

  // --- warp-level hooks (WarpCtx) ------------------------------------------

  /// One lane touching global bytes [address, address + size).
  void global_access(std::uint64_t address, unsigned size, bool write,
                     std::uint64_t block, unsigned warp, unsigned lane);

  /// One lane touching shared bytes [address, address + size).
  void shared_access(std::uint64_t address, unsigned size, bool write,
                     std::uint64_t block, unsigned warp, unsigned lane);

  /// A floating-point atomicAdd issued by `warp`; flagged when the launch
  /// has more than one warp (the accumulation order then depends on the
  /// block schedule — the §II-D hazard).  Deduplicated per launch.
  void fp_atomic(std::uint64_t address, std::uint64_t block, unsigned warp);

  /// A __syncthreads() participation mark; `mask` is the active lane mask
  /// (anything narrower than the full warp is divergent by definition).
  void sync_mark(std::uint64_t block, unsigned warp, LaneMask mask);

  // --- block-scope hooks (BlockCtx) ----------------------------------------

  /// A shared_alloc arena of `block` (registered at allocation).
  void shared_arena(std::uint64_t block, const void* base, std::size_t bytes);

  /// for_each_warp phase bracket: begin opens a barrier-participation frame,
  /// end verifies equal sync() counts and advances the barrier epoch.
  void phase_begin(std::uint64_t block, unsigned warps);
  void phase_end(std::uint64_t block);

  const CheckConfig& config() const { return config_; }
  const CheckReport& report() const { return report_; }
  void clear_report() { report_ = CheckReport{}; }

 private:
  struct TrackedBuffer {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::string label;
    bool initialized = false;
    std::vector<bool> written;  ///< per byte; empty when initialized
  };

  /// Per-byte shared shadow: the last access record within one barrier
  /// epoch.  Keeping one record per byte makes the model a last-access
  /// approximation (see docs/simcheck.md for the limitation discussion).
  struct ByteShadow {
    std::uint32_t phase = kNoEpoch;
    std::uint32_t seg = 0;
    std::int32_t writer = kNoWarp;
    std::int32_t reader = kNoWarp;
    bool multi_reader = false;
    bool written_ever = false;
  };
  struct SharedArena {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::vector<ByteShadow> bytes;
  };
  struct BlockState {
    std::vector<SharedArena> arenas;
    std::uint32_t phase = 0;
    bool phase_open = false;
    std::vector<std::uint32_t> sync_counts;  ///< per warp, current phase
  };

  static constexpr std::uint32_t kNoEpoch = 0xffffffffu;
  static constexpr std::int32_t kNoWarp = -1;

  void record(Violation v);
  TrackedBuffer* find_buffer(std::uint64_t address);
  SharedArena* find_arena(BlockState& state, std::uint64_t address);

  CheckConfig config_;
  CheckReport report_;
  std::vector<TrackedBuffer> buffers_;  ///< sorted by begin
  std::unordered_map<std::uint64_t, BlockState> blocks_;
  std::uint64_t launch_total_warps_ = 0;
  bool fp_atomic_flagged_ = false;  ///< per-launch dedup for the lint
};

/// True when the PROTONDOSE_SIMCHECK environment variable requests checking
/// (values "1", "true", "on", "yes"); DoseEngine and the benches honor it.
bool simcheck_env_enabled();

}  // namespace pd::gpusim
