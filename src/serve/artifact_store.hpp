#pragma once
/// @file artifact_store.hpp
/// @brief Content-addressed store of per-matrix solve artifacts — the
/// memory of the serving layer.
///
/// Every expensive thing the pipeline derives from a matrix — the tuned
/// MCMC preconditioner, the (alpha -> walk kernel) cache, the lazily built
/// SpmvPlan, the tuned (alpha, eps, delta) — is a pure function of the
/// matrix *content*, so the store keys entries by
/// CsrMatrix::content_fingerprint() (a full-content 64-bit hash over
/// shape, structure, and value bit patterns).  A 64-bit key can collide in
/// principle, so every lookup that lands on an entry verifies
/// CsrMatrix::same_content() before reporting a hit; a collision is
/// counted and treated as a miss, never served.
///
/// Entries are evicted LRU when either the entry count or the byte budget
/// is exceeded.  Eviction only unlinks the entry from the store's index —
/// requests still holding the entry's shared_ptr keep using it safely and
/// it is freed when the last holder drops it.
///
/// Thread safety: the store's index is guarded by one mutex; each entry
/// has its own mutex for its mutable artifact slots.  Lock order is
/// store -> entry (swap_in) and entries never call back into the store.

#include <chrono>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/status.hpp"
#include "core/types.hpp"
#include "mcmc/params.hpp"
#include "mcmc/walk_kernel.hpp"
#include "precond/sparse_precond.hpp"
#include "sparse/csr.hpp"

namespace mcmi {
class FaultInjector;  // solve/fault_injection.hpp; scripts byte pressure
}  // namespace mcmi

namespace mcmi::serve {

/// Monotonic counters of store traffic (a snapshot; see
/// ArtifactStore::stats()).
struct StoreStats {
  u64 hits = 0;        ///< lookups that found a verified entry
  u64 misses = 0;      ///< lookups that found nothing
  u64 collisions = 0;  ///< fingerprint matched but content differed
  u64 evictions = 0;   ///< entries unlinked by LRU/byte pressure
  u64 swaps = 0;       ///< tuned preconditioners atomically swapped in
  u64 pressure_evictions = 0;  ///< evictions forced by injected byte pressure
};

/// Lifecycle of the strong (MCMC) artifact of one entry.
///
/// The kRetryWait / kFailed split is the build circuit breaker: a
/// *transient* failure (deadline, cancellation, injected fault — see
/// is_transient_build_failure) opens the breaker into kRetryWait with an
/// exponentially growing cooldown, and once the cooldown expires exactly
/// one caller's try_begin_build() claims the half-open probe build
/// (kRetryWait -> kBuilding).  A *permanent* failure (divergent walk
/// kernel, zero pivot) — or exhausting the bounded attempt budget — lands
/// in kFailed, which nothing ever leaves.
enum class BuildState {
  kCold,       ///< no build attempted yet
  kBuilding,   ///< exactly one builder owns the in-flight build
  kTuned,      ///< tuned preconditioner swapped in; warm path available
  kRetryWait,  ///< transient failure; cooldown gates the next probe build
  kFailed,     ///< build retired permanently (e.g. divergent kernel)
};

/// Human-readable build state name ("cold", "building", ...).
const char* to_string(BuildState state);

/// One matrix's cached artifacts.  Created by ArtifactStore::intern() and
/// handed out by shared_ptr, so an entry outlives its own eviction for as
/// long as any request still holds it.
class ArtifactEntry {
 public:
  /// @param fingerprint the content fingerprint the entry is keyed by
  /// @param matrix pinned copy of the matrix (shares the lazily built
  ///   SpmvPlan with every other copy of the same underlying arrays)
  ArtifactEntry(u64 fingerprint, std::shared_ptr<const CsrMatrix> matrix);

  /// The content fingerprint this entry is keyed by.
  [[nodiscard]] u64 fingerprint() const { return fingerprint_; }
  /// The pinned matrix (never null).
  [[nodiscard]] const std::shared_ptr<const CsrMatrix>& matrix() const {
    return matrix_;
  }
  /// The per-entry (alpha -> walk kernel) cache shared by every request
  /// and build against this matrix.
  [[nodiscard]] const std::shared_ptr<WalkKernelCache>& kernels() const {
    return kernels_;
  }

  /// The pinned matrix bound to a sharded plan under `layout`, cached per
  /// layout fingerprint — the `(fingerprint, shard_layout)` key that lets
  /// warm serving survive a layout change: an artifact built under layout
  /// A serves under layout B from the same entry, each layout's plan built
  /// exactly once.  Concurrent callers for one layout coalesce onto a
  /// single build (the entry mutex is held across it; plan construction is
  /// O(nnz) and never calls back into the store).  The empty layout
  /// returns the pinned matrix itself.
  [[nodiscard]] std::shared_ptr<const CsrMatrix> matrix_for(
      const ShardLayout& layout);

  /// Layout-bound matrix builds performed so far (the coalescing tests'
  /// double-build detector).
  [[nodiscard]] u64 plan_builds() const;

  /// The tuned MCMC preconditioner, or null while cold/building/failed.
  [[nodiscard]] std::shared_ptr<const SparseApproximateInverse> tuned() const;
  /// The tuned (alpha, eps, delta); meaningful once state() == kTuned.
  [[nodiscard]] McmcParams tuned_params() const;
  /// Current build lifecycle state.
  [[nodiscard]] BuildState state() const;

  /// Claim the build slot: flips kCold -> kBuilding (or, once the cooldown
  /// has expired, kRetryWait -> kBuilding for the half-open probe) and
  /// returns true for exactly one caller; every other caller (and every
  /// other state) gets false.  This is both the coalescing primitive — K
  /// concurrent requests race here and exactly one schedules the MCMC
  /// build — and the circuit breaker's probe gate.
  [[nodiscard]] bool try_begin_build();

  /// Record a failed build (kBuilding -> kRetryWait | kFailed) with its
  /// cause.  A transient `cause` with attempts left opens the breaker:
  /// kRetryWait with cooldown `cooldown_seconds * 2^(failures-1)`.  A
  /// permanent cause — or the `max_attempts`-th failure — retires the
  /// entry for good (kFailed): requests keep being served by the fallback
  /// rungs and nobody retries.  The defaults reproduce the pre-breaker
  /// behaviour (any failure retires).
  void mark_build_failed(BuildStatus cause = BuildStatus::kDivergentKernel,
                         index_t max_attempts = 1,
                         real_t cooldown_seconds = 0.0);

  /// Cause of the most recent build failure (kBuilt while none happened).
  [[nodiscard]] BuildStatus failure_cause() const;
  /// Build attempts that have *failed* so far (probes included).
  [[nodiscard]] index_t build_failures() const;
  /// True when the entry is in kRetryWait and the cooldown has expired,
  /// i.e. the next try_begin_build() will claim the probe.
  [[nodiscard]] bool retry_ready() const;
  /// Seconds until the current cooldown expires (0 when not cooling down).
  [[nodiscard]] real_t cooldown_remaining_seconds() const;

  /// Approximate resident bytes (matrix arrays + tuned preconditioner
  /// arrays); the store's byte budget sums this over live entries.
  [[nodiscard]] std::size_t bytes() const;

 private:
  friend class ArtifactStore;  // swap_in writes the tuned slots

  static std::size_t matrix_bytes(const CsrMatrix& m);

  const u64 fingerprint_;
  const std::shared_ptr<const CsrMatrix> matrix_;
  const std::shared_ptr<WalkKernelCache> kernels_;

  using clock = std::chrono::steady_clock;

  mutable std::mutex mutex_;
  BuildState state_ = BuildState::kCold;
  std::shared_ptr<const SparseApproximateInverse> tuned_;
  McmcParams tuned_params_{};
  // Circuit-breaker bookkeeping (all guarded by mutex_).
  BuildStatus failure_cause_ = BuildStatus::kBuilt;
  index_t build_failures_ = 0;
  clock::time_point cooldown_until_{};
  /// layout fingerprint -> pinned matrix with that layout's sharded plan
  /// bound (guarded by mutex_).  The copies share the row/col/value
  /// arrays' content and the lazy single-plan cache with matrix_; only
  /// the execution policy differs.
  std::unordered_map<u64, std::shared_ptr<const CsrMatrix>> bound_matrices_;
  u64 plan_builds_ = 0;
};

/// Capacity budgets of the store; eviction triggers when either is
/// exceeded.
struct StoreLimits {
  std::size_t max_entries = 64;        ///< entry-count budget
  std::size_t max_bytes = 256u << 20;  ///< resident-byte budget
};

/// Content-addressed, LRU+byte-bounded store of ArtifactEntry objects.
class ArtifactStore {
 public:
  using Limits = StoreLimits;

  explicit ArtifactStore(Limits limits = {});

  /// Look up the entry for `a` by content fingerprint, verifying content
  /// on a hit.  Returns null on miss or collision (both counted).
  [[nodiscard]] std::shared_ptr<ArtifactEntry> find(const CsrMatrix& a);

  /// Keyed lookup used by collision tests and by callers that already
  /// computed the fingerprint: same semantics as find(a) but trusts the
  /// caller's `fingerprint` instead of rehashing.
  [[nodiscard]] std::shared_ptr<ArtifactEntry> find(u64 fingerprint,
                                                    const CsrMatrix& a);

  /// Find-or-create: returns the verified entry for `a`, inserting (and
  /// possibly evicting) if absent.  On a fingerprint collision the new
  /// entry is returned *detached* — fully usable by its requests but not
  /// inserted, so the resident entry is never displaced by an impostor.
  [[nodiscard]] std::shared_ptr<ArtifactEntry> intern(const CsrMatrix& a);

  /// Atomically publish the tuned preconditioner for `entry`
  /// (kBuilding -> kTuned), update the byte accounting, and evict if the
  /// new bytes exceed the budget.  Requests that observe tuned() != null
  /// from this point use it; in-flight solves are unaffected.
  /// @param entry the entry whose build completed
  /// @param tuned the preconditioner to publish (must not be null)
  /// @param params the tuned (alpha, eps, delta) that produced it
  void swap_in(const std::shared_ptr<ArtifactEntry>& entry,
               std::shared_ptr<const SparseApproximateInverse> tuned,
               McmcParams params);

  /// Attach a fault injector (not owned; may be null): its scripted
  /// store byte pressure is added to the accounted bytes whenever the
  /// budget is checked, so tests can force eviction storms without
  /// allocating.  Production stores never set this.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  /// Counter snapshot (consistent under the store mutex).
  [[nodiscard]] StoreStats stats() const;
  /// Live (inserted, non-evicted) entry count.
  [[nodiscard]] std::size_t size() const;
  /// Resident bytes across live entries.
  [[nodiscard]] std::size_t bytes() const;
  /// True when `fingerprint` is currently resident.
  [[nodiscard]] bool contains(u64 fingerprint) const;
  /// Resident fingerprints, most recently used first (for tests/ops).
  [[nodiscard]] std::vector<u64> lru_fingerprints() const;

 private:
  struct Slot {
    std::shared_ptr<ArtifactEntry> entry;
    std::list<u64>::iterator lru_pos;
    std::size_t bytes = 0;  ///< accounted bytes (updated on swap_in)
  };

  // All three require mutex_ held.
  void touch(Slot& slot);
  void evict_if_over_budget();
  std::shared_ptr<ArtifactEntry> lookup_verified(u64 fingerprint,
                                                 const CsrMatrix& a);

  const Limits limits_;
  FaultInjector* faults_ = nullptr;  ///< optional scripted byte pressure
  mutable std::mutex mutex_;
  std::unordered_map<u64, Slot> slots_;
  std::list<u64> lru_;  ///< front = most recently used
  std::size_t bytes_ = 0;
  StoreStats stats_;
};

}  // namespace mcmi::serve
