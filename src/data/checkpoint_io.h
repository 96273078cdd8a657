// Training-checkpoint artifact format ("KMLLCKPT"): the crash-recovery
// leg of the fault-tolerance layer (docs/ARCHITECTURE.md "Fault
// tolerance").
//
// A checkpoint captures everything a deterministic trainer needs to
// continue a run bitwise-identically after a crash. Because every source
// of randomness in the library is a pure function of the root seed (see
// rng/rng.h), no generator state needs to be persisted — the fingerprint
// binds the artifact to the exact job (data shape, k, seed-derived
// identity, option bits) and the payload carries only the accumulated
// numeric state:
//   * Lloyd refinement: the centers entering and leaving the
//     checkpointed iteration (the resumer recomputes the previous
//     assignment from the entering set — one data pass — instead of
//     storing O(n) assignment state), the iteration count, repairs, and
//     the cost history.
//   * k-means|| seeding: the candidate set after the checkpointed round
//     plus the per-round potentials (round_potentials[0] = ψ re-derives
//     the round schedule); the distance tracker is rebuilt by replaying
//     all candidates, which is bitwise the incremental update sequence.
//
// Wire format (little-endian, version 1):
//   magic[8] "KMLLCKPT" | i32 version | i32 phase | u64 fingerprint
//   | i64 iteration | i64 empty_cluster_repairs | i64 data_passes
//   | i64 k | i64 d | i64 prev_k | i64 history_len
//   | f64 centers[k*d] | f64 prev_centers[prev_k*d]
//   | f64 cost_history[history_len] | u32 crc32
// The trailing CRC-32 is data/record_io.h's Crc32 over every preceding
// byte. Saves go through AtomicWriteFile (temp + fsync + rename), so a
// crash mid-save leaves the previous checkpoint intact; loads validate
// magic, version, shape, truncation, surplus bytes, and the CRC. A
// checkpoint that fails validation — or whose fingerprint does not match
// the job — is *ignored* (the run restarts from scratch), never trusted.

#ifndef KMEANSLL_DATA_CHECKPOINT_IO_H_
#define KMEANSLL_DATA_CHECKPOINT_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "matrix/matrix.h"

namespace kmeansll::data {

/// Resumable training state: one of these is the whole artifact.
struct TrainingCheckpoint {
  /// Which trainer wrote the artifact; a Lloyd resume never consumes a
  /// seeding checkpoint (and vice versa) even at the same path.
  enum class Phase : int32_t { kSeeding = 0, kLloyd = 1 };
  Phase phase = Phase::kLloyd;

  /// Job identity: a hash of everything that determines the run's
  /// trajectory (data shape, k, initial centers or root seed, option
  /// bits). Computed by the trainer; a mismatch makes the checkpoint
  /// stale and the loader's caller must discard it.
  uint64_t fingerprint = 0;

  /// Lloyd iterations completed / seeding rounds completed.
  int64_t iteration = 0;

  /// Lloyd: centers *after* the checkpointed iteration.
  /// Seeding: the candidate set after the checkpointed round.
  Matrix centers;

  /// Lloyd only: centers *entering* the checkpointed iteration — the
  /// resumer recomputes the previous assignment (and previous cost)
  /// against these, restoring the convergence tests bitwise. Empty for
  /// seeding checkpoints.
  Matrix prev_centers;

  /// Lloyd: cost_history (empty unless track_history).
  /// Seeding: round_potentials, so [0] is ψ.
  std::vector<double> cost_history;

  int64_t empty_cluster_repairs = 0;  ///< Lloyd only
  int64_t data_passes = 0;            ///< seeding telemetry only
};

/// Atomically persists `checkpoint` at `path` (temp + fsync + rename,
/// transient failures retried). Fault-injection site: "checkpoint.write".
/// `*out_retries` (optional) accumulates the retries burned, feeding the
/// trainers' checkpoint_write_retries telemetry.
Status SaveCheckpoint(const TrainingCheckpoint& checkpoint,
                      const std::string& path,
                      int64_t* out_retries = nullptr);

/// Reads a checkpoint saved by SaveCheckpoint. Fails on bad magic,
/// version, implausible shape, truncation, surplus bytes, or CRC
/// mismatch. Callers must additionally check phase and fingerprint
/// before resuming from the result.
Result<TrainingCheckpoint> LoadCheckpoint(const std::string& path);

/// FNV-1a 64 over raw bytes — the building block trainers use (with
/// rng::HashCombine) to derive checkpoint fingerprints from matrices and
/// option values.
uint64_t HashBytes(const void* bytes, size_t size);

}  // namespace kmeansll::data

#endif  // KMEANSLL_DATA_CHECKPOINT_IO_H_
