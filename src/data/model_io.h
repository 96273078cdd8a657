// Fitted-model artifact format ("KMLLMODL"): the persistence leg of the
// serving layer (see docs/ARCHITECTURE.md "Serving layer").
//
// A model artifact is everything an online server needs to answer
// nearest-center queries without recomputation: the k × d centers, their
// precomputed squared norms (the expanded kernel's center-side input,
// stored so a loaded model serves its first query with the exact bytes
// the trainer computed), and the training metadata worth auditing in
// production (init method, seed, iterations, costs, row count).
//
// Wire format (little-endian, version 2):
//   magic[8] "KMLLMODL" | i32 version | i64 k | i64 d | u32 flags
//   | u64 seed | i64 lloyd_iterations | i64 trained_rows
//   | f64 seed_cost | f64 final_cost | i32 len + init_method bytes
//   | f64 centers[k*d] | f64 center_norms[k] | u32 crc32
// The trailing CRC-32 (data/record_io.h) covers every byte before it, so
// any torn write, bit rot, or partial copy is detected at load time, not
// at query time. Version 1 (the pre-serving SaveCenters layout, no
// norms/metadata/CRC) is not readable; loads fail with a version error.
//
// Validation discipline matches KMLLDATA (data/binary_io.h): every load
// eagerly checks magic, version, shape plausibility, truncation, the
// CRC, coordinate finiteness, and that the stored norms are bitwise the
// RowSquaredNorms of the stored centers — a model that passes Load is
// servable as-is.
//
// Portability caveat of the bitwise norm check: the SquaredNorm chain's
// bits depend on the build's floating-point contraction (e.g.
// KMEANSLL_NATIVE_ARCH may fuse the accumulate). An artifact loads
// anywhere the loader's chain matches the producer's — any two default
// builds on the same ISA agree — but a producer and consumer compiled
// with different contraction must re-emit the artifact rather than
// share it. This is deliberate: the repo's determinism contract is
// bitwise, and a model whose stored norms disagree with what every
// local scan will recompute is not "the same model" under that
// contract. (Serving correctness never depends on the stored bytes —
// serving::CenterIndex adopts the loader-validated norms at build and
// re-asserts them bitwise against its own chain, so a mismatch aborts
// at Freeze rather than serving silently different distances.)

#ifndef KMEANSLL_DATA_MODEL_IO_H_
#define KMEANSLL_DATA_MODEL_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "matrix/matrix.h"

namespace kmeansll::data {

/// Training provenance stored alongside the centers. Free-form but
/// bounded: the init_method string is capped at 4 KiB on load.
struct ModelMetadata {
  std::string init_method;     ///< e.g. "k-means||" (InitMethodName)
  uint64_t seed = 0;           ///< root RNG seed of the training run
  int64_t lloyd_iterations = 0;
  int64_t trained_rows = 0;    ///< n of the training dataset
  double seed_cost = 0.0;      ///< φ after initialization
  double final_cost = 0.0;     ///< φ after refinement
};

/// A servable fitted model: centers + their squared norms + provenance.
struct ModelArtifact {
  Matrix centers;                    ///< k × d
  std::vector<double> center_norms;  ///< length k, RowSquaredNorms chain
  ModelMetadata metadata;
};

/// Builds an artifact from freshly trained centers: computes the norms
/// with the engine's RowSquaredNorms chain (so the saved bytes are the
/// ones every expanded-kernel scan expects).
ModelArtifact MakeModelArtifact(Matrix centers, ModelMetadata metadata);

/// Writes `artifact` at `path`. The artifact must be consistent
/// (norms length == centers.rows()); Save fails on shape mismatch or I/O
/// error and never leaves a file that passes LoadModel validation partial.
/// Transient write failures are retried; `*out_retries` (optional)
/// accumulates how many retries the save burned, feeding the
/// write-retry telemetry counters (KMeansReport::model_write_retries).
Status SaveModel(const ModelArtifact& artifact, const std::string& path,
                 int64_t* out_retries = nullptr);

/// Reads a model saved by SaveModel. Fails eagerly on bad magic,
/// unsupported version, implausible or inconsistent shape, truncation,
/// CRC mismatch, non-finite coordinates, or stored norms that are not
/// bitwise the norms of the stored centers.
Result<ModelArtifact> LoadModel(const std::string& path);

}  // namespace kmeansll::data

#endif  // KMEANSLL_DATA_MODEL_IO_H_
