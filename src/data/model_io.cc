#include "data/model_io.h"

#include <cmath>
#include <cstring>

#include "common/metrics.h"
#include "data/record_io.h"
#include "distance/l2.h"

namespace kmeansll::data {

namespace {

constexpr char kModelMagic[8] = {'K', 'M', 'L', 'L', 'M', 'O', 'D', 'L'};
constexpr int32_t kModelVersion = 2;
constexpr int32_t kMaxInitMethodBytes = 4096;

}  // namespace

ModelArtifact MakeModelArtifact(Matrix centers, ModelMetadata metadata) {
  ModelArtifact artifact;
  artifact.center_norms.resize(static_cast<size_t>(centers.rows()));
  for (int64_t c = 0; c < centers.rows(); ++c) {
    // SquaredNorm is the chain RowSquaredNorms uses, so the stored norms
    // are bitwise the ones every expanded-kernel consumer recomputes.
    artifact.center_norms[static_cast<size_t>(c)] =
        SquaredNorm(centers.Row(c), centers.cols());
  }
  artifact.centers = std::move(centers);
  artifact.metadata = std::move(metadata);
  return artifact;
}

Status SaveModel(const ModelArtifact& artifact, const std::string& path,
                 int64_t* out_retries) {
  const int64_t k = artifact.centers.rows();
  const int64_t d = artifact.centers.cols();
  if (k <= 0 || d <= 0) {
    return Status::InvalidArgument("model has no centers");
  }
  if (static_cast<int64_t>(artifact.center_norms.size()) != k) {
    return Status::InvalidArgument(
        "center_norms length " +
        std::to_string(artifact.center_norms.size()) +
        " does not match k=" + std::to_string(k));
  }
  const ModelMetadata& md = artifact.metadata;
  if (static_cast<int64_t>(md.init_method.size()) > kMaxInitMethodBytes) {
    return Status::InvalidArgument("init_method string too long");
  }

  // Serialize into memory first: the CRC covers every preceding byte, and
  // a single write keeps a failed save from leaving a file with a valid
  // header but missing payload.
  RecordWriter out;
  out.Reserve(static_cast<size_t>(128 + md.init_method.size() +
                                  (k * d + k) * 8));
  out.PutBytes(kModelMagic, sizeof(kModelMagic));
  out.Put(kModelVersion);
  out.Put(k);
  out.Put(d);
  out.Put<uint32_t>(0);  // flags, reserved
  out.Put(md.seed);
  out.Put(md.lloyd_iterations);
  out.Put(md.trained_rows);
  out.Put(md.seed_cost);
  out.Put(md.final_cost);
  out.PutString(md.init_method);
  out.PutArray(artifact.centers.data(), k * d);
  out.PutArray(artifact.center_norms.data(), k);
  out.PutCrc();

  // Crash-safe publish: the complete buffer lands under a temp name, is
  // fsynced, and is renamed over `path` — a crash at any point leaves
  // either the previous model or the new one, never a torn file.
  // Transient write failures (injected or real) are retried in place.
  int64_t retries = 0;
  Status written = PublishFile(path, out.bytes(), "model.write", &retries);
  if (out_retries != nullptr) *out_retries += retries;
  MetricsRegistry::Global()
      .GetCounter("kmll_model_write_retries_total",
                  "Transient model-artifact write failures retried.")
      ->Increment(retries);
  return written;
}

Result<ModelArtifact> LoadModel(const std::string& path) {
  KMEANSLL_ASSIGN_OR_RETURN(std::string bytes, ReadWholeFile(path));
  RecordReader in(bytes, path);
  KMEANSLL_RETURN_NOT_OK(in.ExpectMagic(kModelMagic, "model file"));
  int32_t version = 0;
  KMEANSLL_RETURN_NOT_OK(in.Read(&version));
  if (version != kModelVersion) {
    return Status::InvalidArgument(
        "unsupported model version " + std::to_string(version) + " in '" +
        path + "' (expected " + std::to_string(kModelVersion) + ")");
  }
  int64_t k = 0, d = 0;
  uint32_t flags = 0;
  KMEANSLL_RETURN_NOT_OK(in.Read(&k));
  KMEANSLL_RETURN_NOT_OK(in.Read(&d));
  KMEANSLL_RETURN_NOT_OK(in.Read(&flags));
  if (k <= 0 || d <= 0 || k > (int64_t{1} << 32) ||
      d > (int64_t{1} << 24)) {
    return Status::InvalidArgument("implausible model shape in '" + path +
                                   "'");
  }
  if (flags != 0) {
    return Status::InvalidArgument("unknown model flags in '" + path + "'");
  }
  ModelArtifact artifact;
  ModelMetadata& md = artifact.metadata;
  KMEANSLL_RETURN_NOT_OK(in.Read(&md.seed));
  KMEANSLL_RETURN_NOT_OK(in.Read(&md.lloyd_iterations));
  KMEANSLL_RETURN_NOT_OK(in.Read(&md.trained_rows));
  KMEANSLL_RETURN_NOT_OK(in.Read(&md.seed_cost));
  KMEANSLL_RETURN_NOT_OK(in.Read(&md.final_cost));
  KMEANSLL_RETURN_NOT_OK(in.ReadString(kMaxInitMethodBytes, &md.init_method));
  KMEANSLL_RETURN_NOT_OK(in.ReadMatrix(k, d, &artifact.centers));
  KMEANSLL_RETURN_NOT_OK(in.ReadArray(k, &artifact.center_norms));
  KMEANSLL_RETURN_NOT_OK(in.ReadCrc("model", "model.read"));
  KMEANSLL_RETURN_NOT_OK(in.ExpectEnd("model"));

  // Semantic validation: a CRC-clean file can still have been written by
  // a buggy producer. A served model must be finite and self-consistent.
  for (int64_t c = 0; c < k; ++c) {
    const double* row = artifact.centers.Row(c);
    for (int64_t t = 0; t < d; ++t) {
      if (!std::isfinite(row[t])) {
        return Status::InvalidArgument(
            "non-finite coordinate in center " + std::to_string(c) +
            " of '" + path + "'");
      }
    }
    const double expected_norm = SquaredNorm(row, d);
    if (std::memcmp(&expected_norm,
                    &artifact.center_norms[static_cast<size_t>(c)],
                    sizeof(double)) != 0) {
      return Status::InvalidArgument(
          "stored norm of center " + std::to_string(c) + " in '" + path +
          "' does not match its coordinates");
    }
  }
  return artifact;
}

}  // namespace kmeansll::data
