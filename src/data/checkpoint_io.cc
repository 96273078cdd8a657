#include "data/checkpoint_io.h"

#include "common/metrics.h"
#include "data/record_io.h"

namespace kmeansll::data {

namespace {

constexpr char kCheckpointMagic[8] = {'K', 'M', 'L', 'L', 'C', 'K',
                                      'P', 'T'};
constexpr int32_t kCheckpointVersion = 1;
constexpr int64_t kMaxHistoryLen = int64_t{1} << 24;

}  // namespace

uint64_t HashBytes(const void* bytes, size_t size) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

Status SaveCheckpoint(const TrainingCheckpoint& checkpoint,
                      const std::string& path, int64_t* out_retries) {
  const int64_t k = checkpoint.centers.rows();
  const int64_t d = checkpoint.centers.cols();
  const int64_t prev_k = checkpoint.prev_centers.rows();
  if (k <= 0 || d <= 0) {
    return Status::InvalidArgument("checkpoint has no centers");
  }
  if (prev_k > 0 && checkpoint.prev_centers.cols() != d) {
    return Status::InvalidArgument(
        "checkpoint prev_centers dimension mismatch");
  }
  const auto history_len =
      static_cast<int64_t>(checkpoint.cost_history.size());

  RecordWriter out;
  out.Reserve(
      static_cast<size_t>(128 + ((k + prev_k) * d + history_len) * 8));
  out.PutBytes(kCheckpointMagic, sizeof(kCheckpointMagic));
  out.Put(kCheckpointVersion);
  out.Put(static_cast<int32_t>(checkpoint.phase));
  out.Put(checkpoint.fingerprint);
  out.Put(checkpoint.iteration);
  out.Put(checkpoint.empty_cluster_repairs);
  out.Put(checkpoint.data_passes);
  out.Put(k);
  out.Put(d);
  out.Put(prev_k);
  out.Put(history_len);
  out.PutArray(checkpoint.centers.data(), k * d);
  out.PutArray(checkpoint.prev_centers.data(), prev_k * d);
  out.PutArray(checkpoint.cost_history.data(), history_len);
  out.PutCrc();

  // Crash-safe: the rename is the commit point, so an interrupted save
  // leaves the previous checkpoint (or none), never a torn file.
  int64_t retries = 0;
  Status written =
      PublishFile(path, out.bytes(), "checkpoint.write", &retries);
  if (out_retries != nullptr) *out_retries += retries;
  MetricsRegistry::Global()
      .GetCounter("kmll_train_checkpoint_retries_total",
                  "Transient training-checkpoint write failures retried.")
      ->Increment(retries);
  return written;
}

Result<TrainingCheckpoint> LoadCheckpoint(const std::string& path) {
  KMEANSLL_ASSIGN_OR_RETURN(std::string bytes, ReadWholeFile(path));
  RecordReader in(bytes, path);
  KMEANSLL_RETURN_NOT_OK(
      in.ExpectMagic(kCheckpointMagic, "checkpoint file"));
  int32_t version = 0;
  KMEANSLL_RETURN_NOT_OK(in.Read(&version));
  if (version != kCheckpointVersion) {
    return Status::InvalidArgument(
        "unsupported checkpoint version " + std::to_string(version) +
        " in '" + path + "'");
  }
  TrainingCheckpoint ckpt;
  int32_t phase = 0;
  int64_t k = 0, d = 0, prev_k = 0, history_len = 0;
  KMEANSLL_RETURN_NOT_OK(in.Read(&phase));
  KMEANSLL_RETURN_NOT_OK(in.Read(&ckpt.fingerprint));
  KMEANSLL_RETURN_NOT_OK(in.Read(&ckpt.iteration));
  KMEANSLL_RETURN_NOT_OK(in.Read(&ckpt.empty_cluster_repairs));
  KMEANSLL_RETURN_NOT_OK(in.Read(&ckpt.data_passes));
  KMEANSLL_RETURN_NOT_OK(in.Read(&k));
  KMEANSLL_RETURN_NOT_OK(in.Read(&d));
  KMEANSLL_RETURN_NOT_OK(in.Read(&prev_k));
  KMEANSLL_RETURN_NOT_OK(in.Read(&history_len));
  if (phase != static_cast<int32_t>(TrainingCheckpoint::Phase::kSeeding) &&
      phase != static_cast<int32_t>(TrainingCheckpoint::Phase::kLloyd)) {
    return Status::InvalidArgument("unknown checkpoint phase in '" + path +
                                   "'");
  }
  ckpt.phase = static_cast<TrainingCheckpoint::Phase>(phase);
  if (k <= 0 || d <= 0 || prev_k < 0 || history_len < 0 ||
      ckpt.iteration < 0 || ckpt.empty_cluster_repairs < 0 ||
      ckpt.data_passes < 0 || k > (int64_t{1} << 32) ||
      d > (int64_t{1} << 24) || prev_k > (int64_t{1} << 32) ||
      history_len > kMaxHistoryLen) {
    return Status::InvalidArgument("implausible checkpoint shape in '" +
                                   path + "'");
  }
  KMEANSLL_RETURN_NOT_OK(in.ReadMatrix(k, d, &ckpt.centers));
  if (prev_k > 0) {
    KMEANSLL_RETURN_NOT_OK(in.ReadMatrix(prev_k, d, &ckpt.prev_centers));
  }
  KMEANSLL_RETURN_NOT_OK(in.ReadArray(history_len, &ckpt.cost_history));
  KMEANSLL_RETURN_NOT_OK(in.ReadCrc("checkpoint"));
  KMEANSLL_RETURN_NOT_OK(in.ExpectEnd("checkpoint"));
  return ckpt;
}

}  // namespace kmeansll::data
