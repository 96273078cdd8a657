#include "data/binary_io.h"

#include <cstdint>
#include <fstream>
#include <vector>

namespace kmeansll::data {

namespace {

constexpr char kMagic[8] = {'K', 'M', 'L', 'L', 'D', 'A', 'T', 'A'};
// v1: header + payload only. v2 adds kFlagPayloadCrc and a trailing
// little-endian uint32 CRC-32 over every preceding byte of the file
// (header included), so silent payload corruption is detected at read
// time the same way header corruption already is. The writer always
// emits v2 with the CRC; v1 files remain readable.
constexpr int32_t kVersion = 2;
constexpr int32_t kMinVersion = 1;
constexpr uint32_t kFlagWeights = 1u << 0;
constexpr uint32_t kFlagLabels = 1u << 1;
constexpr uint32_t kFlagPayloadCrc = 1u << 2;
constexpr uint32_t kKnownFlags =
    kFlagWeights | kFlagLabels | kFlagPayloadCrc;

/// The file-size rule: bytes a KMLLDATA file of this shape holds, or -1
/// when the size overflows int64. Callers bound d by 2^24, so only the
/// product with n can overflow.
int64_t DatasetFileBytes(int64_t n, int64_t d, bool weights, bool labels,
                         bool crc) {
  const int64_t row_bytes = d * 8 + (weights ? 8 : 0) + (labels ? 4 : 0);
  const int64_t payload = CheckedBytes(n, row_bytes);
  const int64_t fixed = kDatasetHeaderBytes + (crc ? 4 : 0);
  return payload < 0 || payload > INT64_MAX - fixed ? -1 : payload + fixed;
}

}  // namespace

Result<DatasetHeader> ReadDatasetHeader(RecordReader* in) {
  const std::string& path = in->path();
  KMEANSLL_RETURN_NOT_OK(in->ExpectMagic(kMagic, "dataset file"));
  DatasetHeader header;
  int32_t version = 0;
  uint32_t flags = 0;
  KMEANSLL_RETURN_NOT_OK(in->Read(&version));
  KMEANSLL_RETURN_NOT_OK(in->Read(&header.n));
  KMEANSLL_RETURN_NOT_OK(in->Read(&header.dim));
  KMEANSLL_RETURN_NOT_OK(in->Read(&flags));
  if (version < kMinVersion || version > kVersion) {
    return Status::InvalidArgument("unsupported dataset version in '" +
                                   path + "'");
  }
  if ((flags & ~kKnownFlags) != 0 ||
      (version < 2 && (flags & kFlagPayloadCrc) != 0)) {
    return Status::InvalidArgument("unknown flags in '" + path + "'");
  }
  header.has_weights = (flags & kFlagWeights) != 0;
  header.has_labels = (flags & kFlagLabels) != 0;
  header.has_crc = (flags & kFlagPayloadCrc) != 0;
  header.file_bytes =
      header.n > 0 && header.dim > 0 && header.n <= (int64_t{1} << 40) &&
              header.dim <= (int64_t{1} << 24)
          ? DatasetFileBytes(header.n, header.dim, header.has_weights,
                             header.has_labels, header.has_crc)
          : -1;
  if (header.file_bytes < 0) {
    return Status::InvalidArgument("implausible dataset shape in '" + path +
                                   "'");
  }
  if (header.file_bytes - kDatasetHeaderBytes > in->remaining()) {
    return in->Truncated();
  }
  if (header.file_bytes - kDatasetHeaderBytes < in->remaining()) {
    return Status::InvalidArgument("'" + path +
                                   "' has trailing bytes after the dataset");
  }
  return header;
}

void PutDataset(int64_t n, int64_t d, const double* points,
                const double* weights, const int32_t* labels,
                RecordWriter* out) {
  uint32_t flags = kFlagPayloadCrc;
  if (weights != nullptr) flags |= kFlagWeights;
  if (labels != nullptr) flags |= kFlagLabels;
  out->Reserve(out->size() +
               static_cast<size_t>(DatasetFileBytes(
                   n, d, weights != nullptr, labels != nullptr, true)));
  out->PutBytes(kMagic, sizeof(kMagic));
  out->Put(kVersion);
  out->Put(n);
  out->Put(d);
  out->Put(flags);
  out->PutArray(points, n * d);
  if (weights != nullptr) out->PutArray(weights, n);
  if (labels != nullptr) out->PutArray(labels, n);
  out->PutCrc();
}

Status WriteBinaryRange(const Dataset& dataset, int64_t begin, int64_t end,
                        const std::string& path) {
  if (begin < 0 || begin > end || end > dataset.n()) {
    return Status::InvalidArgument(
        "row range [" + std::to_string(begin) + ", " + std::to_string(end) +
        ") out of bounds for n=" + std::to_string(dataset.n()));
  }
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  // Streamed straight to the file: the trailing CRC folds as the bytes
  // pass, so it covers the whole file without a staging copy.
  const int64_t d = dataset.dim();
  RecordWriter writer(&out);
  PutDataset(end - begin, d, dataset.points().data() + begin * d,
             dataset.has_weights() ? dataset.weights().data() + begin
                                   : nullptr,
             dataset.has_labels() ? dataset.labels().data() + begin
                                  : nullptr,
             &writer);
  if (!out.good()) return Status::IOError("write to '" + path + "' failed");
  return Status::OK();
}

Status WriteBinary(const Dataset& dataset, const std::string& path) {
  return WriteBinaryRange(dataset, 0, dataset.n(), path);
}

Result<Dataset> ReadBinary(const std::string& path) {
  KMEANSLL_ASSIGN_OR_RETURN(RecordReader in, RecordReader::OpenFile(path));
  // The header check bounds the payload by the file size, so the matrix
  // below is never larger than the file; sections are read straight into
  // their destinations while the reader folds the running CRC.
  KMEANSLL_ASSIGN_OR_RETURN(DatasetHeader header, ReadDatasetHeader(&in));
  const int64_t n = header.n, d = header.dim;
  Matrix points(n, d);
  KMEANSLL_RETURN_NOT_OK(in.ReadBytes(
      points.data(), static_cast<size_t>(n * d) * sizeof(double)));
  std::vector<double> weights;
  if (header.has_weights) KMEANSLL_RETURN_NOT_OK(in.ReadArray(n, &weights));
  std::vector<int32_t> labels;
  if (header.has_labels) KMEANSLL_RETURN_NOT_OK(in.ReadArray(n, &labels));
  if (header.has_crc) KMEANSLL_RETURN_NOT_OK(in.ReadCrc("payload"));

  if (!weights.empty() && !labels.empty()) {
    return Dataset::WithWeightsAndLabels(std::move(points),
                                         std::move(weights),
                                         std::move(labels));
  }
  if (!weights.empty()) {
    return Dataset::WithWeights(std::move(points), std::move(weights));
  }
  if (!labels.empty()) {
    return Dataset::WithLabels(std::move(points), std::move(labels));
  }
  return Dataset(std::move(points));
}

}  // namespace kmeansll::data
