// Compact binary dataset format ("KMLLDATA"): magic, version, n, d,
// flags, then row-major doubles, optional weights, optional labels.
// Loads ~10x faster than CSV for the large synthetic workloads, and
// round-trips weights/labels losslessly (CSV drops weights).
//
// Version 2 appends a CRC-32 over every preceding file byte (flagged
// via the payload-CRC flag bit) so silent payload corruption fails
// cleanly at read time; version 1 files (no checksum) remain readable.
//
// This header is also the format's one codec: the 32-byte header, its
// flags, and the file-size rule are encoded by PutDataset and decoded by
// ReadDatasetHeader, which both dataset writers (WriteBinaryRange,
// ShardWriter) and both readers (ReadBinary, ShardedDataset) share.

#ifndef KMEANSLL_DATA_BINARY_IO_H_
#define KMEANSLL_DATA_BINARY_IO_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "data/record_io.h"
#include "matrix/dataset.h"

namespace kmeansll::data {

/// magic(8) | i32 version | i64 n | i64 d | u32 flags; the payload
/// sections follow at this offset.
inline constexpr int64_t kDatasetHeaderBytes = 32;

/// A validated KMLLDATA header.
struct DatasetHeader {
  int64_t n = 0;
  int64_t dim = 0;
  bool has_weights = false;
  bool has_labels = false;
  bool has_crc = false;    ///< v2 payload CRC trailer present
  int64_t file_bytes = 0;  ///< exact size from the magic to the trailer
};

/// Reads the header at the cursor and validates magic, version, flags,
/// and shape plausibility. The file size the header implies is
/// overflow-checked and must equal the bytes the reader holds: fewer is
/// an IOError, so nothing is allocated for a payload that is not there,
/// and more is an InvalidArgument (trailing bytes).
Result<DatasetHeader> ReadDatasetHeader(RecordReader* in);

/// Writes n rows of d columns as a version-2 KMLLDATA file: header,
/// points, weights (when non-null), labels (when non-null), CRC trailer.
void PutDataset(int64_t n, int64_t d, const double* points,
                const double* weights, const int32_t* labels,
                RecordWriter* out);

/// Writes `dataset` (points, weights if any, labels if any).
Status WriteBinary(const Dataset& dataset, const std::string& path);

/// Writes rows [begin, end) of `dataset` as a self-contained KMLLDATA
/// file (the slice reads back with ReadBinary like any dataset). This is
/// the primitive the shard writer (data/shard_store.h) uses: each shard
/// is one range write, so shards are individually loadable and the
/// full-file format is the one-shard special case.
Status WriteBinaryRange(const Dataset& dataset, int64_t begin, int64_t end,
                        const std::string& path);

/// Reads a dataset written by WriteBinary. Fails on bad magic, version
/// mismatch, implausible shape, truncation, or trailing bytes.
Result<Dataset> ReadBinary(const std::string& path);

}  // namespace kmeansll::data

#endif  // KMEANSLL_DATA_BINARY_IO_H_
