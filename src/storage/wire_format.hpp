// The shared-memory store's segment layout: a versioned, checksummed,
// columnar container that readers use in place.
//
// JSONL is the one instance wire for files and pipes. This container is
// what `storesched_cli --store-publish` writes into a shared-memory
// segment (storage/shm_store.hpp) and what `--store`, serve's {"ref":N}
// requests and the store's own publish check read back through
// InstanceView: a sectioned little-endian layout that decodes by pointer
// arithmetic, straight out of the mapped region, without copying the
// columns.
//
// Layout (full diagram and compat rules: docs/WIRE_FORMAT.md):
//
//   [WireHeader]  magic "STSCHDB1", version, payload kind + count, file
//                 size, CRC32 over the header itself
//   [SectionEntry x N]  per section: kind, element count, byte offset
//                 (8-aligned), byte size, CRC32 over the section bytes
//   [section bytes ...]
//
// Instance segments are columnar: one InstanceRecord per instance (m,
// flags, [task_offset, task_count) into the p/s columns, [edge_offset,
// edge_count) into the edge columns) over shared i64 p / i64 s / i32
// edge-endpoint arrays. DAG edges are stored source-sorted per instance --
// the CSR order DagFrontierView uses -- so rebuilding adjacency is a
// linear append. Results travel as single-result payload blobs: a
// fixed-width record plus diagnostics / proc / start bytes, carrying every
// field a JSONL result line can (encode/decode_result_payload round-trip
// through result_to_jsonl() byte-identically). The result cache
// (storage/result_cache.hpp) stores exactly these payloads.
//
// Reader contract (the fuzz oracle's): InstanceView's constructor and
// decode_result_payload() either accept the bytes or throw
// std::runtime_error naming the offense -- bad magic, version skew,
// truncation, misaligned or overlapping sections, checksum mismatch,
// counts that do not add up, weights or edges the Instance/Dag
// constructors reject. A hostile segment is an error, never
// UB: every offset and count is bounds-checked against the buffer before it
// is dereferenced, and all arithmetic is overflow-checked. Writers always
// produce canonical bytes: encoding what a view materializes reproduces
// the viewed bytes exactly.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/instance.hpp"
#include "core/solver.hpp"

namespace storesched::wire {

/// Format version this build writes; readers accept exactly this version
/// (the format carries no compat shims yet -- see docs/WIRE_FORMAT.md for
/// the evolution rules a version bump must follow).
inline constexpr std::uint32_t kWireVersion = 1;

/// What a container's payload is. Kind 2 (result rows) is retired;
/// readers reject it as an unknown kind.
enum class PayloadKind : std::uint32_t { kInstances = 1 };

/// CRC-32 (IEEE 802.3, reflected) over a byte range. Exposed for tests and
/// the shm store's publish-time integrity stamp.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

/// Serializes instances into one canonical container (a store segment).
std::string encode_instances(std::span<const Instance> instances);

// ---------------------------------------------------------------------------
// Decoding (strict: std::runtime_error on any malformed byte).
// ---------------------------------------------------------------------------

/// Zero-copy random-access view over an instance container sitting in a
/// shared-memory segment. `bytes` must be 8-aligned (mappings are).
/// Construction validates the whole container (header, section table,
/// checksums, every record's offsets, every task weight and edge) -- after
/// it succeeds, materialize() cannot throw on format grounds. The viewed
/// bytes must outlive the view and stay immutable (the shm store's
/// published regions are read-only by contract).
class InstanceView {
 public:
  /// Validates and indexes `bytes`. Throws std::runtime_error as above.
  explicit InstanceView(std::string_view bytes);

  std::size_t count() const { return records_.size(); }

  /// Instance `i`'s task, edge and processor counts, read from its record
  /// without materializing it. Precondition: i < count().
  struct Shape {
    std::size_t tasks = 0;
    std::size_t edges = 0;
    std::int32_t m = 1;
  };
  Shape shape(std::size_t i) const {
    const Record& rec = records_[i];
    return {static_cast<std::size_t>(rec.task_count),
            static_cast<std::size_t>(rec.edge_count), rec.m};
  }

  /// Rebuilds instance `i` as an owning Instance (weights and adjacency
  /// copied out of the columns). Precondition: i < count().
  Instance materialize(std::size_t i) const;

 private:
  struct Record {
    std::uint64_t task_offset = 0;
    std::uint64_t task_count = 0;
    std::uint64_t edge_offset = 0;
    std::uint64_t edge_count = 0;
    std::int32_t m = 1;
    bool dag = false;
  };

  std::vector<Record> records_;
  const std::int64_t* p_ = nullptr;
  const std::int64_t* s_ = nullptr;
  const std::int32_t* edge_src_ = nullptr;
  const std::int32_t* edge_dst_ = nullptr;
};

// ---------------------------------------------------------------------------
// Result-record payloads (shared with the result cache).
// ---------------------------------------------------------------------------

/// Serializes one result as a self-contained little-endian blob -- the
/// exact payload storage/result_cache.hpp stores per slot. Fails (returns
/// an empty string) only when the result cannot be represented: the wire
/// carries i64 fields, so nothing a solver produces is rejected today.
std::string encode_result_payload(const SolveResult& result);

/// Parses an encode_result_payload() blob back. Throws std::runtime_error
/// on truncation or internal inconsistency (the cache's seqlock makes torn
/// reads impossible, but a decoding layer never trusts its input).
SolveResult decode_result_payload(std::string_view bytes);

}  // namespace storesched::wire
