// Binary-container adapter for the streaming pipeline (core/stream.hpp):
// an InstanceSource over a binary instance container (mmap'd file, slurped
// stream, or shared-memory region). Plus the --format plumbing: parsing the
// CLI token and sniffing which wire a stream actually carries, so
// `storesched_cli --format auto` (the default) accepts either and a
// mismatch dies with an error naming the detected format.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "core/stream.hpp"
#include "storage/wire_format.hpp"

namespace storesched::storage {

/// The instance wires storesched_cli speaks. kAuto sniffs the first byte:
/// the binary container always leads with "STSCHDB1", JSONL with '{' (or
/// whitespace).
enum class WireFormatKind { kAuto, kJsonl, kBinary };

/// Parses a --format token ("auto" | "jsonl" | "binary"); throws
/// std::runtime_error naming the token otherwise.
WireFormatKind wire_format_from_string(const std::string& token);

/// Source over a binary instance container. The whole container is
/// validated up front (wire::InstanceView's contract), then next()
/// materializes records in file order. position() counts records consumed
/// -- the binary wire has no lines.
class BinaryInstanceSource final : public InstanceSource {
 public:
  /// Maps `path` read-only (falling back to a plain read if mmap is
  /// unavailable) and validates it. Throws std::runtime_error on open,
  /// map, or format errors.
  explicit BinaryInstanceSource(const std::string& path);

  /// Slurps the remainder of `in` into an aligned buffer and validates it.
  explicit BinaryInstanceSource(std::istream& in);

  /// Views caller-owned bytes (a shared-memory region). The bytes must be
  /// 8-aligned, immutable, and outlive the source.
  explicit BinaryInstanceSource(std::string_view bytes);

  ~BinaryInstanceSource() override;
  BinaryInstanceSource(const BinaryInstanceSource&) = delete;
  BinaryInstanceSource& operator=(const BinaryInstanceSource&) = delete;

  std::shared_ptr<const Instance> next() override;
  std::optional<std::size_t> size_hint() const override;
  std::optional<std::size_t> position() const override { return cursor_; }

  /// The validated view, for callers that want columns instead of a
  /// pipeline (bench ingest cells).
  const wire::InstanceView& view() const { return *view_; }

 private:
  struct Buffer;  ///< owns the mapped or slurped bytes (nothing for views)
  std::unique_ptr<Buffer> buffer_;
  std::unique_ptr<wire::InstanceView> view_;
  std::size_t cursor_ = 0;
};

/// Opens an instance source over `in` for the requested format. kAuto
/// peeks one byte ('S' = binary, anything else = JSONL); an explicit
/// format mismatch surfaces as a clear error from the chosen parser
/// (each wire's reader names the other format when it recognizes its
/// leading bytes). `first_line` seeds JSONL line numbering for resumed
/// runs; the binary wire ignores it.
std::unique_ptr<InstanceSource> open_instance_source(
    std::istream& in, WireFormatKind format, std::size_t first_line = 0);

}  // namespace storesched::storage
