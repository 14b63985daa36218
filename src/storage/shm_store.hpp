// Named shared-memory instance store with atomic region-swap publish.
//
// One writer process publishes an instance container in the segment layout
// of storage/wire_format.hpp (storesched_cli --store-publish encodes it
// from JSONL); any number of serving/streaming processes attach and read
// it zero-copy through wire::InstanceView. The layout
// follows the osrm-backend storage tier's shape: a tiny metadata segment
// that is flipped atomically, plus bulk data regions that are immutable
// once published.
//
//   /dev/shm/storesched.<name>       metadata + the shared result cache
//   /dev/shm/storesched.<name>.d<E>  epoch E's instance container (bytes
//                                    of wire::encode_instances, verbatim)
//
// Publish protocol (writer): write the new container into a fresh segment
// named for epoch E+1, then flip the metadata seqlock -- seq to odd,
// store (epoch, size), seq to even -- and shm_unlink epoch E's segment.
// Attached readers keep their mappings (POSIX keeps unlinked segments
// alive until the last munmap), so a swap can never SIGBUS a reader;
// new readers land on E+1. Readers snapshot with a bounded seqlock
// double-read of (epoch, size). A handle maps each epoch's segment once:
// while the published epoch is the one it last mapped, snapshot() hands
// out that mapping again, and only a newer epoch costs a shm_open + mmap
// (retried when a republish races the shm_open).
//
// The metadata segment also hosts the result cache
// (storage/result_cache.hpp): every attached process shares one table, so
// an exact duplicate solved by any process is a hash lookup for all of
// them. The cache is why readers attach read-write -- the instance
// regions themselves are mapped read-only.
//
// Crash safety: segments are plain named files under /dev/shm, so a
// SIGKILL'd process leaks them until unlink(name) -- which therefore
// scans for *every* "storesched.<name>*" segment, including orphaned
// epochs from writers that died mid-publish (exercised by the cram
// transcript 0700-shm-store.t).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/stream.hpp"
#include "storage/result_cache.hpp"
#include "storage/wire_format.hpp"

namespace storesched::storage {

/// A mapped, immutable view of one published epoch's container bytes.
/// Keeps the mapping alive for as long as any consumer holds the pointer
/// (snapshots are handed out as shared_ptr).
class ShmMapping {
 public:
  ShmMapping(void* base, std::size_t size, std::uint64_t epoch)
      : base_(base), size_(size), epoch_(epoch) {}
  ~ShmMapping();
  ShmMapping(const ShmMapping&) = delete;
  ShmMapping& operator=(const ShmMapping&) = delete;

  std::string_view bytes() const {
    return {static_cast<const char*>(base_), size_};
  }
  std::uint64_t epoch() const { return epoch_; }

 private:
  void* base_;
  std::size_t size_;
  std::uint64_t epoch_;
};

/// One process's handle on a named store: the writer (create + publish)
/// and readers (attach + snapshot) use the same class, differing only in
/// which methods they call.
class ShmStore {
 public:
  /// Result-cache geometry, fixed at create() time (attachers inherit it
  /// from the metadata header).
  struct Geometry {
    std::size_t cache_slots = SolveCache::kDefaultSlots;
    std::size_t cache_payload_bytes = SolveCache::kDefaultPayloadBytes;
  };

  /// Store contents summary (the CLI's `--store-info`).
  struct Info {
    std::uint64_t epoch = 0;      ///< 0 = nothing published yet
    std::uint64_t data_bytes = 0;
    std::size_t instances = 0;    ///< record count of the current epoch
    CacheTableStats cache;
  };

  /// Creates the store `name` (or takes over an existing one, including a
  /// half-initialized orphan left by a crashed creator). `name` may
  /// contain [A-Za-z0-9._-] only. Throws std::runtime_error on OS errors.
  static ShmStore create(const std::string& name,
                         const Geometry& geometry);
  static ShmStore create(const std::string& name);  ///< default geometry

  /// Attaches to an existing store; waits briefly for a mid-creation
  /// store to finish initializing, then throws if `name` does not exist
  /// or is not a store.
  static ShmStore attach(const std::string& name);

  /// Removes every segment of `name` -- metadata, the live epoch, and any
  /// orphaned epochs a SIGKILL'd writer left behind. Returns the number
  /// of segments unlinked (0 = nothing to clean). Safe to call while
  /// readers are attached: their mappings survive until unmapped.
  static std::size_t unlink(const std::string& name);

  ~ShmStore();
  ShmStore(ShmStore&& other) noexcept;
  ShmStore& operator=(ShmStore&&) = delete;
  ShmStore(const ShmStore&) = delete;
  ShmStore& operator=(const ShmStore&) = delete;

  /// Validates `container` (it must be a wire instance container) and
  /// publishes it as the next epoch; readers see the flip atomically.
  void publish(std::string_view container);

  /// The currently published epoch's mapping, or nullptr when nothing has
  /// been published yet. The handle maps each epoch once and returns that
  /// mapping until a newer epoch is published. Bounded retries against
  /// concurrent republishes, then throws std::runtime_error if the store
  /// never stabilizes (a stuck odd seqlock: a writer died mid-flip).
  std::shared_ptr<ShmMapping> snapshot() const;

  /// The published epoch (0 = nothing published yet) from one seqlock
  /// read that never waits or maps: nullopt while a publish is mid-flip or
  /// when one lands during the read.
  std::optional<std::uint64_t> published_epoch() const;

  /// The shared result cache living in the metadata segment.
  SolveCache& cache() { return *cache_; }

  Info info() const;

  const std::string& name() const { return name_; }

 private:
  ShmStore(std::string name, void* meta, std::size_t meta_size);

  /// The last epoch's mapping this handle handed out, behind its own
  /// mutex (defined in shm_store.cpp; a pointer keeps ShmStore movable).
  struct LastMapping;

  std::string name_;
  void* meta_ = nullptr;
  std::size_t meta_size_ = 0;
  std::unique_ptr<SolveCache> cache_;
  std::unique_ptr<LastMapping> last_;
};

/// Streaming source over the store's current snapshot: holds the mapping
/// and one InstanceView over it (validated once), and yields instances in
/// record order. The choice of epoch is made at construction (a republish
/// mid-run does not retarget a running pipeline).
class ShmInstanceSource final : public InstanceSource {
 public:
  /// Throws std::runtime_error when the store has no published epoch.
  explicit ShmInstanceSource(const ShmStore& store);

  std::shared_ptr<const Instance> next() override;
  std::optional<std::size_t> size_hint() const override {
    return view_->count();
  }
  /// Records consumed: the segment has no lines.
  std::optional<std::size_t> position() const override { return cursor_; }

 private:
  std::shared_ptr<ShmMapping> mapping_;
  std::optional<wire::InstanceView> view_;
  std::size_t cursor_ = 0;
};

}  // namespace storesched::storage
