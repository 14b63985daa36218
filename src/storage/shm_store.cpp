#include "storage/shm_store.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "storage/wire_format.hpp"

namespace storesched::storage {

namespace {

constexpr std::uint64_t kMetaMagic = 0x4D48534843535453ull;  // "STSCHSHM" LE
constexpr std::uint64_t kMetaVersion = 1;
constexpr std::size_t kMetaHeaderBytes = 64;  // 8 words; cache follows
constexpr int kBoundedWaitMs = 2000;          // creation / flip stabilization

// Metadata word indices (each an atomic u64 in the mapped segment).
enum : std::size_t {
  kMetaMagicWord = 0,
  kMetaVersionWord = 1,
  kMetaSeq = 2,       // seqlock over (epoch, data_size); odd = mid-flip
  kMetaEpoch = 3,     // 0 = nothing published
  kMetaDataSize = 4,
  kMetaCacheSlots = 5,
  kMetaCachePayload = 6,
};

using Word = std::atomic<std::uint64_t>;

Word* meta_word(void* meta, std::size_t index) {
  return reinterpret_cast<Word*>(meta) + index;
}

void validate_store_name(const std::string& name) {
  if (name.empty()) throw std::runtime_error("shm store: empty name");
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) {
      throw std::runtime_error(
          "shm store: name \"" + name +
          "\" may contain only letters, digits, '.', '_', '-'");
    }
  }
}

std::string meta_segment(const std::string& name) {
  return "/storesched." + name;
}

std::string data_segment(const std::string& name, std::uint64_t epoch) {
  return "/storesched." + name + ".d" + std::to_string(epoch);
}

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error("shm store: " + what + ": " +
                           std::strerror(errno));
}

struct Mapped {
  void* base = nullptr;
  std::size_t size = 0;
};

/// shm_open + (optionally ftruncate) + mmap, closing the fd either way.
Mapped map_segment(const std::string& segment, int oflag, int prot,
                   std::optional<std::size_t> truncate_to) {
  const int fd = ::shm_open(segment.c_str(), oflag, 0600);
  if (fd < 0) fail_errno("shm_open " + segment);
  std::size_t size = 0;
  if (truncate_to) {
    if (::ftruncate(fd, static_cast<off_t>(*truncate_to)) != 0) {
      const int err = errno;
      ::close(fd);
      errno = err;
      fail_errno("ftruncate " + segment);
    }
    size = *truncate_to;
  } else {
    struct ::stat st{};
    if (::fstat(fd, &st) != 0) {
      const int err = errno;
      ::close(fd);
      errno = err;
      fail_errno("fstat " + segment);
    }
    size = static_cast<std::size_t>(st.st_size);
  }
  if (size == 0) {
    ::close(fd);
    throw std::runtime_error("shm store: " + segment + " is empty");
  }
  void* base = ::mmap(nullptr, size, prot, MAP_SHARED, fd, 0);
  const int err = errno;
  ::close(fd);
  if (base == MAP_FAILED) {
    errno = err;
    fail_errno("mmap " + segment);
  }
  return {base, size};
}

void sleep_briefly() {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

}  // namespace

ShmMapping::~ShmMapping() {
  if (base_ != nullptr) ::munmap(base_, size_);
}

struct ShmStore::LastMapping {
  std::mutex mu;
  std::shared_ptr<ShmMapping> mapping;  // guarded by mu
};

ShmStore::ShmStore(std::string name, void* meta, std::size_t meta_size)
    : name_(std::move(name)),
      meta_(meta),
      meta_size_(meta_size),
      last_(std::make_unique<LastMapping>()) {
  const auto slots = static_cast<std::size_t>(
      meta_word(meta_, kMetaCacheSlots)->load(std::memory_order_relaxed));
  const auto payload = static_cast<std::size_t>(
      meta_word(meta_, kMetaCachePayload)->load(std::memory_order_relaxed));
  cache_ = std::make_unique<SolveCache>(
      static_cast<char*>(meta_) + kMetaHeaderBytes,
      meta_size_ - kMetaHeaderBytes, slots, payload, /*initialize=*/false);
}

ShmStore::~ShmStore() {
  if (meta_ != nullptr) ::munmap(meta_, meta_size_);
}

ShmStore::ShmStore(ShmStore&& other) noexcept
    : name_(std::move(other.name_)),
      meta_(other.meta_),
      meta_size_(other.meta_size_),
      cache_(std::move(other.cache_)),
      last_(std::move(other.last_)) {
  other.meta_ = nullptr;
  other.meta_size_ = 0;
}

ShmStore ShmStore::create(const std::string& name) {
  return create(name, Geometry{});
}

ShmStore ShmStore::create(const std::string& name, const Geometry& geometry) {
  validate_store_name(name);
  const std::string segment = meta_segment(name);
  const std::size_t cache_bytes = CacheTable::required_bytes(
      geometry.cache_slots, geometry.cache_payload_bytes);
  const std::size_t total = kMetaHeaderBytes + cache_bytes;

  for (int attempt = 0; attempt < kBoundedWaitMs; ++attempt) {
    const int fd =
        ::shm_open(segment.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
    if (fd >= 0) {
      ::close(fd);
      // Fresh segment: size it (zero-filled), stamp the cache first and
      // the magic last, so attachers never see a magic over a
      // half-initialized region.
      Mapped m = map_segment(segment, O_RDWR, PROT_READ | PROT_WRITE, total);
      meta_word(m.base, kMetaVersionWord)
          ->store(kMetaVersion, std::memory_order_relaxed);
      meta_word(m.base, kMetaCacheSlots)
          ->store(geometry.cache_slots, std::memory_order_relaxed);
      meta_word(m.base, kMetaCachePayload)
          ->store(geometry.cache_payload_bytes, std::memory_order_relaxed);
      CacheTable(static_cast<char*>(m.base) + kMetaHeaderBytes, cache_bytes,
                 geometry.cache_slots, geometry.cache_payload_bytes,
                 /*initialize=*/true);
      meta_word(m.base, kMetaMagicWord)
          ->store(kMetaMagic, std::memory_order_release);
      return ShmStore(name, m.base, m.size);
    }
    if (errno != EEXIST) fail_errno("shm_open " + segment);

    // Someone holds the name. A finished store: take it over (republish
    // is the normal writer lifecycle). A mid-creation store: wait. A
    // corpse that never got its magic: reclaim it.
    struct ::stat st{};
    const int existing = ::shm_open(segment.c_str(), O_RDWR, 0600);
    if (existing < 0) {
      if (errno == ENOENT) continue;  // raced an unlink; recreate
      fail_errno("shm_open " + segment);
    }
    const bool sized =
        ::fstat(existing, &st) == 0 &&
        static_cast<std::size_t>(st.st_size) >= kMetaHeaderBytes;
    ::close(existing);
    if (sized) {
      Mapped m = map_segment(segment, O_RDWR, PROT_READ | PROT_WRITE,
                             std::nullopt);
      if (meta_word(m.base, kMetaMagicWord)->load(
              std::memory_order_acquire) == kMetaMagic) {
        return ShmStore(name, m.base, m.size);
      }
      ::munmap(m.base, m.size);
    }
    if (attempt > 50) {
      // Not becoming a store: reclaim the name (crashed creator).
      ::shm_unlink(segment.c_str());
    }
    sleep_briefly();
  }
  throw std::runtime_error("shm store: " + segment +
                           " never finished initializing");
}

ShmStore ShmStore::attach(const std::string& name) {
  validate_store_name(name);
  const std::string segment = meta_segment(name);
  for (int attempt = 0; attempt < kBoundedWaitMs; ++attempt) {
    const int fd = ::shm_open(segment.c_str(), O_RDWR, 0600);
    if (fd < 0) {
      if (errno == ENOENT) {
        throw std::runtime_error("shm store: no store named \"" + name +
                                 "\" (segment " + segment + " not found)");
      }
      fail_errno("shm_open " + segment);
    }
    struct ::stat st{};
    const bool sized = ::fstat(fd, &st) == 0 &&
                       static_cast<std::size_t>(st.st_size) >=
                           kMetaHeaderBytes;
    ::close(fd);
    if (sized) {
      Mapped m = map_segment(segment, O_RDWR, PROT_READ | PROT_WRITE,
                             std::nullopt);
      if (meta_word(m.base, kMetaMagicWord)->load(
              std::memory_order_acquire) == kMetaMagic) {
        return ShmStore(name, m.base, m.size);
      }
      ::munmap(m.base, m.size);
    }
    sleep_briefly();  // creator mid-initialization
  }
  throw std::runtime_error("shm store: " + segment +
                           " never finished initializing");
}

void ShmStore::publish(std::string_view container) {
  // Validate before anything becomes visible: a malformed container must
  // never be published (readers validate too, but failing here keeps the
  // previous epoch serving).
  wire::InstanceView validator(
      container.data() == nullptr ? std::string_view{"", 0} : container);
  (void)validator;

  const std::uint64_t next =
      meta_word(meta_, kMetaEpoch)->load(std::memory_order_relaxed) + 1;
  const std::string segment = data_segment(name_, next);
  // A segment with this epoch's name can only be an orphan from a writer
  // that died between creating it and flipping the metadata.
  ::shm_unlink(segment.c_str());
  {
    Mapped m = map_segment(segment, O_RDWR | O_CREAT | O_EXCL,
                           PROT_READ | PROT_WRITE, container.size());
    std::memcpy(m.base, container.data(), container.size());
    ::munmap(m.base, m.size);
  }

  Word* seq = meta_word(meta_, kMetaSeq);
  seq->fetch_add(1, std::memory_order_acq_rel);  // odd: flip in progress
  meta_word(meta_, kMetaEpoch)->store(next, std::memory_order_relaxed);
  meta_word(meta_, kMetaDataSize)
      ->store(container.size(), std::memory_order_relaxed);
  seq->fetch_add(1, std::memory_order_release);  // even: flip visible

  if (next > 1) {
    // Unlink, don't truncate: attached readers keep their epoch until
    // they unmap (POSIX keeps unlinked segments alive), so a swap can
    // never fault a reader mid-solve.
    ::shm_unlink(data_segment(name_, next - 1).c_str());
  }
}

std::optional<std::uint64_t> ShmStore::published_epoch() const {
  const Word* seq = meta_word(meta_, kMetaSeq);
  const std::uint64_t s1 = seq->load(std::memory_order_acquire);
  if (s1 & 1) return std::nullopt;
  const std::uint64_t epoch =
      meta_word(meta_, kMetaEpoch)->load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (seq->load(std::memory_order_relaxed) != s1) return std::nullopt;
  return epoch;
}

std::shared_ptr<ShmMapping> ShmStore::snapshot() const {
  const Word* seq = meta_word(meta_, kMetaSeq);
  for (int attempt = 0; attempt < kBoundedWaitMs; ++attempt) {
    const std::uint64_t s1 = seq->load(std::memory_order_acquire);
    if (s1 & 1) {
      sleep_briefly();  // writer mid-flip
      continue;
    }
    const std::uint64_t epoch =
        meta_word(meta_, kMetaEpoch)->load(std::memory_order_relaxed);
    const std::uint64_t size =
        meta_word(meta_, kMetaDataSize)->load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (seq->load(std::memory_order_relaxed) != s1) continue;
    if (epoch == 0) return nullptr;
    {
      const std::lock_guard<std::mutex> lock(last_->mu);
      if (last_->mapping && last_->mapping->epoch() == epoch) {
        return last_->mapping;
      }
    }

    const std::string segment = data_segment(name_, epoch);
    const int fd = ::shm_open(segment.c_str(), O_RDONLY, 0600);
    if (fd < 0) {
      if (errno == ENOENT) continue;  // republished under us; retake
      fail_errno("shm_open " + segment);
    }
    struct ::stat st{};
    const bool ok = ::fstat(fd, &st) == 0 &&
                    static_cast<std::size_t>(st.st_size) >= size;
    if (!ok) {
      ::close(fd);
      continue;  // writer mid-ftruncate of a fresh epoch
    }
    void* base = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
    const int err = errno;
    ::close(fd);
    if (base == MAP_FAILED) {
      errno = err;
      fail_errno("mmap " + segment);
    }
    auto fresh = std::make_shared<ShmMapping>(base, size, epoch);
    std::shared_ptr<ShmMapping> released;  // unmapped after the unlock
    const std::lock_guard<std::mutex> lock(last_->mu);
    if (!last_->mapping || last_->mapping->epoch() < epoch) {
      released = std::exchange(last_->mapping, fresh);
    } else if (last_->mapping->epoch() == epoch) {
      // A racing caller mapped this epoch first: everyone shares its copy.
      released = std::exchange(fresh, last_->mapping);
    }
    return fresh;
  }
  throw std::runtime_error(
      "shm store: " + meta_segment(name_) +
      " never stabilized (a writer died mid-publish?)");
}

std::size_t ShmStore::unlink(const std::string& name) {
  validate_store_name(name);
  std::size_t removed = 0;
  // The metadata segment names the live epoch, but orphans from crashed
  // writers do not appear in it -- scan the shm directory for every
  // segment of this store instead.
  const std::string prefix = "storesched." + name;
  if (DIR* dir = ::opendir("/dev/shm")) {
    while (const struct ::dirent* entry = ::readdir(dir)) {
      const std::string_view file = entry->d_name;
      if (file == prefix ||
          (file.size() > prefix.size() + 1 &&
           file.substr(0, prefix.size() + 1) == prefix + ".")) {
        if (::shm_unlink(("/" + std::string(file)).c_str()) == 0) ++removed;
      }
    }
    ::closedir(dir);
  } else {
    // No scannable shm directory (non-Linux): best-effort on the two
    // segments the metadata can name.
    std::uint64_t epoch = 0;
    try {
      const ShmStore store = attach(name);
      epoch = meta_word(store.meta_, kMetaEpoch)
                  ->load(std::memory_order_relaxed);
    } catch (const std::runtime_error&) {
    }
    if (epoch > 0 &&
        ::shm_unlink(data_segment(name, epoch).c_str()) == 0) {
      ++removed;
    }
    if (::shm_unlink(meta_segment(name).c_str()) == 0) ++removed;
  }
  return removed;
}

ShmStore::Info ShmStore::info() const {
  Info out;
  out.cache = cache_->table_stats();
  const std::shared_ptr<ShmMapping> snap = snapshot();
  if (snap) {
    out.epoch = snap->epoch();
    out.data_bytes = snap->bytes().size();
    out.instances = wire::InstanceView(snap->bytes()).count();
  }
  return out;
}

ShmInstanceSource::ShmInstanceSource(const ShmStore& store)
    : mapping_(store.snapshot()) {
  if (!mapping_) {
    throw std::runtime_error("shm store \"" + store.name() +
                             "\": nothing published yet");
  }
  view_.emplace(mapping_->bytes());
}

std::shared_ptr<const Instance> ShmInstanceSource::next() {
  if (cursor_ >= view_->count()) return nullptr;
  return std::make_shared<const Instance>(view_->materialize(cursor_++));
}

}  // namespace storesched::storage
