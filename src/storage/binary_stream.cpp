#include "storage/binary_stream.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <istream>
#include <stdexcept>
#include <streambuf>
#include <vector>

namespace storesched::storage {

WireFormatKind wire_format_from_string(const std::string& token) {
  if (token == "auto") return WireFormatKind::kAuto;
  if (token == "jsonl") return WireFormatKind::kJsonl;
  if (token == "binary") return WireFormatKind::kBinary;
  throw std::runtime_error("unknown format \"" + token +
                           "\" (expected auto, jsonl, or binary)");
}

/// Owns the container bytes: either an mmap'd file or an aligned heap
/// slurp. A default-constructed Buffer owns nothing (external view).
struct BinaryInstanceSource::Buffer {
  std::string_view bytes;
  std::vector<std::uint64_t> heap;  ///< aligned backing for slurped input
  void* map = nullptr;
  std::size_t map_size = 0;

  ~Buffer() {
    if (map != nullptr) ::munmap(map, map_size);
  }

  void slurp(std::istream& in) {
    // Whole blocks through the stream buffer, not one character at a time.
    std::string raw;
    std::streambuf* const buf = in.rdbuf();
    constexpr std::streamsize kBlock = std::streamsize{1} << 16;
    try {
      for (std::streamsize got = kBlock; buf != nullptr && got == kBlock;) {
        const std::size_t at = raw.size();
        raw.resize(at + kBlock);
        got = std::max<std::streamsize>(buf->sgetn(raw.data() + at, kBlock), 0);
        raw.resize(at + static_cast<std::size_t>(got));
      }
    } catch (const std::exception&) {
      throw std::runtime_error("binary wire: read failure while slurping");
    }
    heap.resize((raw.size() + 7) / 8);
    std::memcpy(heap.data(), raw.data(), raw.size());
    bytes = {reinterpret_cast<const char*>(heap.data()), raw.size()};
  }

  void map_file(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      throw std::runtime_error("cannot open " + path + ": " +
                               std::strerror(errno));
    }
    struct ::stat st{};
    if (::fstat(fd, &st) != 0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("cannot stat " + path + ": " +
                               std::strerror(err));
    }
    const auto size = static_cast<std::size_t>(st.st_size);
    if (size == 0) {
      // mmap rejects zero-length maps; an empty file is simply an empty
      // (and invalid) container -- let the validator name it.
      ::close(fd);
      bytes = {};
      return;
    }
    void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    const int err = errno;
    ::close(fd);
    if (p == MAP_FAILED) {
      throw std::runtime_error("cannot mmap " + path + ": " +
                               std::strerror(err));
    }
    map = p;
    map_size = size;
    bytes = {static_cast<const char*>(p), size};
  }
};

BinaryInstanceSource::BinaryInstanceSource(const std::string& path)
    : buffer_(std::make_unique<Buffer>()) {
  buffer_->map_file(path);
  view_ = std::make_unique<wire::InstanceView>(buffer_->bytes);
}

BinaryInstanceSource::BinaryInstanceSource(std::istream& in)
    : buffer_(std::make_unique<Buffer>()) {
  buffer_->slurp(in);
  view_ = std::make_unique<wire::InstanceView>(buffer_->bytes);
}

BinaryInstanceSource::BinaryInstanceSource(std::string_view bytes)
    : view_(std::make_unique<wire::InstanceView>(bytes)) {}

BinaryInstanceSource::~BinaryInstanceSource() = default;

std::shared_ptr<const Instance> BinaryInstanceSource::next() {
  if (cursor_ >= view_->count()) return nullptr;
  return std::make_shared<const Instance>(view_->materialize(cursor_++));
}

std::optional<std::size_t> BinaryInstanceSource::size_hint() const {
  return view_->count();
}

std::unique_ptr<InstanceSource> open_instance_source(std::istream& in,
                                                     WireFormatKind format,
                                                     std::size_t first_line) {
  if (format == WireFormatKind::kAuto) {
    // One-byte sniff: the binary magic leads with 'S', a JSONL object with
    // '{' (possibly after whitespace, which the JSONL parser tolerates).
    // peek() keeps the byte in the stream, so either branch reads it all.
    const int first = in.peek();
    format = (first == 'S') ? WireFormatKind::kBinary : WireFormatKind::kJsonl;
  }
  if (format == WireFormatKind::kBinary) {
    return std::make_unique<BinaryInstanceSource>(in);
  }
  return std::make_unique<JsonlInstanceSource>(in, first_line);
}

}  // namespace storesched::storage
