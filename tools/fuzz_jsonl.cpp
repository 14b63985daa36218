// Fuzz target for the wire formats -- the parsing surfaces a serving tier
// exposes to untrusted bytes: three JSONL readers on the one JSON cursor
// (common/json_cursor.hpp) -- instance lines (common/io.hpp), stream error
// records (core/stream.hpp) and serve requests (serve/protocol.hpp) --
// and the shm store's segment layout (storage/wire_format.hpp).
//
// Contract under fuzzing:
//   * instance_from_jsonl() either returns a valid Instance or throws
//     std::runtime_error. Any other exception type, any crash, and any
//     sanitizer report is a bug.
//   * Accepted lines round-trip: instance_to_jsonl(parse(line)) reparses
//     to an equal instance and is a serialization fixpoint.
//   * Small accepted instances also solve + serialize through
//     result_to_jsonl() without throwing (the full service line path).
//   * stream_error_from_jsonl() and serve_request_from_jsonl() (the
//     storesched_serve request line, embedded instance included) hold the
//     same reject-or-fixpoint contract.
//   * The store segment holds it too, byte-for-byte: InstanceView (the
//     shm read path) and decode_result_payload() either accept or throw
//     std::runtime_error (truncations, bit flips, hostile section tables
//     are errors, never UB); an accepted segment re-encodes to its own
//     bytes, and an accepted payload is a decode -> encode -> decode
//     fixpoint.
//
// Two build modes (CMakeLists.txt):
//   * libFuzzer (-DSTORESCHED_LIBFUZZER=ON, Clang): the CI fuzz job runs a
//     bounded pass over tools/fuzz_corpus/ with ASan+UBSan.
//   * standalone (default, STORESCHED_FUZZ_STANDALONE): main() replays
//     corpus files/directories byte-for-byte through the same target; a
//     ctest (fuzz_jsonl_corpus) runs it over the committed corpus so crash
//     regressions stay pinned under every compiler and sanitizer config.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/io.hpp"
#include "common/schedule.hpp"
#include "core/solver.hpp"
#include "core/stream.hpp"
#include "serve/protocol.hpp"
#include "storage/wire_format.hpp"

namespace {

using storesched::Instance;

[[noreturn]] void die(const char* stage, const std::exception& e) {
  std::fprintf(stderr, "fuzz_jsonl: unexpected exception at %s: %s\n", stage,
               e.what());
  std::abort();
}

/// True iff the two instances are equal field-for-field (the round-trip
/// oracle; Instance itself has no operator== because aggregates are
/// derived).
bool instances_equal(const Instance& a, const Instance& b) {
  if (a.n() != b.n() || a.m() != b.m() ||
      a.has_precedence() != b.has_precedence()) {
    return false;
  }
  for (storesched::TaskId i = 0; i < static_cast<storesched::TaskId>(a.n());
       ++i) {
    if (!(a.task(i) == b.task(i))) return false;
  }
  if (a.has_precedence() && !(a.dag() == b.dag())) return false;
  return true;
}

/// Views `bytes` from an 8-aligned copy (InstanceView needs what shm
/// mappings guarantee) and materializes every record.
std::vector<Instance> materialize_all(std::string_view bytes) {
  std::vector<std::uint64_t> aligned(bytes.size() / 8 + 1);
  std::memcpy(aligned.data(), bytes.data(), bytes.size());
  const storesched::wire::InstanceView view(
      {reinterpret_cast<const char*>(aligned.data()), bytes.size()});
  std::vector<Instance> out;
  out.reserve(view.count());
  for (std::size_t i = 0; i < view.count(); ++i) {
    out.push_back(view.materialize(i));
  }
  return out;
}

/// The store segment (storage/wire_format.hpp): the view over the input
/// bytes, and for whatever it accepts a byte fixpoint -- re-encoding the
/// materialized instances reproduces the input, so they view back equal.
void fuzz_binary(const std::string& line) {
  bool decoded_ok = false;
  std::vector<Instance> decoded;
  try {
    decoded = materialize_all(line);
    decoded_ok = true;
  } catch (const std::runtime_error&) {
    // rejection is the expected outcome for hostile bytes
  } catch (const std::exception& e) {
    die("InstanceView (only std::runtime_error is allowed)", e);
  }
  if (decoded_ok && storesched::wire::encode_instances(decoded) != line) {
    std::fprintf(stderr, "fuzz_jsonl: instance container not a fixpoint\n");
    std::abort();
  }

  // Bare result-payload blobs (the result cache's slot format).
  try {
    const storesched::SolveResult result =
        storesched::wire::decode_result_payload(line);
    const std::string canon = storesched::wire::encode_result_payload(result);
    const storesched::SolveResult back =
        storesched::wire::decode_result_payload(canon);
    if (storesched::result_to_jsonl(0, back, {.include_schedule = true}) !=
            storesched::result_to_jsonl(0, result,
                                        {.include_schedule = true}) ||
        storesched::wire::encode_result_payload(back) != canon) {
      std::fprintf(stderr, "fuzz_jsonl: result payload not a fixpoint\n");
      std::abort();
    }
  } catch (const std::runtime_error&) {
    // rejection is the expected outcome for hostile bytes
  } catch (const std::exception& e) {
    die("result payload decode (only std::runtime_error is allowed)", e);
  }
}

void fuzz_one(const std::uint8_t* data, std::size_t size) {
  // Bound the per-input work: the wire format is line-oriented and a
  // megabyte-scale single line only slows exploration down.
  constexpr std::size_t kMaxInput = std::size_t{1} << 20;
  if (size > kMaxInput) return;
  const std::string line(reinterpret_cast<const char*>(data), size);

  // The error-record wire (core/stream.hpp) shares the contract: reject
  // with std::runtime_error or accept into a canonical round-trip fixpoint.
  try {
    const storesched::StreamError error =
        storesched::stream_error_from_jsonl(line);
    const std::string wire = storesched::stream_error_to_jsonl(error);
    const storesched::StreamError back =
        storesched::stream_error_from_jsonl(wire);
    if (back.index != error.index || back.line != error.line ||
        back.category != error.category || back.attempts != error.attempts ||
        back.what != error.what ||
        storesched::stream_error_to_jsonl(back) != wire) {
      std::fprintf(stderr,
                   "fuzz_jsonl: error-record round-trip mismatch for %s\n",
                   wire.c_str());
      std::abort();
    }
  } catch (const std::runtime_error&) {
    // rejection is the expected outcome for malformed bytes
  } catch (const std::exception& e) {
    die("error-record parse (only std::runtime_error is allowed)", e);
  }

  // The serving tier's request wire (serve/protocol.hpp) -- the surface
  // storesched_serve exposes to raw sockets -- holds the same contract:
  // std::runtime_error on rejection, canonical fixpoint on acceptance.
  try {
    const storesched::ServeRequest request =
        storesched::serve_request_from_jsonl(line);
    const std::string wire = storesched::serve_request_to_jsonl(request);
    const storesched::ServeRequest back =
        storesched::serve_request_from_jsonl(wire);
    const bool equal =
        back.id == request.id && back.spec == request.spec &&
        back.slo_ms == request.slo_ms &&
        back.deadline_ms == request.deadline_ms &&
        back.priority == request.priority && back.quality == request.quality &&
        back.statsz == request.statsz && back.cancel_id == request.cancel_id &&
        back.is_solve() == request.is_solve() &&
        (!request.is_solve() ||
         instances_equal(*back.instance, *request.instance));
    if (!equal || storesched::serve_request_to_jsonl(back) != wire) {
      std::fprintf(stderr,
                   "fuzz_jsonl: serve-request round-trip mismatch for %s\n",
                   wire.c_str());
      std::abort();
    }
  } catch (const std::runtime_error&) {
    // rejection is the expected outcome for malformed bytes
  } catch (const std::exception& e) {
    die("serve-request parse (only std::runtime_error is allowed)", e);
  }

  fuzz_binary(line);

  Instance inst;
  try {
    inst = storesched::instance_from_jsonl(line, /*line_number=*/1);
  } catch (const std::runtime_error&) {
    return;  // rejection is the expected outcome for malformed bytes
  } catch (const std::exception& e) {
    die("parse (only std::runtime_error is allowed)", e);
  }

  // Round-trip: serialize -> reparse -> equal, and the serialization is a
  // fixpoint (canonical form).
  try {
    const std::string wire = storesched::instance_to_jsonl(inst);
    const Instance back = storesched::instance_from_jsonl(wire, 1);
    if (!instances_equal(inst, back)) {
      std::fprintf(stderr, "fuzz_jsonl: round-trip mismatch for %s\n",
                   wire.c_str());
      std::abort();
    }
    if (storesched::instance_to_jsonl(back) != wire) {
      std::fprintf(stderr, "fuzz_jsonl: serialization not a fixpoint: %s\n",
                   wire.c_str());
      std::abort();
    }
  } catch (const std::exception& e) {
    die("round-trip", e);
  }

  // Drive small accepted instances through the rest of the service line
  // path: a memory-blind solve plus the result wire format. Bounded so the
  // fuzzer never allocates O(m) gigabytes for a pathological-but-valid
  // {"m":2000000000,...} line.
  if (inst.n() == 0 || inst.n() > 256 || inst.m() > 256) return;
  try {
    static const auto solver = storesched::make_solver("graham:input");
    const storesched::SolveResult result = solver->solve(inst);
    const std::string out = storesched::result_to_jsonl(
        0, result, {.include_schedule = true});
    if (out.empty() || out.front() != '{' || out.back() != '}') {
      std::fprintf(stderr, "fuzz_jsonl: malformed result line: %s\n",
                   out.c_str());
      std::abort();
    }
  } catch (const std::exception& e) {
    die("solve + result_to_jsonl on a valid instance", e);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  fuzz_one(data, size);
  return 0;
}

#ifdef STORESCHED_FUZZ_STANDALONE
// Replay driver: every argument is a corpus file or a directory of corpus
// files; each is fed through the fuzz target once. Exits nonzero if no
// input was replayed (a misplaced corpus must not pass vacuously).
#include <filesystem>
#include <fstream>
#include <vector>

namespace {

int replay_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "fuzz_jsonl: cannot read %s\n", path.c_str());
    return -1;
  }
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  fuzz_one(reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <corpus-file-or-dir>...\n", argv[0]);
    return 2;
  }
  int replayed = 0;
  for (int i = 1; i < argc; ++i) {
    const std::filesystem::path arg(argv[i]);
    std::error_code ec;
    if (std::filesystem::is_directory(arg, ec)) {
      std::vector<std::filesystem::path> entries;
      for (const auto& entry : std::filesystem::directory_iterator(arg)) {
        if (entry.is_regular_file()) entries.push_back(entry.path());
      }
      for (const auto& path : entries) {
        const int r = replay_file(path);
        if (r < 0) return 1;
        replayed += r;
      }
    } else {
      const int r = replay_file(arg);
      if (r < 0) return 1;
      replayed += r;
    }
  }
  if (replayed == 0) {
    std::fprintf(stderr, "fuzz_jsonl: no corpus inputs found\n");
    return 1;
  }
  std::printf("fuzz_jsonl: replayed %d corpus inputs, no crashes\n", replayed);
  return 0;
}
#endif  // STORESCHED_FUZZ_STANDALONE
