// Tests for the shm store's segment layout (storage/wire_format.hpp):
// lossless round-trips across every generator family (including DAGs),
// canonical-bytes fixpoint, result-record fidelity against the JSONL wire,
// and strict rejection of hostile bytes (truncations, bit flips, bad
// magic, version and kind skew) -- errors, never UB.
#include "storage/wire_format.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/dag_generators.hpp"
#include "common/generators.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "core/stream.hpp"

namespace storesched {
namespace {

/// One representative per generator family, plus edge cases the columns
/// must carry exactly (empty instance list is covered separately).
std::vector<Instance> family_instances() {
  Rng rng(0xB1);
  std::vector<Instance> out;
  GenParams gp;
  gp.n = 24;
  gp.m = 3;
  for (const char* name :
       {"uniform", "correlated", "anticorrelated", "bimodal"}) {
    out.push_back(generate_by_name(name, gp, rng));
  }
  out.push_back(generate_physics_batch(40, 4, 1.6, rng));
  out.push_back(generate_memory_tight(gp, 1.5, rng));
  for (const char* name :
       {"layered", "random", "forkjoin", "cholesky", "fft", "soc"}) {
    out.push_back(generate_dag_by_name(name, 20, 4, {}, rng));
  }
  out.push_back(Instance({}, 1));              // zero tasks
  out.push_back(Instance({{0, 0}}, 7));        // zero weights
  out.push_back(Instance({{5, 3}}, 1, Dag(1)));  // DAG flag, no edges
  return out;
}

/// Views `bytes` from an 8-aligned copy, as a shm mapping would present
/// them, and materializes every record. Without the copy InstanceView
/// rejects the buffer for its alignment before any format check runs.
std::vector<Instance> materialize_all(std::string_view bytes) {
  std::vector<std::uint64_t> aligned(bytes.size() / 8 + 1);
  std::memcpy(aligned.data(), bytes.data(), bytes.size());
  const wire::InstanceView view(
      {reinterpret_cast<const char*>(aligned.data()), bytes.size()});
  std::vector<Instance> out;
  for (std::size_t i = 0; i < view.count(); ++i) {
    out.push_back(view.materialize(i));
  }
  return out;
}

/// The error materialize_all() raises for `bytes`, or "" if it accepts.
std::string rejection_of(std::string_view bytes) {
  try {
    materialize_all(bytes);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

std::string jsonl_of(const std::vector<Instance>& instances) {
  std::string text;
  for (const Instance& inst : instances) {
    text += instance_to_jsonl(inst);
    text += '\n';
  }
  return text;
}

TEST(WireFormatInstances, RoundTripsEveryFamilyLosslessly) {
  const std::vector<Instance> original = family_instances();
  const std::string blob = wire::encode_instances(original);
  const std::vector<Instance> decoded = materialize_all(blob);
  ASSERT_EQ(decoded.size(), original.size());
  // Bit-identical: the JSONL rendering covers every field an instance has
  // (m, weights, edges in emission order).
  EXPECT_EQ(jsonl_of(decoded), jsonl_of(original));
  // Canonical writer: encode(decode(encode(x))) == encode(x).
  EXPECT_EQ(wire::encode_instances(decoded), blob);
}

TEST(WireFormatInstances, EmptyContainerRoundTrips) {
  const std::string blob = wire::encode_instances({});
  EXPECT_EQ(blob.substr(0, 8), "STSCHDB1");
  EXPECT_EQ(materialize_all(blob).size(), 0u);
  EXPECT_EQ(wire::encode_instances(materialize_all(blob)), blob);
}

TEST(WireFormatInstances, ViewRequiresAnAlignedBuffer) {
  // The view reads its columns in place, so it takes only what a mapping
  // guarantees: an 8-aligned buffer. One byte off, the same bytes are
  // refused before any format check.
  const std::vector<Instance> original = family_instances();
  const std::string blob = wire::encode_instances(original);
  std::vector<std::uint64_t> buffer(blob.size() / 8 + 2);
  char* const base = reinterpret_cast<char*>(buffer.data());
  std::memcpy(base, blob.data(), blob.size());
  EXPECT_EQ(wire::InstanceView({base, blob.size()}).count(), original.size());
  std::memcpy(base + 1, blob.data(), blob.size());
  try {
    wire::InstanceView misaligned({base + 1, blob.size()});
    FAIL() << "misaligned buffer accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not 8-byte aligned"),
              std::string::npos)
        << e.what();
  }
}

TEST(WireFormat, RejectsBadMagic) {
  // A JSONL line is not a segment: it fails on its first byte.
  EXPECT_NE(rejection_of("{\"m\":1,\"tasks\":[[1,1]]}\n").find("bad magic"),
            std::string::npos);
  std::string blob = wire::encode_instances(family_instances());
  blob[7] = '2';
  EXPECT_NE(rejection_of(blob).find("bad magic"), std::string::npos);
}

TEST(WireFormat, RejectsKindConfusion) {
  // An instance container stamped kind 2 (the retired result container)
  // under a valid header checksum: the kind check is what rejects it.
  std::string blob = wire::encode_instances(family_instances());
  const std::uint32_t kind = 2;
  std::memcpy(blob.data() + 12, &kind, sizeof kind);
  const std::uint32_t header_crc = wire::crc32(blob.data(), 36);
  std::memcpy(blob.data() + 36, &header_crc, sizeof header_crc);
  const std::string error = rejection_of(blob);
  EXPECT_NE(error.find("unknown payload kind 2"), std::string::npos) << error;
}

TEST(WireFormatHostile, EveryTruncationIsAnError) {
  std::vector<Instance> few = family_instances();
  few.resize(8, Instance({}, 1));
  const std::string blob = wire::encode_instances(few);
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const std::string error = rejection_of(blob.substr(0, len));
    EXPECT_FALSE(error.empty()) << "prefix of " << len << " bytes accepted";
    EXPECT_EQ(error.find("aligned"), std::string::npos) << error;
  }
}

TEST(WireFormatHostile, EverySingleBitFlipIsDetected) {
  std::vector<Instance> one = family_instances();
  one.resize(1, Instance({}, 1));
  const std::string blob = wire::encode_instances(one);
  for (std::size_t byte = 0; byte < blob.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = blob;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      const std::string error = rejection_of(mutated);
      EXPECT_FALSE(error.empty())
          << "flip at byte " << byte << " bit " << bit << " accepted";
      EXPECT_EQ(error.find("aligned"), std::string::npos) << error;
    }
  }
}

TEST(WireFormatHostile, RejectsVersionSkew) {
  std::string blob = wire::encode_instances({});
  const std::uint32_t future = wire::kWireVersion + 1;
  std::memcpy(blob.data() + 8, &future, 4);
  // Re-stamp the header CRC so the version check itself is what fires.
  const std::uint32_t crc = wire::crc32(blob.data(), 36);
  std::memcpy(blob.data() + 36, &crc, 4);
  const std::string error = rejection_of(blob);
  EXPECT_NE(error.find("unsupported version"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

/// Results exercising every optional field combination the wire can
/// carry: infeasible, assignment-only, timed, bounds present and absent,
/// diagnostics with JSON-hostile characters.
std::vector<SolveResult> sample_results() {
  std::vector<SolveResult> rows;
  {
    SolveResult result;
    result.feasible = false;
    result.delta = Fraction(3, 2);
    result.diagnostics = "infeasible: capacity 5 < max_s 9\n\"quoted\"";
    rows.push_back(result);
  }
  {
    SolveResult result;
    result.feasible = true;
    Schedule sched(3, 2);
    sched.assign(0, 0);
    sched.assign(1, 1);
    sched.assign(2, 0);
    result.schedule = sched;
    result.objectives = {10, 7};
    result.cmax_bound = Fraction(21, 2);
    result.cmax_ratio = Fraction(4, 3);
    rows.push_back(result);
  }
  {
    SolveResult result;
    result.feasible = true;
    Schedule sched(2, 4);
    sched.assign(0, 3, 0);
    sched.assign(1, 0, 5);
    result.schedule = sched;
    result.objectives = {9, 4};
    result.sum_ci = 14;
    result.delta = Fraction(1);
    result.mmax_bound = Fraction(8);
    result.mmax_ratio = Fraction(2);
    result.sumci_ratio = Fraction(3, 2);
    rows.push_back(result);
  }
  return rows;
}

TEST(WireFormatResults, PayloadBlobRoundTripsEveryRow) {
  for (const SolveResult& result : sample_results()) {
    const std::string payload = wire::encode_result_payload(result);
    const SolveResult back = wire::decode_result_payload(payload);
    EXPECT_EQ(result_to_jsonl(1, back, {.include_schedule = true}),
              result_to_jsonl(1, result, {.include_schedule = true}));
    EXPECT_EQ(wire::encode_result_payload(back), payload);
  }
}

TEST(WireFormatResults, HostilePayloadBlobIsAnError) {
  const std::string payload =
      wire::encode_result_payload(sample_results()[2]);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_THROW(wire::decode_result_payload(payload.substr(0, len)),
                 std::runtime_error);
  }
  for (std::size_t byte = 0; byte < payload.size(); ++byte) {
    std::string mutated = payload;
    mutated[byte] = static_cast<char>(mutated[byte] ^ 0x40);
    try {
      (void)wire::decode_result_payload(mutated);  // may accept: no checksum
    } catch (const std::runtime_error&) {
    }
  }
}

}  // namespace
}  // namespace storesched
