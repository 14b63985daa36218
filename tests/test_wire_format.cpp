// Tests for the binary columnar wire format (storage/wire_format.hpp):
// lossless round-trips across every generator family (including DAGs),
// canonical-bytes fixpoint, result-record fidelity against the JSONL wire,
// and strict rejection of hostile bytes (truncations, bit flips, format
// mix-ups) -- errors, never UB.
#include "storage/wire_format.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
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
  const std::vector<Instance> decoded = wire::decode_instances(blob);
  ASSERT_EQ(decoded.size(), original.size());
  // Bit-identical: the JSONL rendering covers every field an instance has
  // (m, weights, edges in emission order).
  EXPECT_EQ(jsonl_of(decoded), jsonl_of(original));
  // Canonical writer: encode(decode(encode(x))) == encode(x).
  EXPECT_EQ(wire::encode_instances(decoded), blob);
}

TEST(WireFormatInstances, EmptyContainerRoundTrips) {
  const std::string blob = wire::encode_instances({});
  EXPECT_TRUE(has_binary_wire_magic(blob));
  EXPECT_EQ(wire::decode_instances(blob).size(), 0u);
  EXPECT_EQ(wire::encode_instances(wire::decode_instances(blob)), blob);
}

TEST(WireFormatInstances, ViewExposesColumnsWithoutMaterializing) {
  const std::vector<Instance> original = family_instances();
  const std::string blob = wire::encode_instances(original);
  const wire::InstanceView view(blob);
  ASSERT_EQ(view.count(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(view.m(i), original[i].m());
    EXPECT_EQ(view.has_dag(i), original[i].has_precedence());
    ASSERT_EQ(view.task_p(i).size(), original[i].n());
    for (std::size_t t = 0; t < original[i].n(); ++t) {
      EXPECT_EQ(view.task_p(i)[t], original[i].task(static_cast<TaskId>(t)).p);
      EXPECT_EQ(view.task_s(i)[t], original[i].task(static_cast<TaskId>(t)).s);
    }
    EXPECT_EQ(instance_to_jsonl(view.materialize(i)),
              instance_to_jsonl(original[i]));
  }
}

TEST(WireFormat, JsonlParserNamesTheBinaryWireOnMixup) {
  const std::string blob = wire::encode_instances(family_instances());
  try {
    instance_from_jsonl(blob, 3);
    FAIL() << "binary bytes accepted as JSONL";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("binary wire"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(WireFormat, BinaryReaderNamesJsonlOnMixup) {
  try {
    wire::decode_instances("{\"m\":1,\"tasks\":[[1,1]]}\n");
    FAIL() << "JSONL bytes accepted as binary";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("JSONL"), std::string::npos);
  }
}

TEST(WireFormat, RejectsKindConfusion) {
  // An instance container stamped kind 2 (the retired result container)
  // under a valid header checksum: the kind check is what rejects it.
  std::string blob = wire::encode_instances(family_instances());
  const std::uint32_t kind = 2;
  std::memcpy(blob.data() + 12, &kind, sizeof kind);
  const std::uint32_t header_crc = wire::crc32(blob.data(), 36);
  std::memcpy(blob.data() + 36, &header_crc, sizeof header_crc);
  try {
    wire::decode_instances(blob);
    FAIL() << "kind 2 accepted as an instance container";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown payload kind 2"),
              std::string::npos)
        << e.what();
  }
}

TEST(WireFormatHostile, EveryTruncationIsAnError) {
  std::vector<Instance> few = family_instances();
  few.resize(8, Instance({}, 1));
  const std::string blob = wire::encode_instances(few);
  for (std::size_t len = 0; len < blob.size(); ++len) {
    EXPECT_THROW(wire::decode_instances(blob.substr(0, len)),
                 std::runtime_error)
        << "prefix of " << len << " bytes accepted";
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
      EXPECT_THROW(wire::decode_instances(mutated), std::runtime_error)
          << "flip at byte " << byte << " bit " << bit << " accepted";
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
  try {
    wire::decode_instances(blob);
    FAIL() << "future version accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
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
