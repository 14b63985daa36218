#include "storage/wire_format.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

namespace storesched::wire {

// The reader reads typed columns straight out of the buffer; every offset
// it computes is 8-aligned, so host order must be the wire order for the
// no-copy reads to be the decode.
static_assert(std::endian::native == std::endian::little,
              "the binary wire is little-endian and this reader is no-copy");
static_assert(sizeof(Time) == 8 && sizeof(Mem) == 8 && sizeof(TaskId) == 4,
              "wire column widths track common/types.hpp");

namespace {

constexpr std::string_view kMagic = "STSCHDB1";
constexpr std::size_t kHeaderSize = 48;
constexpr std::size_t kHeaderCrcSpan = 36;  ///< bytes covered by header_crc
constexpr std::size_t kSectionEntrySize = 32;
constexpr std::size_t kInstanceRecordSize = 40;
constexpr std::size_t kResultRecordSize = 168;
constexpr std::uint32_t kMaxSections = 16;

enum SectionKind : std::uint32_t {
  kSecInstanceRecords = 1,
  kSecTaskP = 2,
  kSecTaskS = 3,
  kSecEdgeSrc = 4,
  kSecEdgeDst = 5,
};

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("binary wire: " + what);
}

std::size_t align8(std::size_t v) { return (v + 7) & ~std::size_t{7}; }

// ---- little-endian append helpers (host is little-endian, asserted) ----

template <typename T>
void put(std::string& out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

void pad_to_8(std::string& out) { out.append(align8(out.size()) - out.size(), '\0'); }

// ---- checked reads ----

template <typename T>
T get(std::string_view b, std::size_t off) {
  T v;
  std::memcpy(&v, b.data() + off, sizeof(T));
  return v;
}

/// One section-table row, already bounds-checked against the buffer.
struct Section {
  std::uint32_t kind = 0;
  std::uint32_t crc = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint64_t count = 0;
};

std::size_t element_size(std::uint32_t kind) {
  switch (kind) {
    case kSecInstanceRecords: return kInstanceRecordSize;
    case kSecTaskP: return 8;
    case kSecTaskS: return 8;
    case kSecEdgeSrc: return 4;
    case kSecEdgeDst: return 4;
    default: return 0;
  }
}

/// Deep validation of one instance's edge range: self-loops, duplicate
/// edges, cycles. Range and ascending-source checks already ran, so a CSR
/// row table can be built by scanning the source column once.
void validate_dag_edges(std::uint64_t instance_index, std::uint64_t n,
                        std::span<const std::int32_t> src,
                        std::span<const std::int32_t> dst) {
  const auto fail_inst = [&](const std::string& what) {
    fail("instance " + std::to_string(instance_index) + ": " + what);
  };
  std::vector<std::size_t> row(n + 1, 0);
  for (const std::int32_t u : src) ++row[static_cast<std::size_t>(u) + 1];
  for (std::size_t v = 0; v < n; ++v) row[v + 1] += row[v];
  std::vector<std::size_t> indeg(n, 0);
  for (std::size_t e = 0; e < dst.size(); ++e) {
    if (src[e] == dst[e]) fail_inst("self-loop edge");
    ++indeg[static_cast<std::size_t>(dst[e])];
  }
  // Duplicate (u, v) pairs: successor lists keep insertion order on the
  // wire, so sort a scratch copy of each row and look for equal neighbours.
  std::vector<std::int32_t> scratch;
  for (std::size_t u = 0; u < n; ++u) {
    scratch.assign(dst.begin() + row[u], dst.begin() + row[u + 1]);
    std::sort(scratch.begin(), scratch.end());
    if (std::adjacent_find(scratch.begin(), scratch.end()) != scratch.end()) {
      fail_inst("duplicate edge");
    }
  }
  // Kahn's algorithm; anything left with in-degree > 0 is on a cycle.
  std::vector<std::int32_t> stack;
  for (std::size_t v = 0; v < n; ++v) {
    if (indeg[v] == 0) stack.push_back(static_cast<std::int32_t>(v));
  }
  std::size_t visited = 0;
  while (!stack.empty()) {
    const auto u = static_cast<std::size_t>(stack.back());
    stack.pop_back();
    ++visited;
    for (std::size_t e = row[u]; e < row[u + 1]; ++e) {
      if (--indeg[static_cast<std::size_t>(dst[e])] == 0) {
        stack.push_back(dst[e]);
      }
    }
  }
  if (visited != n) fail_inst("precedence graph has a cycle");
}

struct Container {
  std::uint64_t payload_count = 0;
  std::vector<Section> sections;
};

/// Parses and fully validates the container frame: header, section table,
/// canonical back-to-back layout with zero padding, per-section checksums.
/// Accepted bytes are canonical: re-encoding the decoded payload
/// reproduces them exactly.
Container parse_container(std::string_view bytes,
                          std::span<const std::uint32_t> required_kinds) {
  if (bytes.substr(0, kMagic.size()) != kMagic) {
    fail("bad magic (expected \"STSCHDB1\")");
  }
  if (bytes.size() < kHeaderSize) fail("truncated header");
  const auto version = get<std::uint32_t>(bytes, 8);
  if (version != kWireVersion) {
    fail("unsupported version " + std::to_string(version) + " (this build " +
         "reads version " + std::to_string(kWireVersion) + ")");
  }
  const auto kind = get<std::uint32_t>(bytes, 12);
  if (kind != static_cast<std::uint32_t>(PayloadKind::kInstances)) {
    fail("unknown payload kind " + std::to_string(kind));
  }
  Container c;
  c.payload_count = get<std::uint64_t>(bytes, 16);
  const auto file_size = get<std::uint64_t>(bytes, 24);
  if (file_size != bytes.size()) {
    fail("file size mismatch: header says " + std::to_string(file_size) +
         " bytes, buffer has " + std::to_string(bytes.size()));
  }
  const auto section_count = get<std::uint32_t>(bytes, 32);
  if (section_count == 0 || section_count > kMaxSections) {
    fail("section count " + std::to_string(section_count) + " outside [1, " +
         std::to_string(kMaxSections) + "]");
  }
  const auto header_crc = get<std::uint32_t>(bytes, 36);
  if (header_crc != crc32(bytes.data(), kHeaderCrcSpan)) {
    fail("header checksum mismatch");
  }
  if (get<std::uint64_t>(bytes, 40) != 0) fail("nonzero reserved field");

  const std::size_t table_end =
      kHeaderSize + std::size_t{section_count} * kSectionEntrySize;
  if (table_end > bytes.size()) fail("truncated section table");

  if (section_count != required_kinds.size()) {
    fail("expected " + std::to_string(required_kinds.size()) +
         " sections, found " + std::to_string(section_count));
  }
  std::size_t running = align8(table_end);
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::size_t at = kHeaderSize + std::size_t{i} * kSectionEntrySize;
    Section sec;
    sec.kind = get<std::uint32_t>(bytes, at);
    sec.crc = get<std::uint32_t>(bytes, at + 4);
    sec.offset = get<std::uint64_t>(bytes, at + 8);
    sec.size = get<std::uint64_t>(bytes, at + 16);
    sec.count = get<std::uint64_t>(bytes, at + 24);
    if (sec.kind != required_kinds[i]) {
      fail("section " + std::to_string(i) + " has kind " +
           std::to_string(sec.kind) + ", canonical order requires " +
           std::to_string(required_kinds[i]));
    }
    const std::size_t elem = element_size(sec.kind);
    if (sec.count > bytes.size() / elem || sec.size != sec.count * elem) {
      fail("section " + std::to_string(sec.kind) + " size " +
           std::to_string(sec.size) + " does not match count " +
           std::to_string(sec.count));
    }
    // Canonical layout: sections tile the file back-to-back, 8-aligned,
    // zero-padded. Every accepted byte is accounted for.
    if (sec.offset != running) {
      fail("section " + std::to_string(sec.kind) + " at offset " +
           std::to_string(sec.offset) + ", canonical layout requires " +
           std::to_string(running));
    }
    if (sec.size > bytes.size() - sec.offset) {
      fail("section " + std::to_string(sec.kind) + " overruns the buffer");
    }
    if (sec.crc != crc32(bytes.data() + sec.offset, sec.size)) {
      fail("section " + std::to_string(sec.kind) + " checksum mismatch");
    }
    const std::size_t end = sec.offset + sec.size;
    running = align8(end);
    const std::size_t pad_end = std::min(running, bytes.size());
    for (std::size_t b = end; b < pad_end; ++b) {
      if (bytes[b] != '\0') fail("nonzero padding byte");
    }
    c.sections.push_back(sec);
  }
  // Zero padding between the section table and the first section.
  for (std::size_t b = table_end; b < align8(table_end); ++b) {
    if (bytes[b] != '\0') fail("nonzero padding byte");
  }
  const std::size_t last_end =
      c.sections.back().offset + c.sections.back().size;
  if (last_end != bytes.size()) {
    fail("trailing bytes after the last section");
  }
  return c;
}

/// Emits header + section table + payload columns in canonical form.
std::string assemble(std::uint64_t payload_count,
                     std::span<const std::pair<std::uint32_t, const std::string*>>
                         sections) {
  std::string out;
  out.append(kMagic);
  put<std::uint32_t>(out, kWireVersion);
  put<PayloadKind>(out, PayloadKind::kInstances);
  put<std::uint64_t>(out, payload_count);
  put<std::uint64_t>(out, 0);  // file_size, patched below
  put<std::uint32_t>(out, static_cast<std::uint32_t>(sections.size()));
  put<std::uint32_t>(out, 0);  // header_crc, patched below
  put<std::uint64_t>(out, 0);  // reserved

  const std::size_t table_at = out.size();
  std::size_t running =
      align8(table_at + sections.size() * kSectionEntrySize);
  for (const auto& [sec_kind, body] : sections) {
    put<std::uint32_t>(out, sec_kind);
    put<std::uint32_t>(out, crc32(body->data(), body->size()));
    put<std::uint64_t>(out, running);
    put<std::uint64_t>(out, body->size());
    put<std::uint64_t>(out, body->size() / element_size(sec_kind));
    running = align8(running + body->size());
  }
  for (const auto& [sec_kind, body] : sections) {
    (void)sec_kind;
    pad_to_8(out);
    out.append(*body);
  }
  const std::uint64_t file_size = out.size();
  std::memcpy(out.data() + 24, &file_size, 8);
  const std::uint32_t header_crc = crc32(out.data(), kHeaderCrcSpan);
  std::memcpy(out.data() + 36, &header_crc, 4);
  return out;
}

// ---- result-record field plumbing (the cache's payload blobs) ----

constexpr std::uint32_t kResFeasible = 1u << 0;
constexpr std::uint32_t kResSumCi = 1u << 1;
constexpr std::uint32_t kResFrac0 = 1u << 2;  // bits 2..6: optional fractions
constexpr std::uint32_t kResTimed = 1u << 7;
constexpr std::uint32_t kResSchedule = 1u << 8;
constexpr std::uint32_t kResKnownFlags =
    kResFeasible | kResSumCi | (0x1Fu << 2) | kResTimed | kResSchedule;

std::array<const std::optional<Fraction>*, 5> optional_fractions(
    const SolveResult& r) {
  return {&r.cmax_bound, &r.mmax_bound, &r.cmax_ratio, &r.mmax_ratio,
          &r.sumci_ratio};
}

std::array<std::optional<Fraction>*, 5> optional_fractions(SolveResult& r) {
  return {&r.cmax_bound, &r.mmax_bound, &r.cmax_ratio, &r.mmax_ratio,
          &r.sumci_ratio};
}

bool result_has_schedule(const SolveResult& r) {
  return r.feasible && r.schedule.n() > 0 && r.schedule.fully_assigned();
}

/// Appends the 168-byte fixed record. Its index and column-offset slots
/// stay zero: they served the retired result container.
void put_result_record(std::string& out, const SolveResult& r) {
  const bool schedule = result_has_schedule(r);
  const bool timed = schedule && r.schedule.timed();
  std::uint32_t flags = 0;
  if (r.feasible) flags |= kResFeasible;
  if (r.sum_ci) flags |= kResSumCi;
  const auto fracs = optional_fractions(r);
  for (std::size_t i = 0; i < fracs.size(); ++i) {
    if (fracs[i]->has_value()) flags |= kResFrac0 << i;
  }
  if (timed) flags |= kResTimed;
  if (schedule) flags |= kResSchedule;

  put<std::uint64_t>(out, 0);  // index
  put<std::int64_t>(out, r.feasible ? r.objectives.cmax : 0);
  put<std::int64_t>(out, r.feasible ? r.objectives.mmax : 0);
  put<std::int64_t>(out, r.sum_ci.value_or(0));
  put<std::int64_t>(out, r.delta.num());
  put<std::int64_t>(out, r.delta.den());
  for (const auto* f : fracs) {
    put<std::int64_t>(out, *f ? (*f)->num() : 0);
    put<std::int64_t>(out, *f ? (*f)->den() : 0);
  }
  put<std::uint64_t>(out, 0);  // diagnostics offset
  put<std::uint64_t>(out, r.diagnostics.size());
  put<std::uint64_t>(out, 0);  // proc offset
  put<std::uint64_t>(out, schedule ? r.schedule.n() : 0);
  put<std::int32_t>(out, schedule ? r.schedule.m() : 0);
  put<std::uint32_t>(out, flags);
}

/// Decodes the fixed record at the start of `b` (caller guarantees the
/// 168 bytes). Counts come back raw for the caller's layout checks; the
/// scalar fields are validated and written into `out` here.
struct RawResultRecord {
  std::uint64_t diag_size = 0;
  std::uint64_t sched_n = 0;
  std::int32_t sched_m = 0;
  std::uint32_t flags = 0;
};

RawResultRecord get_result_record(std::string_view b, SolveResult& out) {
  RawResultRecord raw;
  const auto cmax = get<std::int64_t>(b, 8);
  const auto mmax = get<std::int64_t>(b, 16);
  const auto sum_ci = get<std::int64_t>(b, 24);
  const auto delta_num = get<std::int64_t>(b, 32);
  const auto delta_den = get<std::int64_t>(b, 40);
  raw.diag_size = get<std::uint64_t>(b, 136);
  raw.sched_n = get<std::uint64_t>(b, 152);
  raw.sched_m = get<std::int32_t>(b, 160);
  raw.flags = get<std::uint32_t>(b, 164);

  if ((raw.flags & ~kResKnownFlags) != 0) fail("unknown result flag bits");
  const bool feasible = raw.flags & kResFeasible;
  const bool schedule = raw.flags & kResSchedule;
  const bool timed = raw.flags & kResTimed;
  if (schedule && !feasible) fail("schedule on an infeasible result");
  if (timed && !schedule) fail("timed flag without a schedule");
  if (!feasible && (cmax != 0 || mmax != 0)) {
    fail("nonzero objectives on an infeasible result");
  }
  if (!(raw.flags & kResSumCi) && sum_ci != 0) fail("nonzero absent sum_ci");
  if (delta_den < 1) fail("delta denominator < 1");
  if (!schedule && (raw.sched_n != 0 || raw.sched_m != 0)) {
    fail("schedule dimensions without a schedule");
  }
  if (schedule && (raw.sched_n == 0 || raw.sched_m < 1)) {
    fail("empty schedule dimensions");
  }

  out.feasible = feasible;
  if (feasible) out.objectives = {cmax, mmax};
  if (raw.flags & kResSumCi) out.sum_ci = sum_ci;
  out.delta = Fraction(delta_num, delta_den);
  if (out.delta.num() != delta_num || out.delta.den() != delta_den) {
    fail("unnormalized delta fraction");
  }
  const auto fracs = optional_fractions(out);
  for (std::size_t i = 0; i < fracs.size(); ++i) {
    const auto num = get<std::int64_t>(b, 48 + 16 * i);
    const auto den = get<std::int64_t>(b, 56 + 16 * i);
    if (!(raw.flags & (kResFrac0 << i))) {
      if (num != 0 || den != 0) fail("nonzero absent fraction");
      continue;
    }
    if (den < 1) fail("fraction denominator < 1");
    const Fraction f(num, den);
    if (f.num() != num || f.den() != den) fail("unnormalized fraction");
    *fracs[i] = f;
  }
  if (get<std::uint64_t>(b, 0) != 0 || get<std::uint64_t>(b, 128) != 0 ||
      get<std::uint64_t>(b, 144) != 0) {
    fail("result payload with column offsets");
  }
  return raw;
}

/// Rebuilds the schedule columns into `out.schedule` with range checks.
void apply_schedule(SolveResult& out, const RawResultRecord& raw,
                    std::string_view proc_bytes, std::string_view start_bytes) {
  if (!(raw.flags & kResSchedule)) return;
  const bool timed = raw.flags & kResTimed;
  Schedule sched(raw.sched_n, raw.sched_m);
  for (std::uint64_t i = 0; i < raw.sched_n; ++i) {
    const auto proc = get<std::int32_t>(proc_bytes, i * 4);
    if (proc < 0 || proc >= raw.sched_m) {
      fail("schedule processor " + std::to_string(proc) + " outside [0, " +
           std::to_string(raw.sched_m) + ")");
    }
    if (timed) {
      const auto start = get<std::int64_t>(start_bytes, i * 8);
      if (start < 0) fail("negative start time");
      sched.assign(static_cast<TaskId>(i), proc, start);
    } else {
      sched.assign(static_cast<TaskId>(i), proc);
    }
  }
  out.schedule = std::move(sched);
}

}  // namespace

// ---------------------------------------------------------------------------
// CRC-32 (IEEE, reflected; the zlib polynomial).
// ---------------------------------------------------------------------------

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  // Slicing-by-8: tables[j] advances a byte through j+1 rounds of the
  // polynomial, so the main loop folds eight input bytes per iteration.
  // Same polynomial, bit-identical to the classic byte-at-a-time loop --
  // validating a large segment (every publish and every attach) is
  // CRC-bound.
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t j = 1; j < 8; ++j) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xFF];
      }
    }
    return t;
  }();
  std::uint32_t crc = ~seed;
  const auto* p = static_cast<const unsigned char*>(data);
  while (size >= 8) {
    const std::uint32_t lo =
        crc ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
               std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
    const std::uint32_t hi =
        std::uint32_t{p[4]} | std::uint32_t{p[5]} << 8 |
        std::uint32_t{p[6]} << 16 | std::uint32_t{p[7]} << 24;
    crc = tables[7][lo & 0xFF] ^ tables[6][(lo >> 8) & 0xFF] ^
          tables[5][(lo >> 16) & 0xFF] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xFF] ^ tables[2][(hi >> 8) & 0xFF] ^
          tables[1][(hi >> 16) & 0xFF] ^ tables[0][hi >> 24];
    p += 8;
    size -= 8;
  }
  for (std::size_t i = 0; i < size; ++i) {
    crc = tables[0][(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

// ---------------------------------------------------------------------------
// Instances.
// ---------------------------------------------------------------------------

std::string encode_instances(std::span<const Instance> instances) {
  std::string records, task_p, task_s, edge_src, edge_dst;
  std::uint64_t task_cursor = 0, edge_cursor = 0;
  for (const Instance& inst : instances) {
    std::uint64_t edges = 0;
    if (inst.has_precedence()) {
      const Dag& dag = inst.dag();
      // CSR order -- ascending source, successor lists in stored order --
      // matches instance_to_jsonl's emission, so an instance published
      // from JSONL materializes to the same JSONL line.
      for (TaskId u = 0; u < static_cast<TaskId>(inst.n()); ++u) {
        for (const TaskId v : dag.succs(u)) {
          put<std::int32_t>(edge_src, u);
          put<std::int32_t>(edge_dst, v);
          ++edges;
        }
      }
    }
    put<std::uint64_t>(records, task_cursor);
    put<std::uint64_t>(records, inst.n());
    put<std::uint64_t>(records, edge_cursor);
    put<std::uint64_t>(records, edges);
    put<std::int32_t>(records, inst.m());
    put<std::uint32_t>(records, inst.has_precedence() ? 1 : 0);
    for (const Task& t : inst.tasks()) put<std::int64_t>(task_p, t.p);
    for (const Task& t : inst.tasks()) put<std::int64_t>(task_s, t.s);
    task_cursor += inst.n();
    edge_cursor += edges;
  }
  const std::array<std::pair<std::uint32_t, const std::string*>, 5> sections{{
      {kSecInstanceRecords, &records},
      {kSecTaskP, &task_p},
      {kSecTaskS, &task_s},
      {kSecEdgeSrc, &edge_src},
      {kSecEdgeDst, &edge_dst},
  }};
  return assemble(instances.size(), sections);
}

InstanceView::InstanceView(std::string_view bytes) {
  if (reinterpret_cast<std::uintptr_t>(bytes.data()) % 8 != 0) {
    fail("buffer is not 8-byte aligned (shm mappings guarantee this)");
  }
  static constexpr std::uint32_t kRequired[] = {
      kSecInstanceRecords, kSecTaskP, kSecTaskS, kSecEdgeSrc, kSecEdgeDst};
  const Container c = parse_container(bytes, kRequired);
  const Section& records = c.sections[0];
  const Section& p = c.sections[1];
  const Section& s = c.sections[2];
  const Section& esrc = c.sections[3];
  const Section& edst = c.sections[4];
  if (records.count != c.payload_count) {
    fail("record count " + std::to_string(records.count) +
         " does not match payload count " + std::to_string(c.payload_count));
  }
  if (p.count != s.count) fail("p/s column lengths differ");
  if (esrc.count != edst.count) fail("edge column lengths differ");

  p_ = reinterpret_cast<const std::int64_t*>(bytes.data() + p.offset);
  s_ = reinterpret_cast<const std::int64_t*>(bytes.data() + s.offset);
  edge_src_ =
      reinterpret_cast<const std::int32_t*>(bytes.data() + esrc.offset);
  edge_dst_ =
      reinterpret_cast<const std::int32_t*>(bytes.data() + edst.offset);

  records_.reserve(records.count);
  std::uint64_t task_cursor = 0, edge_cursor = 0;
  for (std::uint64_t i = 0; i < records.count; ++i) {
    const std::size_t at = records.offset + i * kInstanceRecordSize;
    Record rec;
    rec.task_offset = get<std::uint64_t>(bytes, at);
    rec.task_count = get<std::uint64_t>(bytes, at + 8);
    rec.edge_offset = get<std::uint64_t>(bytes, at + 16);
    rec.edge_count = get<std::uint64_t>(bytes, at + 24);
    rec.m = get<std::int32_t>(bytes, at + 32);
    const auto flags = get<std::uint32_t>(bytes, at + 36);
    if (flags > 1) fail("unknown instance flag bits");
    rec.dag = flags == 1;
    if (rec.m < 1) fail("instance " + std::to_string(i) + ": m < 1");
    // Canonical layout: records tile the columns contiguously in order, so
    // no two records can alias and the total is exactly the column length.
    if (rec.task_offset != task_cursor || rec.edge_offset != edge_cursor) {
      fail("instance " + std::to_string(i) + ": non-contiguous columns");
    }
    if (!rec.dag && rec.edge_count != 0) {
      fail("instance " + std::to_string(i) + ": edges without a DAG flag");
    }
    if (rec.task_count > p.count - task_cursor) {
      fail("instance " + std::to_string(i) + ": task range overruns column");
    }
    if (rec.edge_count > esrc.count - edge_cursor) {
      fail("instance " + std::to_string(i) + ": edge range overruns column");
    }
    if (rec.task_count >
        static_cast<std::uint64_t>(std::numeric_limits<TaskId>::max())) {
      fail("instance " + std::to_string(i) + ": too many tasks");
    }
    // Task weights: exactly the Instance constructor's rules, so that a
    // validated view can hand out columns without re-checking.
    std::int64_t total_p = 0, total_s = 0;
    for (std::uint64_t t = 0; t < rec.task_count; ++t) {
      const std::int64_t tp = p_[task_cursor + t];
      const std::int64_t ts = s_[task_cursor + t];
      if (tp < 0 || ts < 0) {
        fail("instance " + std::to_string(i) + ": negative task weight");
      }
      if (__builtin_add_overflow(total_p, tp, &total_p) ||
          __builtin_add_overflow(total_s, ts, &total_s)) {
        fail("instance " + std::to_string(i) +
             ": task weight sum overflows 64 bits");
      }
    }
    // Edge endpoints in range, sources ascending (CSR order -- also the
    // canonical order encode_instances writes).
    std::int32_t prev_src = -1;
    for (std::uint64_t e = 0; e < rec.edge_count; ++e) {
      const std::int32_t u = edge_src_[edge_cursor + e];
      const std::int32_t v = edge_dst_[edge_cursor + e];
      const auto n = static_cast<std::int64_t>(rec.task_count);
      if (u < 0 || u >= n || v < 0 || v >= n) {
        fail("instance " + std::to_string(i) + ": edge endpoint outside [0, " +
             std::to_string(n) + ")");
      }
      if (u < prev_src) {
        fail("instance " + std::to_string(i) +
             ": edges not in ascending-source order");
      }
      prev_src = u;
    }
    if (rec.edge_count > 0) {
      validate_dag_edges(i, rec.task_count,
                         {edge_src_ + edge_cursor, rec.edge_count},
                         {edge_dst_ + edge_cursor, rec.edge_count});
    }
    task_cursor += rec.task_count;
    edge_cursor += rec.edge_count;
    records_.push_back(rec);
  }
  if (task_cursor != p.count) fail("task columns longer than the records");
  if (edge_cursor != esrc.count) fail("edge columns longer than the records");
}

Instance InstanceView::materialize(std::size_t i) const {
  const Record& rec = records_[i];
  std::vector<Task> tasks;
  tasks.reserve(rec.task_count);
  for (std::uint64_t t = 0; t < rec.task_count; ++t) {
    tasks.push_back({p_[rec.task_offset + t], s_[rec.task_offset + t]});
  }
  try {
    if (!rec.dag) return Instance(std::move(tasks), rec.m);
    Dag dag(rec.task_count);
    for (std::uint64_t e = 0; e < rec.edge_count; ++e) {
      dag.add_edge(edge_src_[rec.edge_offset + e],
                   edge_dst_[rec.edge_offset + e]);
    }
    if (dag.edge_count() != rec.edge_count) {
      fail("instance " + std::to_string(i) + ": duplicate edge");
    }
    return Instance(std::move(tasks), rec.m, std::move(dag));
  } catch (const std::invalid_argument& e) {
    // Instance/Dag validation (negative weights, self-loops, cycles,
    // aggregate overflow); one exception type for any malformed payload.
    fail("instance " + std::to_string(i) + ": " + e.what());
  }
}

// ---------------------------------------------------------------------------
// Single-result payload blobs (the cache's slot format).
// ---------------------------------------------------------------------------

std::string encode_result_payload(const SolveResult& result) {
  std::string out;
  put_result_record(out, result);
  out.append(result.diagnostics);
  pad_to_8(out);
  if (result_has_schedule(result)) {
    for (std::size_t i = 0; i < result.schedule.n(); ++i) {
      put<std::int32_t>(out, result.schedule.proc(static_cast<TaskId>(i)));
    }
    pad_to_8(out);
    if (result.schedule.timed()) {
      for (std::size_t i = 0; i < result.schedule.n(); ++i) {
        put<std::int64_t>(out, result.schedule.start(static_cast<TaskId>(i)));
      }
    }
  }
  return out;
}

SolveResult decode_result_payload(std::string_view bytes) {
  if (bytes.size() < kResultRecordSize) fail("truncated result payload");
  SolveResult result;
  const RawResultRecord raw = get_result_record(bytes, result);
  // Bound the raw counts before any size arithmetic or allocation: a
  // hostile blob must fail here, not in an allocator.
  if (raw.diag_size > bytes.size() || raw.sched_n > bytes.size()) {
    fail("result payload size mismatch");
  }
  const bool timed = raw.flags & kResTimed;
  // Mirrors encode_result_payload exactly: diag then proc are each padded
  // to 8 whenever anything could follow them (encode pads unconditionally).
  const std::size_t diag_at = kResultRecordSize;
  const std::size_t proc_at = align8(diag_at + raw.diag_size);
  const std::size_t start_at = align8(proc_at + raw.sched_n * 4);
  const std::size_t expect = timed ? start_at + raw.sched_n * 8 : start_at;
  if (bytes.size() != expect) fail("result payload size mismatch");
  for (std::size_t b = diag_at + raw.diag_size; b < proc_at; ++b) {
    if (bytes[b] != '\0') fail("nonzero padding byte");
  }
  for (std::size_t b = proc_at + raw.sched_n * 4; b < start_at; ++b) {
    if (bytes[b] != '\0') fail("nonzero padding byte");
  }
  result.diagnostics = std::string(bytes.substr(diag_at, raw.diag_size));
  apply_schedule(result, raw, bytes.substr(proc_at, raw.sched_n * 4),
                 timed ? bytes.substr(start_at, raw.sched_n * 8)
                       : std::string_view{});
  return result;
}

}  // namespace storesched::wire
