// Reporting helpers: CSV tables, Markdown tables, Graphviz DOT export.
//
// The bench harness prints every regenerated figure as (a) a human-readable
// Markdown table on stdout and (b) optionally a CSV file for plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/instance.hpp"
#include "common/schedule.hpp"

namespace storesched {

/// Minimal CSV writer: quotes fields containing separators/quotes/newlines.
class CsvWriter {
 public:
  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit CsvWriter(const std::string& path);
  ~CsvWriter();
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  void write_row(const std::vector<std::string>& fields);

 private:
  struct Impl;
  Impl* impl_;
};

/// Renders rows as a GitHub-flavoured Markdown table. `header` supplies the
/// column names; all rows must have header.size() fields.
std::string markdown_table(const std::vector<std::string>& header,
                           const std::vector<std::vector<std::string>>& rows);

/// Graphviz DOT of a precedence instance: node label "id\np=..,s=..".
std::string to_dot(const Instance& inst, const std::string& graph_name = "dag");

/// Serializes an instance to a simple text format:
///   line 1: n m [prec]
///   next n lines: p_i s_i
///   if prec: remaining lines "u v" edges
std::string to_text(const Instance& inst);

/// Parses the to_text format back. Throws std::runtime_error on malformed
/// input. Round-trips exactly with to_text.
Instance from_text(const std::string& text);

/// Escapes `text` for embedding inside a JSON string literal (the
/// surrounding quotes are not included).
std::string json_escape(const std::string& text);

/// json_escape(), appended to `out`.
void append_json_escaped(std::string& out, std::string_view text);

/// First bytes of the binary columnar wire format (docs/WIRE_FORMAT.md,
/// storage/wire_format.hpp). Defined here -- below the storage layer -- so
/// the JSONL parsers can *name* the other wire when handed its bytes:
/// feeding a binary file to a JSONL reader is a format mix-up worth a
/// precise error, not a cascade of "expected '{'" noise.
inline constexpr char kBinaryWireMagic[8] = {'S', 'T', 'S', 'C',
                                             'H', 'D', 'B', '1'};

/// True iff `bytes` begins with the binary wire magic.
bool has_binary_wire_magic(std::string_view bytes);

/// Serializes an instance as one compact JSON object -- the line format of
/// the streaming JSONL wire protocol (core/stream.hpp, storesched_cli):
///   {"m":3,"tasks":[[p,s],...],"edges":[[u,v],...]}
/// "edges" is omitted for independent instances (and kept, possibly empty,
/// for precedence instances). Round-trips through instance_from_jsonl().
std::string instance_to_jsonl(const Instance& inst);

/// Parses an instance_to_jsonl() object. Whitespace between tokens and any
/// key order are accepted; "m" and "tasks" are required. Throws
/// std::runtime_error naming the offending token on malformed input,
/// unknown keys, or an invalid instance (bad m, negative weights, cyclic
/// or out-of-range edges). Pass the 1-based `line_number` of the line in
/// its stream so the error also names it -- a bad line deep in a
/// million-line JSONL stream is unlocatable from the byte offset alone
/// (0 = unknown, omit the prefix).
Instance instance_from_jsonl(std::string_view line,
                             std::size_t line_number = 0);

/// Formats a double with the given number of decimals (fixed notation).
std::string fmt(double v, int decimals = 3);

}  // namespace storesched
