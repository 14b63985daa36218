#include "common/io.hpp"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace storesched {

struct CsvWriter::Impl {
  std::ofstream out;
};

CsvWriter::CsvWriter(const std::string& path) : impl_(new Impl) {
  impl_->out.open(path);
  if (!impl_->out) {
    delete impl_;
    throw std::runtime_error("CsvWriter: cannot open " + path);
  }
}

CsvWriter::~CsvWriter() { delete impl_; }

namespace {

std::string csv_escape(const std::string& field) {
  const bool needs_quote =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quote) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) impl_->out << ',';
    impl_->out << csv_escape(fields[i]);
  }
  impl_->out << '\n';
}

std::string markdown_table(const std::vector<std::string>& header,
                           const std::vector<std::vector<std::string>>& rows) {
  for (const auto& row : rows) {
    if (row.size() != header.size()) {
      throw std::invalid_argument("markdown_table: ragged rows");
    }
  }
  std::vector<std::size_t> width(header.size());
  for (std::size_t c = 0; c < header.size(); ++c) width[c] = header[c].size();
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  std::ostringstream os;
  const auto emit_row = [&](const std::vector<std::string>& row) {
    os << '|';
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << ' ' << std::left << std::setw(static_cast<int>(width[c])) << row[c]
         << " |";
    }
    os << '\n';
  };
  emit_row(header);
  os << '|';
  for (std::size_t c = 0; c < header.size(); ++c) {
    os << ' ' << std::string(width[c], '-') << " |";
  }
  os << '\n';
  for (const auto& row : rows) emit_row(row);
  return os.str();
}

std::string to_dot(const Instance& inst, const std::string& graph_name) {
  std::ostringstream os;
  os << "digraph " << graph_name << " {\n  rankdir=TB;\n";
  for (TaskId i = 0; i < static_cast<TaskId>(inst.n()); ++i) {
    os << "  t" << i << " [label=\"t" << i << "\\np=" << inst.task(i).p
       << ",s=" << inst.task(i).s << "\"];\n";
  }
  if (inst.has_precedence()) {
    const Dag& dag = inst.dag();
    for (TaskId u = 0; u < static_cast<TaskId>(inst.n()); ++u) {
      for (const TaskId v : dag.succs(u)) {
        os << "  t" << u << " -> t" << v << ";\n";
      }
    }
  }
  os << "}\n";
  return os.str();
}

std::string to_text(const Instance& inst) {
  std::ostringstream os;
  os << inst.n() << ' ' << inst.m();
  if (inst.has_precedence()) os << " prec";
  os << '\n';
  for (TaskId i = 0; i < static_cast<TaskId>(inst.n()); ++i) {
    os << inst.task(i).p << ' ' << inst.task(i).s << '\n';
  }
  if (inst.has_precedence()) {
    const Dag& dag = inst.dag();
    for (TaskId u = 0; u < static_cast<TaskId>(inst.n()); ++u) {
      for (const TaskId v : dag.succs(u)) {
        os << u << ' ' << v << '\n';
      }
    }
  }
  return os.str();
}

Instance from_text(const std::string& text) {
  std::istringstream is(text);
  std::string first_line;
  if (!std::getline(is, first_line)) {
    throw std::runtime_error("from_text: empty input");
  }
  std::istringstream head(first_line);
  std::size_t n = 0;
  int m = 0;
  std::string prec_flag;
  if (!(head >> n >> m)) throw std::runtime_error("from_text: bad header");
  const bool has_prec = static_cast<bool>(head >> prec_flag) && prec_flag == "prec";

  std::vector<Task> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!(is >> tasks[i].p >> tasks[i].s)) {
      throw std::runtime_error("from_text: bad task line");
    }
  }
  if (!has_prec) return Instance(std::move(tasks), m);

  Dag dag(n);
  TaskId u = 0;
  TaskId v = 0;
  while (is >> u >> v) dag.add_edge(u, v);
  return Instance(std::move(tasks), m, std::move(dag));
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  append_json_escaped(out, text);
  return out;
}

void append_json_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string instance_to_jsonl(const Instance& inst) {
  std::ostringstream os;
  os << "{\"m\":" << inst.m() << ",\"tasks\":[";
  for (TaskId i = 0; i < static_cast<TaskId>(inst.n()); ++i) {
    if (i > 0) os << ',';
    os << '[' << inst.task(i).p << ',' << inst.task(i).s << ']';
  }
  os << ']';
  if (inst.has_precedence()) {
    os << ",\"edges\":[";
    bool first = true;
    const Dag& dag = inst.dag();
    for (TaskId u = 0; u < static_cast<TaskId>(inst.n()); ++u) {
      for (const TaskId v : dag.succs(u)) {
        if (!first) os << ',';
        os << '[' << u << ',' << v << ']';
        first = false;
      }
    }
    os << ']';
  }
  os << '}';
  return os.str();
}

namespace {

/// "line N: " when the stream position is known, empty otherwise.
std::string line_prefix(std::size_t line_number) {
  return line_number > 0 ? "line " + std::to_string(line_number) + ": " : "";
}

/// Minimal cursor over the fixed instance-line schema. Not a general JSON
/// parser: objects of known keys, arrays of integer pairs, nothing else.
struct JsonCursor {
  std::string_view text;
  std::size_t line_number;  ///< 1-based position in the stream; 0 = unknown
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("instance_from_jsonl: " +
                             line_prefix(line_number) + what + " at byte " +
                             std::to_string(pos));
  }

  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                                 text[pos] == '\r' || text[pos] == '\n')) {
      ++pos;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  std::int64_t parse_int() {
    skip_ws();
    const std::size_t begin = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    if (pos == begin || (pos == begin + 1 && text[begin] == '-')) {
      fail("expected integer");
    }
    std::int64_t value = 0;
    if (std::from_chars(text.data() + begin, text.data() + pos, value).ec !=
        std::errc{}) {
      pos = begin;
      fail("integer out of range");
    }
    return value;
  }

  std::string_view parse_key() {
    expect('"');
    const std::size_t begin = pos;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\') fail("escapes are not allowed in keys");
      ++pos;
    }
    if (pos == text.size()) fail("unterminated key");
    return text.substr(begin, pos++ - begin);
  }

  /// [[a,b],[c,d],...] -> emit(a, b) per pair, in order. May be empty.
  template <typename Emit>
  void parse_pairs(Emit&& emit) {
    expect('[');
    if (consume(']')) return;
    do {
      expect('[');
      const std::int64_t a = parse_int();
      expect(',');
      const std::int64_t b = parse_int();
      expect(']');
      emit(a, b);
    } while (consume(','));
    expect(']');
  }
};

}  // namespace

bool has_binary_wire_magic(std::string_view bytes) {
  return bytes.size() >= sizeof(kBinaryWireMagic) &&
         bytes.compare(0, sizeof(kBinaryWireMagic),
                       std::string_view(kBinaryWireMagic,
                                        sizeof(kBinaryWireMagic))) == 0;
}

Instance instance_from_jsonl(std::string_view line,
                             std::size_t line_number) {
  if (has_binary_wire_magic(line)) {
    throw std::runtime_error(
        "instance_from_jsonl: " + line_prefix(line_number) +
        "input is the binary wire format (magic \"STSCHDB1\"), not JSONL -- "
        "use --format=binary (or auto-detection) instead");
  }
  JsonCursor cur{line, line_number};
  std::optional<int> m;
  bool saw_tasks = false;
  std::vector<Task> tasks;
  std::optional<std::vector<std::pair<std::int64_t, std::int64_t>>> edge_pairs;

  cur.expect('{');
  if (!cur.consume('}')) {
    do {
      const std::string_view key = cur.parse_key();
      cur.expect(':');
      if (key == "m") {
        const std::int64_t v = cur.parse_int();
        if (v < 1 || v > std::numeric_limits<int>::max()) {
          cur.fail("m out of range");
        }
        m = static_cast<int>(v);
      } else if (key == "tasks") {
        // A repeated key replaces the earlier value, as for "m".
        tasks.clear();
        saw_tasks = true;
        cur.parse_pairs(
            [&](std::int64_t p, std::int64_t s) { tasks.push_back({p, s}); });
      } else if (key == "edges") {
        edge_pairs.emplace();
        cur.parse_pairs([&](std::int64_t u, std::int64_t v) {
          edge_pairs->emplace_back(u, v);
        });
      } else {
        cur.fail("unknown key \"" + std::string(key) + "\"");
      }
    } while (cur.consume(','));
    cur.expect('}');
  }
  cur.skip_ws();
  if (cur.pos != line.size()) cur.fail("trailing garbage");
  if (!m) cur.fail("missing \"m\"");
  if (!saw_tasks) cur.fail("missing \"tasks\"");

  const auto n = static_cast<std::int64_t>(tasks.size());
  try {
    if (!edge_pairs) return Instance(std::move(tasks), *m);
    Dag dag(tasks.size());
    for (const auto& [u, v] : *edge_pairs) {
      if (u < 0 || u >= n || v < 0 || v >= n) {
        throw std::invalid_argument("edge [" + std::to_string(u) + "," +
                                    std::to_string(v) +
                                    "] references a task outside [0, " +
                                    std::to_string(n) + ")");
      }
      dag.add_edge(static_cast<TaskId>(u), static_cast<TaskId>(v));
    }
    return Instance(std::move(tasks), *m, std::move(dag));
  } catch (const std::invalid_argument& e) {
    // Instance/Dag validation reports as std::invalid_argument; the wire
    // contract is one exception type for any malformed line.
    throw std::runtime_error("instance_from_jsonl: " +
                             line_prefix(line_number) + e.what());
  }
}

std::string fmt(double v, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << v;
  return os.str();
}

}  // namespace storesched
