#include "common/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/json_cursor.hpp"

namespace storesched {

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
  const bool has_prec = static_cast<bool>(head >> prec_flag);
  if ((has_prec && prec_flag != "prec") || head >> prec_flag) {
    throw std::runtime_error("from_text: bad header");
  }
  // A task line takes at least four bytes ("0 0\n", the last one three),
  // so an n the rest of the text cannot hold fails before it sizes
  // anything.
  const std::size_t rest =
      text.size() - std::min(text.size(), first_line.size() + 1);
  if (n > (rest + 1) / 4) {
    throw std::runtime_error("from_text: header n exceeds the task lines");
  }

  try {
    std::vector<Task> tasks(n);
    for (Task& task : tasks) {
      if (!(is >> task.p >> task.s)) {
        throw std::runtime_error("from_text: bad task line");
      }
    }
    if (!has_prec) {
      if (!(is >> std::ws).eof()) {
        throw std::runtime_error("from_text: trailing bytes after the tasks");
      }
      return Instance(std::move(tasks), m);
    }
    Dag dag(n);
    TaskId u = 0;
    TaskId v = 0;
    while (is >> u) {
      if (!(is >> v)) throw std::runtime_error("from_text: bad edge line");
      dag.add_edge(u, v);
    }
    if (!is.eof()) throw std::runtime_error("from_text: bad edge line");
    return Instance(std::move(tasks), m, std::move(dag));
  } catch (const std::invalid_argument& e) {
    // Instance/Dag validation reports as std::invalid_argument; malformed
    // text is one exception type, as on the JSONL wire.
    throw std::runtime_error(std::string("from_text: ") + e.what());
  }
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

}  // namespace

Instance read_instance(JsonCursor& cur, std::size_t line_number) {
  enum : std::size_t { kM, kTasks, kEdges };
  static constexpr std::string_view kKeys[] = {"m", "tasks", "edges"};
  int m = 0;
  // The weights gather on the stack (4 KiB), so an instance of up to
  // kStacked tasks allocates its task vector once, at its final size.
  constexpr std::size_t kStacked = 256;
  std::int64_t stacked[2 * kStacked];
  std::size_t count = 0;
  std::vector<Task> tasks;  // the tasks past the stack's room, then all
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  const auto pairs = [&](auto&& emit) {
    cur.array([&] {
      cur.expect('[');
      const std::int64_t a = cur.integer();
      cur.expect(',');
      const std::int64_t b = cur.integer();
      cur.expect(']');
      emit(a, b);
    });
  };
  const std::uint64_t seen = cur.object(kKeys, [&](std::size_t key) {
    if (key == kM) {
      const std::int64_t v = cur.integer();
      if (v < 1 || v > std::numeric_limits<int>::max()) {
        cur.fail("m out of range");
      }
      m = static_cast<int>(v);
    } else if (key == kTasks) {
      pairs([&](std::int64_t p, std::int64_t s) {
        if (count < kStacked) {
          stacked[2 * count] = p;
          stacked[2 * count + 1] = s;
        } else {
          tasks.push_back({p, s});
        }
        ++count;
      });
    } else {
      pairs([&](std::int64_t u, std::int64_t v) { edges.emplace_back(u, v); });
    }
  });
  cur.require(seen, JsonCursor::bit(kM) | JsonCursor::bit(kTasks), kKeys);
  const std::size_t on_stack = std::min(count, kStacked);
  tasks.insert(tasks.begin(), on_stack, Task{});
  for (std::size_t i = 0; i < on_stack; ++i) {
    tasks[i] = {stacked[2 * i], stacked[2 * i + 1]};
  }

  const auto n = static_cast<std::int64_t>(tasks.size());
  try {
    if (!(seen & JsonCursor::bit(kEdges))) return Instance(std::move(tasks), m);
    Dag dag(tasks.size());
    for (const auto& [u, v] : edges) {
      if (u < 0 || u >= n || v < 0 || v >= n) {
        throw std::invalid_argument("edge [" + std::to_string(u) + "," +
                                    std::to_string(v) +
                                    "] references a task outside [0, " +
                                    std::to_string(n) + ")");
      }
      dag.add_edge(static_cast<TaskId>(u), static_cast<TaskId>(v));
    }
    return Instance(std::move(tasks), m, std::move(dag));
  } catch (const std::invalid_argument& e) {
    // Instance/Dag validation reports as std::invalid_argument; the wire
    // contract is one exception type for any malformed line.
    throw std::runtime_error("instance_from_jsonl: " +
                             line_prefix(line_number) + e.what());
  }
}

Instance instance_from_jsonl(std::string_view line,
                             std::size_t line_number) {
  JsonCursor cur(line);
  try {
    Instance inst = read_instance(cur, line_number);
    cur.expect_end();
    return inst;
  } catch (const JsonError& e) {
    throw std::runtime_error("instance_from_jsonl: " +
                             line_prefix(line_number) + e.what() +
                             " at byte " + std::to_string(e.offset()));
  }
}

std::string fmt(double v, int decimals) {
  // std::to_chars with a precision prints what printf's "%.*f" prints.
  const auto write = [&](char* first, char* last) {
    return std::to_chars(first, last, v, std::chars_format::fixed, decimals);
  };
  char buf[64];
  if (const auto r = write(buf, buf + sizeof buf); r.ec == std::errc{}) {
    return std::string(buf, r.ptr);
  }
  // Wider than the buffer: -DBL_MAX has 309 integer digits, and a negative
  // precision means 6 decimals, as in printf.
  std::string out(312 + static_cast<std::size_t>(std::max(decimals, 6)), '\0');
  const char* end = write(out.data(), out.data() + out.size()).ptr;
  out.resize(static_cast<std::size_t>(end - out.data()));
  return out;
}

}  // namespace storesched
