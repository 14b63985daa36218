// storesched_client -- pipelined JSONL client for storesched_serve.
//
// Reads request lines from stdin, sends them over one persistent
// connection with up to --window lines outstanding, and prints response
// lines to stdout as they arrive. The protocol guarantees one response
// line per request line, so the client exits once every request has been
// answered -- responses may arrive out of order (match by "id").
//
//   ./storesched_cli --gen=100
//     | sed 's/.*/{"slo_ms":5,"instance":&}/'
//     | ./storesched_client --unix=/tmp/storesched.sock --window=32
//
// Exit status: 0 all requests answered, 1 connection/protocol failure
// (including the --timeout guard firing), 2 usage errors.
#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cstdint>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

namespace {

struct ClientCli {
  std::string unix_path;
  std::optional<int> tcp_port;
  std::string tcp_host = "127.0.0.1";
  std::size_t window = 8;
  int timeout_s = 30;
  bool help = false;
};

void print_usage(std::ostream& os) {
  os << "usage: storesched_client (--unix=PATH | --tcp=PORT) [options] "
        "< requests.jsonl\n"
        "  --unix=PATH      connect to a unix-domain socket\n"
        "  --tcp=PORT       connect to 127.0.0.1:PORT (--host overrides)\n"
        "  --host=ADDR      TCP host (default 127.0.0.1)\n"
        "  --window=N       outstanding pipelined requests (default 8)\n"
        "  --timeout=SEC    abort when no response arrives for SEC seconds\n"
        "                   (default 30)\n";
}

std::int64_t parse_count_flag(const std::string& flag,
                              const std::string& value) {
  try {
    std::size_t used = 0;
    const std::int64_t v = std::stoll(value, &used);
    if (used != value.size() || v < 0) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("malformed value for " + flag + ": \"" + value +
                             "\"");
  }
}

ClientCli parse_cli(int argc, char** argv) {
  ClientCli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg == "--help" || arg == "-h") {
      cli.help = true;
    } else if (arg.rfind("--unix=", 0) == 0) {
      cli.unix_path = value_of("--unix=");
    } else if (arg.rfind("--tcp=", 0) == 0) {
      const std::int64_t port = parse_count_flag(arg, value_of("--tcp="));
      if (port < 1 || port > 65535) {
        throw std::runtime_error("--tcp must be in [1, 65535], got " +
                                 value_of("--tcp="));
      }
      cli.tcp_port = static_cast<int>(port);
    } else if (arg.rfind("--host=", 0) == 0) {
      cli.tcp_host = value_of("--host=");
    } else if (arg.rfind("--window=", 0) == 0) {
      cli.window = static_cast<std::size_t>(
          parse_count_flag(arg, value_of("--window=")));
      if (cli.window == 0) throw std::runtime_error("--window must be >= 1");
    } else if (arg.rfind("--timeout=", 0) == 0) {
      cli.timeout_s =
          static_cast<int>(parse_count_flag(arg, value_of("--timeout=")));
    } else {
      throw std::runtime_error("unknown option: " + arg);
    }
  }
  return cli;
}

int connect_to(const ClientCli& cli) {
  if (!cli.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (cli.unix_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("unix socket path too long: " + cli.unix_path);
    }
    std::memcpy(addr.sun_path, cli.unix_path.c_str(),
                cli.unix_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      if (fd >= 0) ::close(fd);
      throw std::runtime_error("connect(" + cli.unix_path +
                               "): " + std::strerror(errno));
    }
    return fd;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(*cli.tcp_port));
  if (::inet_pton(AF_INET, cli.tcp_host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("bad tcp host: " + cli.tcp_host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("connect(" + cli.tcp_host + ":" +
                             std::to_string(*cli.tcp_port) +
                             "): " + std::strerror(errno));
  }
  return fd;
}

int run(const ClientCli& cli) {
  std::vector<std::string> requests;
  for (std::string line; std::getline(std::cin, line);) {
    if (!line.empty()) requests.push_back(line);
  }
  if (requests.empty()) return 0;

  const int fd = connect_to(cli);
  std::size_t next_send = 0;    // first request not yet fully written
  std::size_t send_off = 0;     // byte offset into requests[next_send]
  bool send_newline = false;    // payload written, terminator pending
  std::size_t answered = 0;
  std::string inbox;

  while (answered < requests.size()) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    const bool may_send = next_send < requests.size() &&
                          next_send - answered < cli.window;
    if (may_send) p.events |= POLLOUT;
    const int n = ::poll(&p, 1, cli.timeout_s * 1000);
    if (n == 0) {
      std::cerr << "storesched_client: timed out after " << cli.timeout_s
                << "s (" << answered << "/" << requests.size()
                << " answered)\n";
      ::close(fd);
      return 1;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      std::cerr << "storesched_client: poll: " << std::strerror(errno) << "\n";
      ::close(fd);
      return 1;
    }
    if (p.revents & POLLOUT) {
      const std::string& req = requests[next_send];
      const char* data = send_newline ? "\n" : req.data() + send_off;
      const std::size_t len = send_newline ? 1 : req.size() - send_off;
      const auto sent = ::send(fd, data, len, MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
          std::cerr << "storesched_client: send: " << std::strerror(errno)
                    << "\n";
          ::close(fd);
          return 1;
        }
      } else if (send_newline) {
        send_newline = false;
        send_off = 0;
        ++next_send;
      } else {
        send_off += static_cast<std::size_t>(sent);
        if (send_off == req.size()) send_newline = true;
      }
    }
    if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
      char buf[1 << 16];
      const auto got = ::recv(fd, buf, sizeof buf, 0);
      if (got == 0) {
        std::cerr << "storesched_client: server closed the connection ("
                  << answered << "/" << requests.size() << " answered)\n";
        ::close(fd);
        return 1;
      }
      if (got < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
          continue;
        }
        std::cerr << "storesched_client: recv: " << std::strerror(errno)
                  << "\n";
        ::close(fd);
        return 1;
      }
      inbox.append(buf, static_cast<std::size_t>(got));
      std::size_t start = 0;
      for (std::size_t nl = inbox.find('\n', start); nl != std::string::npos;
           nl = inbox.find('\n', start)) {
        std::cout << inbox.substr(start, nl - start) << "\n";
        ++answered;
        start = nl + 1;
      }
      inbox.erase(0, start);
    }
  }
  std::cout.flush();
  ::close(fd);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ClientCli cli;
  try {
    cli = parse_cli(argc, argv);
    if (cli.help) {
      print_usage(std::cout);
      return 0;
    }
    if (cli.unix_path.empty() && !cli.tcp_port) {
      throw std::runtime_error("one of --unix/--tcp is required");
    }
  } catch (const std::exception& err) {
    std::cerr << "storesched_client: " << err.what() << "\n";
    print_usage(std::cerr);
    return 2;
  }
  try {
    return run(cli);
  } catch (const std::exception& err) {
    std::cerr << "storesched_client: " << err.what() << "\n";
    return 1;
  }
}
