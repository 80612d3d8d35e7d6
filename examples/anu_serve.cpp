// anu_serve — the control plane, live.
//
// Server mode hosts an ANU cluster for real: N protocol nodes exchanging
// heartbeats, latency reports and region-map updates over loopback UDP
// sockets (runtime::UdpTransport), timed by a realtime clock
// (runtime::RealtimeClock) instead of the simulator. A client-facing UDP
// socket answers ROUTE requests — send a key, get back the owning server
// and the map version it was routed under. Every retune is logged:
//
//   anu_serve: retune version=3 shares=0.21,0.08,0.21
//
// The data plane is synthetic (per-server slow factors feed the latency
// model), so what the demo shows is the paper's control loop converging in
// wall time: slow servers shed load, the region map re-tunes live, and
// clients observe the version advancing — scripts/integration_test.sh
// asserts exactly that in CI.
//
// Client mode (--client) is the scripted driver: it sends sequential keys,
// tallies which server owns each, and exits 0 when at least 90% of
// requests got an answer.
//
//   anu_serve --servers 3 --port 9700 --run-seconds 6 --slow 1,1,4
//   anu_serve --client --port 9700 --requests 200
//
// The flags are the only input; a malformed or out-of-range value exits 2
// with the usage text (docs/runtime.md lists the accepted ranges).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/parse_number.h"
#include "proto/protocol.h"
#include "runtime/event_loop.h"
#include "runtime/realtime_clock.h"
#include "runtime/time_source.h"
#include "runtime/udp_transport.h"

using namespace anu;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--servers N] [--port P] [--run-seconds S]\n"
               "          [--slow f0,f1,...]\n"
               "       %s --client [--port P] [--requests N]\n",
               argv0, argv0);
  return 2;
}

// The control loop's timing is fixed: realtime demos want fast rounds.
constexpr double kTuningInterval = 1.0;
constexpr double kReportGrace = 0.05;
constexpr double kHeartbeatInterval = 0.2;
// One UDP socket per node; well inside the default descriptor limit.
constexpr std::size_t kMaxServers = 256;

/// Comma-separated positive, finite factors, or nullopt.
std::optional<std::vector<double>> parse_factors(const std::string& arg) {
  std::vector<double> out;
  std::stringstream ss(arg);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto factor = parse_number(item, std::numeric_limits<double>::min(),
                                     std::numeric_limits<double>::max());
    if (!factor) return std::nullopt;
    out.push_back(*factor);
  }
  if (out.empty()) return std::nullopt;
  return out;
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

// --- client mode ------------------------------------------------------------

int run_client(std::uint16_t port, int requests) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    std::perror("socket");
    return 1;
  }
  const sockaddr_in server = loopback(port);
  int replied = 0;
  std::map<unsigned, int> per_server;
  std::uint64_t min_version = ~0ULL, max_version = 0;
  for (int i = 0; i < requests; ++i) {
    const std::string key = "key/" + std::to_string(i);
    if (::sendto(fd, key.data(), key.size(), 0,
                 reinterpret_cast<const sockaddr*>(&server),
                 sizeof(server)) < 0) {
      continue;
    }
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 500) <= 0) continue;  // 500 ms per-request budget
    char buffer[256];
    const auto n = ::recv(fd, buffer, sizeof(buffer) - 1, 0);
    if (n <= 0) continue;
    buffer[n] = '\0';
    unsigned owner = 0;
    unsigned long long version = 0;
    if (std::sscanf(buffer, "OK %u %llu", &owner, &version) != 2) continue;
    ++replied;
    ++per_server[owner];
    if (version < min_version) min_version = version;
    if (version > max_version) max_version = version;
  }
  ::close(fd);

  std::printf("anu_serve client: sent=%d replied=%d\n", requests, replied);
  for (const auto& [owner, count] : per_server) {
    std::printf("  server %u routed %d keys\n", owner, count);
  }
  if (replied > 0) {
    std::printf("  map versions observed: %llu..%llu\n",
                static_cast<unsigned long long>(min_version),
                static_cast<unsigned long long>(max_version));
  }
  // The transport is best-effort UDP: tolerate stragglers, fail on bulk
  // loss (which would mean the server was not actually routing).
  const bool ok = replied * 10 >= requests * 9;
  std::printf("anu_serve client: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

// --- server mode ------------------------------------------------------------

int run_server(std::size_t servers, std::uint16_t port, double run_seconds,
               const std::vector<double>& slow) {
  runtime::SteadyTimeSource source;
  runtime::RealtimeClock clock(source);
  runtime::UdpTransport transport(servers);

  proto::ProtocolConfig config;
  config.tuning_interval = kTuningInterval;
  config.report_grace = kReportGrace;
  config.use_heartbeats = true;
  config.heartbeat.interval = kHeartbeatInterval;

  // Synthetic data plane: server s runs slow[s] times slower than
  // nominal, so its interval latency is share * slow — the same model the
  // protocol tests use. Routed client keys feed the completion counts.
  std::vector<std::uint64_t> routed(servers, 0);
  proto::ProtocolCluster cluster(
      clock, transport, config, servers,
      [&](std::uint32_t s, UnitPoint share) {
        const double latency = share.to_double() * slow[s] * 100.0 + 1e-6;
        const auto base =
            static_cast<std::size_t>(share.to_double() * 1e4) + 1;
        const auto extra = static_cast<std::size_t>(routed[s]);
        routed[s] = 0;
        return balance::ServerReport{latency, base + extra};
      });
  std::vector<std::string> names;
  for (int i = 0; i < 64; ++i) names.push_back("fs/" + std::to_string(i));
  cluster.register_file_sets(names);

  // Client-facing ROUTE socket.
  const int route_fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (route_fd < 0) {
    std::perror("socket");
    return 1;
  }
  sockaddr_in route_addr = loopback(port);
  if (::bind(route_fd, reinterpret_cast<const sockaddr*>(&route_addr),
             sizeof(route_addr)) != 0) {
    std::perror("bind");
    ::close(route_fd);
    return 1;
  }

  runtime::EventLoop loop(clock);
  for (std::uint32_t n = 0; n < transport.fds().size(); ++n) {
    loop.add_fd(transport.fds()[n], [&transport] { transport.pump(); });
  }
  loop.add_fd(route_fd, [&] {
    char buffer[512];
    sockaddr_in from{};
    socklen_t from_len = sizeof(from);
    for (;;) {
      const auto n = ::recvfrom(route_fd, buffer, sizeof(buffer) - 1,
                                MSG_DONTWAIT,
                                reinterpret_cast<sockaddr*>(&from), &from_len);
      if (n <= 0) break;
      buffer[n] = '\0';
      // Route on node 0's replica — any node gives the same answer once
      // replicas agree, which is the protocol's whole job.
      const ServerId owner = cluster.route_from(0, buffer);
      ++routed[owner.value()];
      char reply[64];
      const int len = std::snprintf(
          reply, sizeof(reply), "OK %u %llu", owner.value(),
          static_cast<unsigned long long>(cluster.version_of(0)));
      ::sendto(route_fd, reply, static_cast<std::size_t>(len), 0,
               reinterpret_cast<const sockaddr*>(&from), from_len);
      from_len = sizeof(from);
    }
  });

  std::printf("anu_serve: %zu nodes up, heartbeats %s, routing on udp port "
              "%u, tuning every %.2fs\n",
              servers, config.use_heartbeats ? "on" : "off",
              static_cast<unsigned>(ntohs(route_addr.sin_port)),
              config.tuning_interval);
  std::fflush(stdout);

  std::uint64_t seen_version = 0;
  while (run_seconds <= 0.0 || clock.now() < run_seconds) {
    loop.run_once(0.05);
    const std::uint64_t version = cluster.version_of(0);
    if (version != seen_version) {
      seen_version = version;
      std::printf("anu_serve: retune version=%llu shares=",
                  static_cast<unsigned long long>(version));
      const auto& map = cluster.map_of(0);
      for (std::uint32_t s = 0; s < servers; ++s) {
        std::printf("%s%.3f", s == 0 ? "" : ",",
                    map.share(ServerId(s)).to_double());
      }
      std::printf(" agree=%s\n", cluster.replicas_agree() ? "yes" : "no");
      std::fflush(stdout);
    }
  }

  std::printf("anu_serve: done after %.1fs, %llu updates published, final "
              "version=%llu\n",
              clock.now(),
              static_cast<unsigned long long>(cluster.updates_published()),
              static_cast<unsigned long long>(seen_version));
  ::close(route_fd);
  return seen_version > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t servers = 3;
  std::uint16_t port = 9700;
  double run_seconds = 0.0;  // 0 = until killed
  std::vector<double> slow;
  bool client = false;
  int requests = 200;

  // Stores a parsed value; false when the value was rejected.
  auto store = [](auto& target, auto parsed) {
    if (parsed) target = std::move(*parsed);
    return parsed.has_value();
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--client") {
      client = true;
      continue;
    }
    if (i + 1 == argc) return usage(argv[0]);
    const std::string value = argv[++i];
    bool ok = false;
    if (arg == "--servers") {
      ok = store(servers, parse_number<std::size_t>(value, 1, kMaxServers));
    } else if (arg == "--port") {
      ok = store(port, parse_number<std::uint16_t>(value, 0, 65535));
    } else if (arg == "--run-seconds") {
      ok = store(run_seconds,
                 parse_number(value, 0.0, std::numeric_limits<double>::max()));
    } else if (arg == "--requests") {
      ok = store(requests,
                 parse_number(value, 1, std::numeric_limits<int>::max()));
    } else if (arg == "--slow") {
      ok = store(slow, parse_factors(value));
    } else {
      return usage(argv[0]);
    }
    if (!ok) {
      std::fprintf(stderr, "%s: bad value for %s: '%s'\n", argv[0],
                   arg.c_str(), value.c_str());
      return usage(argv[0]);
    }
  }
  if (slow.size() > servers) {
    std::fprintf(stderr, "%s: %zu --slow factors for %zu servers\n", argv[0],
                 slow.size(), servers);
    return usage(argv[0]);
  }
  slow.resize(servers, 1.0);

  if (client) return run_client(port, requests);
  return run_server(servers, port, run_seconds, slow);
}
