// perfbench_load — closed-loop ROUTE load for a running anu_serve.
//
//   perfbench_load --port P --servers N --seed K --seconds S --trace 0|1
//
// One thread and one UDP socket keep kWindow ROUTE requests outstanding
// over the keys key/<i>, i = K * 2^24, K * 2^24 + 1, ...: replies release
// new requests, as when each of a router's clients waits for its answer.
// The client refills the window in batches of kRefill through sendmmsg and
// reads replies through recvmmsg, so it costs less per request than the
// server it drives; each reply is timed from its kernel arrival stamp.
// Replies are matched to requests in send order (one socket over loopback
// keeps it); a request unanswered for kTimeoutNs counts as failed, and the
// socket is replaced so a late reply cannot be matched to the wrong request.
//
// After kWarmup, requests sent during the next S seconds are measured. The
// end-to-end figures (routes/s, p50, p90) are those of the sub-window of
// kSubWindow seconds that received the most valid replies: other tenants of
// a shared host slow both processes down in episodes of seconds, while a
// slower server slows every sub-window. Every reply must read
// "OK <owner> <version>" with owner < N, and versions must never decrease. With --trace 1 the key stream is also replayed
// through libanu's anu::Balancer::route and the hash probe loop. One JSON
// object is printed on the last line of stdout; run.py reads it.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <string>
#include <vector>

#include "anu/anu.h"
#include "core/region_map.h"
#include "hash/hash_family.h"
#include "percentile.h"

using perfbench::JsonLine;
using SteadyClock = std::chrono::steady_clock;

namespace {

constexpr int kWindow = 8;
constexpr double kWarmup = 0.5;
constexpr int kRefill = kWindow / 2;
constexpr std::int64_t kTimeoutNs = 200'000'000;
// The measured window is cut into sub-windows of this many seconds, each
// holding ~20k replies.
constexpr double kSubWindow = 0.1;
// Replies are short ("OK 2 17"); anything longer is malformed.
constexpr std::size_t kReplyMax = 64;
constexpr std::size_t kReplayKeys = std::size_t{1} << 20;

volatile std::uint64_t g_sink = 0;

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::int64_t realtime_ns() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

/// When the kernel queued a received datagram (SO_TIMESTAMPNS), so a reply
/// read in a batch is timed from its own arrival; now if absent.
std::int64_t receive_ns(const msghdr& header) {
  for (const cmsghdr* c = CMSG_FIRSTHDR(&header); c != nullptr;
       c = CMSG_NXTHDR(const_cast<msghdr*>(&header),
                       const_cast<cmsghdr*>(c))) {
    if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SCM_TIMESTAMPNS) {
      timespec ts{};
      std::memcpy(&ts, CMSG_DATA(c), sizeof(ts));
      return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
    }
  }
  return realtime_ns();
}

/// A UDP socket connected to the server that stamps arrivals, and whose
/// receive calls give up after kTimeoutNs / 4 so timeouts are noticed.
int open_socket(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const timeval tv{0, static_cast<suseconds_t>(kTimeoutNs / 4 / 1000)};
  const int on = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
      ::setsockopt(fd, SOL_SOCKET, SO_TIMESTAMPNS, &on, sizeof(on)) != 0 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

struct InFlight {
  std::int64_t sent_ns = 0;  // CLOCK_REALTIME, the clock of SO_TIMESTAMPNS
  bool measured = false;
};

struct Tally {
  std::uint64_t sent = 0;       // measured requests sent
  std::uint64_t valid = 0;      // measured requests answered correctly
  std::uint64_t invalid = 0;    // measured requests answered wrongly
  std::uint64_t timeouts = 0;   // measured requests never answered
  std::uint64_t replies = 0;    // every reply, warm-up included
  std::uint64_t version_regressions = 0;
  std::uint64_t first_version = 0;
  std::uint64_t last_version = 0;
  std::vector<std::uint32_t> latency_ns;
  // Latencies of the valid replies received in each sub-window.
  std::vector<std::vector<std::uint32_t>> windows;
};

/// Parses "OK <owner> <version>" exactly.
bool parse_reply(const char* text, std::size_t len, unsigned servers,
                 unsigned* owner, unsigned long long* version) {
  char buf[kReplyMax + 1];
  if (len == 0 || len > kReplyMax) return false;
  std::memcpy(buf, text, len);
  buf[len] = '\0';
  int consumed = 0;
  if (std::sscanf(buf, "OK %u %llu%n", owner, version, &consumed) != 2) {
    return false;
  }
  return static_cast<std::size_t>(consumed) == len && *owner < servers;
}

int run(std::uint16_t port, unsigned servers, std::uint64_t seed,
        double seconds, bool trace) {
  int fd = open_socket(port);
  if (fd < 0) {
    std::perror("perfbench_load: socket");
    return 1;
  }

  std::vector<std::string> keys(kWindow);
  std::vector<iovec> send_iov(kWindow);
  std::vector<mmsghdr> send_msgs(kWindow);
  std::vector<char> recv_buf(kWindow * (kReplyMax + 1));
  std::vector<iovec> recv_iov(kWindow);
  std::vector<mmsghdr> recv_msgs(kWindow);
  struct Control {
    alignas(cmsghdr) char bytes[CMSG_SPACE(sizeof(timespec))];
  };
  std::vector<Control> control(kWindow);
  for (int i = 0; i < kWindow; ++i) {
    recv_iov[i] = {recv_buf.data() + i * (kReplyMax + 1), kReplyMax + 1};
    recv_msgs[i].msg_hdr.msg_iov = &recv_iov[i];
    recv_msgs[i].msg_hdr.msg_iovlen = 1;
  }

  const std::uint64_t first_key = seed << 24;
  std::uint64_t next_key = first_key;
  std::deque<InFlight> in_flight;
  Tally tally;
  tally.latency_ns.reserve(static_cast<std::size_t>(seconds * 400'000));
  tally.windows.resize(static_cast<std::size_t>(std::ceil(seconds / kSubWindow)));

  const auto start = SteadyClock::now();
  const auto measure_start =
      start + std::chrono::duration_cast<SteadyClock::duration>(
                  std::chrono::duration<double>(kWarmup));
  const auto measure_end =
      measure_start + std::chrono::duration_cast<SteadyClock::duration>(
                          std::chrono::duration<double>(seconds));
  const double cpu_start = thread_cpu_s();

  auto send_batch = [&](int count, SteadyClock::time_point now) {
    const bool measured = now >= measure_start && now < measure_end;
    for (int i = 0; i < count; ++i) {
      keys[i] = "key/" + std::to_string(next_key++);
      send_iov[i] = {keys[i].data(), keys[i].size()};
      send_msgs[i] = {};
      send_msgs[i].msg_hdr.msg_iov = &send_iov[i];
      send_msgs[i].msg_hdr.msg_iovlen = 1;
    }
    const std::int64_t sent_ns = realtime_ns();
    const int sent = ::sendmmsg(fd, send_msgs.data(),
                                static_cast<unsigned>(count), 0);
    for (int i = 0; i < sent; ++i) in_flight.push_back({sent_ns, measured});
    if (measured && sent > 0) tally.sent += static_cast<std::uint64_t>(sent);
  };

  send_batch(kWindow, start);
  for (;;) {
    // Wait for half the window before refilling it: the server always has
    // at least kRefill requests queued, and the client makes two system
    // calls per kRefill replies.
    const auto want = static_cast<unsigned>(
        std::min<std::size_t>(kRefill, in_flight.size()));
    for (unsigned i = 0; i < want; ++i) {
      recv_msgs[i].msg_hdr.msg_control = control[i].bytes;
      recv_msgs[i].msg_hdr.msg_controllen = sizeof(control[i].bytes);
    }
    const int got = ::recvmmsg(fd, recv_msgs.data(), want, 0, nullptr);
    const auto now = SteadyClock::now();
    if (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      std::perror("perfbench_load: recvmmsg");
      ::close(fd);
      return 1;
    }
    for (int i = 0; i < got && !in_flight.empty(); ++i) {
      const InFlight request = in_flight.front();
      in_flight.pop_front();
      ++tally.replies;
      unsigned owner = 0;
      unsigned long long version = 0;
      const bool ok = parse_reply(static_cast<const char*>(recv_iov[i].iov_base),
                                  recv_msgs[i].msg_len, servers, &owner,
                                  &version);
      if (ok) {
        if (version < tally.last_version) ++tally.version_regressions;
        if (tally.replies == 1) tally.first_version = version;
        tally.last_version = version;
      }
      if (!request.measured) continue;
      if (!ok) {
        ++tally.invalid;
        continue;
      }
      ++tally.valid;
      const std::int64_t latency = receive_ns(recv_msgs[i].msg_hdr) -
                                   request.sent_ns;
      const auto sample = static_cast<std::uint32_t>(
          std::clamp<std::int64_t>(latency, 0, UINT32_MAX));
      tally.latency_ns.push_back(sample);
      if (now < measure_end) {
        const auto slot = static_cast<std::size_t>(
            std::chrono::duration<double>(now - measure_start).count() /
            kSubWindow);
        if (slot < tally.windows.size()) tally.windows[slot].push_back(sample);
      }
    }
    if (!in_flight.empty() &&
        realtime_ns() - in_flight.front().sent_ns > kTimeoutNs) {
      // Replace the socket: a reply arriving later must not be matched to
      // a newer request.
      for (const InFlight& request : in_flight) {
        if (request.measured) ++tally.timeouts;
      }
      in_flight.clear();
      ::close(fd);
      fd = open_socket(port);
      if (fd < 0) {
        std::perror("perfbench_load: socket");
        return 1;
      }
    }
    if (now >= measure_end) {
      if (in_flight.empty()) break;
      continue;  // drain: no new requests
    }
    send_batch(kWindow - static_cast<int>(in_flight.size()), now);
  }
  const double load_s = perfbench::seconds_since(start);
  const double cpu_s = thread_cpu_s() - cpu_start;
  ::close(fd);

  std::vector<std::uint32_t>* busiest = &tally.windows.front();
  for (std::vector<std::uint32_t>& window : tally.windows) {
    if (window.size() > busiest->size()) busiest = &window;
  }
  JsonLine out;
  out.num("sent", static_cast<double>(tally.sent))
      .num("valid", static_cast<double>(tally.valid))
      .num("invalid", static_cast<double>(tally.invalid))
      .num("timeouts", static_cast<double>(tally.timeouts))
      .num("replies", static_cast<double>(tally.replies))
      .num("version_regressions",
           static_cast<double>(tally.version_regressions))
      .num("first_version", static_cast<double>(tally.first_version))
      .num("last_version", static_cast<double>(tally.last_version))
      .num("requests_per_s", static_cast<double>(busiest->size()) / kSubWindow)
      .num("latency_p50_ms", perfbench::quantile(*busiest, 0.5) * 1e-6)
      .num("latency_p90_ms", perfbench::quantile(*busiest, 0.9) * 1e-6)
      .num("latency_p99_ms", perfbench::quantile(tally.latency_ns, 0.99) * 1e-6)
      .num("latency_samples", static_cast<double>(tally.latency_ns.size()))
      .num("load_s", load_s)
      .num("client_busy_frac", cpu_s / load_s);

  if (trace) {
    // libanu's route over the same key stream, on a fresh balancer (the
    // equal-share map anu_serve starts from), and the probe loop beneath it.
    const std::size_t n = std::min<std::size_t>(
        kReplayKeys, static_cast<std::size_t>(next_key - first_key));
    std::vector<std::string> replay;
    replay.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      replay.push_back("key/" + std::to_string(first_key + i));
    }
    const anu::Balancer balancer(servers);
    std::uint64_t sink = 0;
    const auto batch_start = SteadyClock::now();
    for (const std::string& key : replay) sink += balancer.route(key);
    const double ns_mean = static_cast<double>(perfbench::ns_since(batch_start)) /
                           static_cast<double>(n);
    std::vector<std::uint32_t> per_call;
    per_call.reserve(n);
    for (const std::string& key : replay) {
      const auto call_start = SteadyClock::now();
      sink += balancer.route(key);
      per_call.push_back(
          static_cast<std::uint32_t>(perfbench::ns_since(call_start)));
    }
    const anu::HashFamily family(anu::BalancerConfig{}.hash_seed);
    const anu::core::RegionMap map(servers);
    std::uint64_t probes = 0;
    for (const std::string& key : replay) {
      for (std::uint32_t round = 0;; ++round) {
        ++probes;
        if (map.owner_at(family.unit_point(key, round))) break;
      }
    }
    g_sink = sink;
    out.num("core.route.ns_mean", ns_mean)
        .num("core.route.ns_p99", perfbench::quantile(per_call, 0.99))
        .num("hash.probes_per_route",
             static_cast<double>(probes) / static_cast<double>(n));
  }
  out.print();
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_load --port P --servers N --seed K "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  long port = 0;
  long servers = 0;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* value = argv[i + 1];
    if (arg == "--port") {
      port = std::strtol(value, nullptr, 10);
    } else if (arg == "--servers") {
      servers = std::strtol(value, nullptr, 10);
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || port <= 0 || port > 65535 || servers <= 0 ||
      seed >= (std::uint64_t{1} << 39) ||
      seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  return run(static_cast<std::uint16_t>(port),
             static_cast<unsigned>(servers), seed, seconds, trace == 1);
}
