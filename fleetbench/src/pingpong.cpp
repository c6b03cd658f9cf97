// fleet_pingpong: the host-speed reference of the fleet benchmark.
//
//   fleet_pingpong ROUNDS [CPU ...]
//
// For each pair of consecutive listed cores (cyclically: with cores a b c,
// the pairs a-b, b-c, c-a), two threads pinned to the pair bounce one
// 100-byte datagram over loopback UDP ROUNDS times, each blocking in poll(2)
// and then recv/send, which is the shape of a server's work per request.
// Prints one JSON line with the CPU time both threads spent per round trip
// (CLOCK_THREAD_CPUTIME_ID), averaged over the pairs. With no cores listed,
// one unpinned pair runs.
//
// This program is independent of DataFlasks: a change to the program under
// test cannot move it, while the host's speed moves it the same way it
// moves the servers' CPU per request.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

namespace {

constexpr std::uint32_t kStop = 0xffffffffu;
constexpr int kPollMs = 200;
constexpr std::size_t kDatagramBytes = 100;

[[noreturn]] void fatal(const char* what) {
  std::fprintf(stderr, "fleet_pingpong: %s: %s\n", what, std::strerror(errno));
  std::exit(1);
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

void pin(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (::pthread_setaffinity_np(::pthread_self(), sizeof set, &set) != 0) {
    fatal("pthread_setaffinity_np");
  }
}

struct Socket {
  int fd = -1;
  sockaddr_in addr{};

  Socket() {
    fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
    if (fd < 0) fatal("socket");
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), len) != 0) fatal("bind");
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      fatal("getsockname");
    }
  }
  ~Socket() { ::close(fd); }

  void send(std::uint32_t seq, const sockaddr_in& to) const {
    unsigned char buf[kDatagramBytes] = {};
    std::memcpy(buf, &seq, sizeof seq);
    if (::sendto(fd, buf, sizeof buf, 0, reinterpret_cast<const sockaddr*>(&to),
                 sizeof to) < 0) {
      fatal("sendto");
    }
  }

  /// Waits up to kPollMs for a datagram; returns false on timeout.
  bool recv(std::uint32_t& seq) const {
    pollfd pfd{fd, POLLIN, 0};
    const int n = ::poll(&pfd, 1, kPollMs);
    if (n < 0) fatal("poll");
    if (n == 0) return false;
    unsigned char buf[kDatagramBytes];
    if (::recv(fd, buf, sizeof buf, 0) < static_cast<ssize_t>(sizeof seq)) {
      fatal("recv");
    }
    std::memcpy(&seq, buf, sizeof seq);
    return true;
  }
};

/// One pair: returns both threads' CPU ns per round trip.
double run_pair(int cpu_a, int cpu_b, std::uint32_t rounds) {
  Socket a, b;
  std::int64_t echo_cpu = 0;
  std::thread echo([&]() {
    pin(cpu_b);
    const std::int64_t start = thread_cpu_ns();
    int idle = 0;
    for (;;) {
      std::uint32_t seq = 0;
      if (!b.recv(seq)) {
        if (++idle * kPollMs > 10000) fatal("initiator went silent");
        continue;
      }
      idle = 0;
      if (seq == kStop) break;
      b.send(seq, a.addr);
    }
    echo_cpu = thread_cpu_ns() - start;
  });
  pin(cpu_a);
  const std::int64_t start = thread_cpu_ns();
  for (std::uint32_t i = 0; i < rounds; ++i) {
    a.send(i, b.addr);
    std::uint32_t seq = 0;
    int timeouts = 0;
    // A stale echo (after a resend) is skipped; a lost datagram is resent.
    while (!a.recv(seq) || seq != i) {
      if (++timeouts > 50) fatal("no echo");
      a.send(i, b.addr);
    }
  }
  const std::int64_t own_cpu = thread_cpu_ns() - start;
  a.send(kStop, b.addr);
  echo.join();
  return static_cast<double>(own_cpu + echo_cpu) / static_cast<double>(rounds);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: fleet_pingpong ROUNDS [CPU ...]\n");
    return 2;
  }
  const auto rounds = static_cast<std::uint32_t>(std::strtoul(argv[1], nullptr, 10));
  if (rounds == 0) {
    std::fprintf(stderr, "fleet_pingpong: ROUNDS must be positive\n");
    return 2;
  }
  std::vector<int> cpus;
  for (int i = 2; i < argc; ++i) cpus.push_back(std::atoi(argv[i]));
  std::vector<double> per_pair;
  if (cpus.size() < 2) {
    per_pair.push_back(run_pair(-1, -1, rounds));
  } else {
    for (std::size_t i = 0; i < cpus.size(); ++i) {
      per_pair.push_back(run_pair(cpus[i], cpus[(i + 1) % cpus.size()], rounds));
    }
  }
  double sum = 0;
  std::string pairs;
  for (const double ns : per_pair) {
    sum += ns;
    pairs += (pairs.empty() ? "" : ",") + std::to_string(ns);
  }
  std::printf("{\"cpu_ns_per_round_trip\": %.3f, \"pairs\": [%s]}\n",
              sum / static_cast<double>(per_pair.size()), pairs.c_str());
  return 0;
}
