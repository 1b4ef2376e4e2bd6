// perfbench_host: the host calibration probe run with every benchmark
// result. Prints one JSON object: core count, CPU model, last-level cache,
// measured FMA peak on one thread and on all cores, memcpy bandwidth over
// arrays of at least four times the last-level cache, and the SimMPI
// point-to-point latency. These are the denominators of the efficiency
// ratios, and together the host fingerprint results are compared under.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sched.h>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "comm/comm.h"
#include "util/timer.h"

namespace {

/// Median of a few samples.
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Single-thread FMA rate (2 flops per lane per multiply-add) over 16
/// independent 4-wide chains held in registers.
double fma_gflops(double seconds) {
  using vf4 = float __attribute__((vector_size(16)));
  const vf4 b = {0.999999f, 0.999999f, 0.999999f, 0.999999f};
  const vf4 c = {1e-7f, 2e-7f, 3e-7f, 4e-7f};
  vf4 a0 = b, a1 = b + c, a2 = a1 + c, a3 = a2 + c, a4 = a3 + c, a5 = a4 + c,
      a6 = a5 + c, a7 = a6 + c, a8 = a7 + c, a9 = a8 + c, a10 = a9 + c,
      a11 = a10 + c, a12 = a11 + c, a13 = a12 + c, a14 = a13 + c,
      a15 = a14 + c;
  constexpr long kChunk = 200000;
  long chunks = 0;
  hacc::Timer timer;
  do {
    for (long r = 0; r < kChunk; ++r) {
      a0 = a0 * b + c; a1 = a1 * b + c; a2 = a2 * b + c; a3 = a3 * b + c;
      a4 = a4 * b + c; a5 = a5 * b + c; a6 = a6 * b + c; a7 = a7 * b + c;
      a8 = a8 * b + c; a9 = a9 * b + c; a10 = a10 * b + c; a11 = a11 * b + c;
      a12 = a12 * b + c; a13 = a13 * b + c; a14 = a14 * b + c;
      a15 = a15 * b + c;
    }
    ++chunks;
  } while (timer.elapsed() < seconds);
  const double t = timer.elapsed();
  const vf4 sum = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7 + a8 + a9 + a10 +
                  a11 + a12 + a13 + a14 + a15;
  volatile float sink = sum[0] + sum[1] + sum[2] + sum[3];
  (void)sink;
  return static_cast<double>(chunks) * kChunk * 16 * 4 * 2 / t / 1e9;
}

double fma_gflops_all(int threads, double seconds) {
  std::vector<double> rate(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      rate[static_cast<std::size_t>(t)] = fma_gflops(seconds);
    });
  for (auto& th : pool) th.join();
  double total = 0;
  for (const double r : rate) total += r;
  return total;
}

std::string read_line(const std::string& path) {
  std::ifstream f(path);
  std::string s;
  std::getline(f, s);
  return s;
}

/// Size of the highest-level cache cpu0 reports, in bytes (0 if unknown).
std::size_t llc_bytes() {
  std::size_t best = 0;
  int best_level = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = read_line(dir + "level");
    const std::string size = read_line(dir + "size");
    if (level.empty() || size.empty()) continue;
    std::size_t bytes = std::stoull(size);
    if (size.back() == 'K') bytes <<= 10;
    if (size.back() == 'M') bytes <<= 20;
    if (std::stoi(level) >= best_level) {
      best_level = std::stoi(level);
      best = bytes;
    }
  }
  return best;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      std::string model = colon == std::string::npos ? line : line.substr(colon + 2);
      std::erase_if(model, [](char ch) { return ch == '"' || ch == '\\'; });
      return model;
    }
  return "unknown";
}

/// Copy bandwidth in GB/s, counting bytes read plus bytes written.
double memcpy_gbps(std::size_t bytes) {
  std::unique_ptr<char[]> src(new char[bytes]), dst(new char[bytes]);
  std::memset(src.get(), 1, bytes);
  std::memset(dst.get(), 0, bytes);
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    hacc::Timer t;
    std::memcpy(dst.get(), src.get(), bytes);
    rates.push_back(2.0 * static_cast<double>(bytes) / t.elapsed() / 1e9);
  }
  volatile char sink = dst[bytes / 2];
  (void)sink;
  return median(rates);
}

/// One-way SimMPI latency of an 8-byte message, from ping-pong.
double p2p_latency_us() {
  constexpr int kTrips = 2000;
  std::vector<double> batches;
  hacc::comm::Machine::run(2, [&](hacc::comm::Comm& c) {
    std::vector<std::byte> msg(8);
    for (int batch = 0; batch < 5; ++batch) {
      c.barrier();
      hacc::Timer t;
      for (int i = 0; i < kTrips; ++i) {
        if (c.rank() == 0) {
          c.send_bytes(1, 7, std::span<const std::byte>(msg));
          msg = c.recv_bytes(1, 7);
        } else {
          msg = c.recv_bytes(0, 7);
          c.send_bytes(0, 7, std::span<const std::byte>(msg));
        }
      }
      if (c.rank() == 0) batches.push_back(t.elapsed() / (2.0 * kTrips) * 1e6);
    }
  });
  return median(batches);
}

}  // namespace

int main() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cores = sched_getaffinity(0, sizeof(set), &set) == 0
                        ? CPU_COUNT(&set)
                        : static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  const std::size_t llc = llc_bytes();
  // At least four times the last-level cache, and never under 256 MiB.
  const std::size_t array = std::max<std::size_t>(4 * llc, std::size_t{256} << 20);
  const double fma1 = fma_gflops(0.2);
  const double fma_all = fma_gflops_all(cores, 0.2);
  const double bw = memcpy_gbps(array);
  const double lat = p2p_latency_us();
  std::printf(
      "{\"cores\": %d, \"cpu_model\": \"%s\", \"llc_bytes\": %zu, "
      "\"memcpy_array_bytes\": %zu, \"fma_gflops_1t\": %.6g, "
      "\"fma_gflops_all\": %.6g, \"memcpy_gbps\": %.6g, "
      "\"p2p_latency_us\": %.6g}\n",
      cores, cpu_model().c_str(), llc, array, fma1, fma_all, bw, lat);
  return 0;
}
