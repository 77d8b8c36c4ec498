// The per-run host record: enough to explain a noisy run afterwards.
#include <sched.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace perfbench {

CpuTimes ReadCpuTimes() {
  // First line of /proc/stat: "cpu user nice system idle iowait irq
  // softirq steal guest guest_nice", in clock ticks since boot. Guest time
  // is already counted in user and nice.
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTimes t;
  if (!(in >> label) || label != "cpu") return t;
  uint64_t field = 0;
  for (int i = 0; i < 8 && in >> field; ++i) {
    t.total += field;
    if (i == 7) t.steal = field;
  }
  return t;
}

std::string FilesystemType(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlay";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    default: {
      std::ostringstream out;
      out << "0x" << std::hex << static_cast<unsigned long>(info.f_type);
      return out.str();
    }
  }
}

namespace {

/// A fixed 256 KiB pointer chase with arithmetic: about a millisecond of
/// work that slows down with the CPU's clock and with a busy SMT sibling.
double ProbeMicros() {
  static std::vector<uint32_t> ring = [] {
    std::vector<uint32_t> next(1u << 16);
    for (uint32_t i = 0; i < next.size(); ++i) {
      next[i] = (i * 40503u + 12345u) & (next.size() - 1);
    }
    return next;
  }();
  const int64_t t0 = NowNs();
  uint32_t at = 0, acc = 0;
  for (int i = 0; i < 200000; ++i) {
    at = ring[at ^ (acc & 0xff)];
    acc = acc * 2654435761u + at;
  }
  const int64_t t1 = NowNs();
  volatile uint32_t sink = acc;
  (void)sink;
  return (t1 - t0) / 1e3;
}

}  // namespace

int PinToFastestCpu(int* allowed_cpus, std::vector<double>* probe_us) {
  // The CPUs the process was started with, read once: later calls find
  // this thread confined to the CPU an earlier call chose.
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  *allowed_cpus = CPU_COUNT(&allowed);
  int best = -1;
  double best_us = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (::sched_setaffinity(0, sizeof(one), &one) != 0) continue;
    double us = ProbeMicros();
    for (int i = 0; i < 4; ++i) us = std::min(us, ProbeMicros());
    probe_us->push_back(us);
    if (best < 0 || us < best_us) {
      best = cpu;
      best_us = us;
    }
  }
  if (best < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  // Every thread of the process moves, this one included: the sessions
  // and the server's reader and worker threads.
  bool moved = false;
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid =
        static_cast<pid_t>(std::atol(task.path().filename().c_str()));
    moved |= ::sched_setaffinity(tid, sizeof(one), &one) == 0;
  }
  return moved ? best : -1;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

}  // namespace perfbench
