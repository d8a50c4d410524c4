#include "procstat.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <time.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <unordered_map>

namespace perfbench {

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

uint64_t status_field(const std::string& path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const size_t klen = std::strlen(key);
  uint64_t v = 0;
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0) {
      v += std::strtoull(line.c_str() + klen, nullptr, 10);
    }
  }
  return v;
}

}  // namespace

std::vector<ThreadStat> read_threads() {
  const std::string base = "/proc/self/task";
  std::vector<ThreadStat> out;
  DIR* dir = ::opendir(base.c_str());
  if (!dir) return out;
  while (dirent* e = ::readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    const std::string t = base + "/" + e->d_name;
    const std::string sched = read_first_line(t + "/schedstat");
    if (sched.empty()) continue;  // exited meanwhile
    ThreadStat s;
    s.tid = static_cast<pid_t>(std::atoi(e->d_name));
    s.comm = read_first_line(t + "/comm");
    s.cpu_ns = std::strtoll(sched.c_str(), nullptr, 10);
    s.ctx_switches = status_field(t + "/status", "voluntary_ctxt_switches:") +
                     status_field(t + "/status", "nonvoluntary_ctxt_switches:");
    out.push_back(std::move(s));
  }
  ::closedir(dir);
  return out;
}

std::vector<ThreadStat> thread_delta(const std::vector<ThreadStat>& earlier,
                                     const std::vector<ThreadStat>& later) {
  std::unordered_map<pid_t, const ThreadStat*> before;
  for (const ThreadStat& s : earlier) before[s.tid] = &s;
  std::vector<ThreadStat> out;
  for (ThreadStat s : later) {
    auto it = before.find(s.tid);
    if (it != before.end()) {
      s.cpu_ns -= it->second->cpu_ns;
      s.ctx_switches -= it->second->ctx_switches;
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string thread_role(const std::string& comm, std::string* resource) {
  const size_t dash = comm.rfind('-');
  if (dash == std::string::npos) return "";
  const std::string tail = comm.substr(dash + 1);
  std::string role;
  if (tail.size() >= 2 && tail[0] == 'w' && std::isdigit(static_cast<unsigned char>(tail[1])))
    role = "w";
  else if (tail.size() >= 3 && tail.compare(0, 2, "io") == 0 &&
           std::isdigit(static_cast<unsigned char>(tail[2])))
    role = "io";
  if (!role.empty() && resource) *resource = comm.substr(0, dash);
  return role;
}

int64_t process_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int64_t children_cpu_ns() {
  rusage ru{};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1'000'000'000 + static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

}  // namespace perfbench
