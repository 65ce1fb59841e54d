#include "fleet.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

namespace wirebench {

namespace {

using Clock = std::chrono::steady_clock;

// Live daemon pids for the signal path: plain atomics, no allocation.
constexpr size_t kMaxDaemons = 64;
std::atomic<pid_t> g_live[kMaxDaemons];

void Register(pid_t pid) {
  for (std::atomic<pid_t>& slot : g_live) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void Unregister(pid_t pid) {
  for (std::atomic<pid_t>& slot : g_live) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

/// Waits for `pid` up to `timeout`; true once it has been reaped.
bool WaitFor(pid_t pid, std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  while (true) {
    int status = 0;
    const pid_t r = waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return true;
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// The port in a "... listening on 127.0.0.1:PORT ..." banner, or 0.
uint16_t BannerPort(const std::string& text) {
  const std::string marker = "listening on 127.0.0.1:";
  const size_t at = text.find(marker);
  if (at == std::string::npos) return 0;
  size_t i = at + marker.size();
  unsigned port = 0;
  bool any = false;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    port = port * 10 + static_cast<unsigned>(text[i] - '0');
    any = true;
    ++i;
  }
  // The banner must be complete (followed by its " (" tail) so a read
  // that split the digits is not mistaken for a shorter port.
  if (!any || i >= text.size() || port == 0 || port > 65535) return 0;
  return static_cast<uint16_t>(port);
}

}  // namespace

void KillAllDaemonsFromSignal() {
  for (std::atomic<pid_t>& slot : g_live) {
    const pid_t pid = slot.load();
    if (pid > 0) kill(pid, SIGKILL);
  }
  for (std::atomic<pid_t>& slot : g_live) {
    const pid_t pid = slot.load();
    if (pid > 0) waitpid(pid, nullptr, 0);
  }
}

int Fleet::Spawn(const std::string& name, const std::vector<std::string>& args,
                 std::string* error) {
  std::vector<std::string> argv_storage;
  argv_storage.push_back(multilogd_);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  argv_storage.push_back("--port");
  argv_storage.push_back("0");
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  int out[2];
  if (pipe2(out, O_CLOEXEC) != 0) {
    *error = name + ": pipe: " + std::strerror(errno);
    return -1;
  }
  const pid_t parent = getpid();
  const auto start = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    close(out[0]);
    close(out[1]);
    *error = name + ": fork: " + std::strerror(errno);
    return -1;
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(out[1], STDOUT_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(out[1]);
  Register(pid);
  Daemon d;
  d.pid = pid;
  d.stdout_fd = out[0];
  daemons_.push_back(d);
  const int index = static_cast<int>(daemons_.size() - 1);

  std::string banner;
  const auto deadline = start + std::chrono::seconds(120);
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) {
      *error = name + ": no listening banner within 120 s";
      return -1;
    }
    pollfd p{out[0], POLLIN, 0};
    const int ready = poll(&p, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char buf[512];
    const ssize_t n = read(out[0], buf, sizeof buf);
    if (n <= 0) {
      *error = name + ": exited before listening (output: " + banner + ")";
      return -1;
    }
    banner.append(buf, static_cast<size_t>(n));
    if (const uint16_t port = BannerPort(banner); port != 0) {
      daemons_[index].port = port;
      daemons_[index].open_s =
          std::chrono::duration<double>(Clock::now() - start).count();
      return index;
    }
  }
}

double Fleet::PeakRssMb() const {
  double total_kb = 0;
  for (const Daemon& d : daemons_) {
    if (d.pid <= 0) continue;
    std::ifstream in("/proc/" + std::to_string(d.pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        total_kb += std::atof(line.c_str() + 6);
        break;
      }
    }
  }
  return total_kb / 1024.0;
}

void Fleet::Stop() {
  // SIGKILL, not a clean shutdown: a fleet's state is scratch once its
  // answers are checked, and freeing a large heap costs seconds.
  for (const Daemon& d : daemons_) {
    if (d.pid > 0) kill(d.pid, SIGKILL);
  }
  for (auto it = daemons_.begin(); it != daemons_.end(); ++it) {
    if (it->pid > 0) {
      WaitFor(it->pid, std::chrono::seconds(30));
      Unregister(it->pid);
      it->pid = -1;
    }
    if (it->stdout_fd >= 0) {
      close(it->stdout_fd);
      it->stdout_fd = -1;
    }
  }
  daemons_.clear();
}

}  // namespace wirebench
