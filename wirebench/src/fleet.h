#ifndef WIREBENCH_FLEET_H_
#define WIREBENCH_FLEET_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace wirebench {

/// One multilogd child process. Owned by a Fleet, which reaps it.
struct Daemon {
  pid_t pid = -1;
  int stdout_fd = -1;  // read end of the child's stdout pipe
  uint16_t port = 0;   // the ephemeral port from the "listening" banner
  /// Spawn until the banner: load or recovery (storage::Storage::Open
  /// and Engine construction) plus the bind.
  double open_s = 0;
};

/// The daemons of one set-up. Every daemon is started with `--port 0`
/// and a data directory under the run's scratch directory, and is
/// killed and waited for by Stop() or the destructor - on every exit
/// path, including a failed spawn. Children also carry PR_SET_PDEATHSIG, so they die with
/// the load generator even if it is killed outright.
class Fleet {
 public:
  explicit Fleet(std::string multilogd) : multilogd_(std::move(multilogd)) {}
  ~Fleet() { Stop(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Spawns `multilogd args... --port 0` and waits (up to 120 s) for
  /// its banner. Returns the daemon's index, or -1 with `*error` set.
  int Spawn(const std::string& name, const std::vector<std::string>& args,
            std::string* error);

  const Daemon& at(size_t i) const { return daemons_[i]; }

  /// Sum of VmHWM (peak resident set) over the live daemons, in MiB.
  double PeakRssMb() const;

  /// Kills and reaps every daemon. Idempotent.
  void Stop();

 private:
  std::string multilogd_;
  std::vector<Daemon> daemons_;
};

/// Kills every daemon any Fleet still holds and waits for each; safe to
/// call from a signal handler (the load generator's SIGINT/SIGTERM path).
void KillAllDaemonsFromSignal();

}  // namespace wirebench

#endif  // WIREBENCH_FLEET_H_
