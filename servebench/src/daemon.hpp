// A private wirepipe_evald for one benchmark run.
//
// Daemon forks and execs the binary with --workers 1 and an explicit
// --cache on a private socket path, with every WIREPIPE_* variable that
// could change its behaviour scrubbed from its environment (a golden
// directory would carry cache hits across runs, a trace path would turn
// span recording on). The destructor kills and reaps the process on every
// exit path; install_signal_cleanup() extends that to SIGINT/SIGTERM.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

#include "svc/eval_client.hpp"

namespace servebench {

/// SIGINT/SIGTERM/SIGHUP: kill and reap every live Daemon, then exit 128+sig.
void install_signal_cleanup();

class Daemon {
 public:
  /// Forks + execs `evald`, then polls connect at 1 ms until it answers.
  Daemon(const std::string& evald, const std::string& socket_path,
         std::size_t cache);
  ~Daemon();  ///< SIGKILL + waitpid when still running

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  wp::svc::EvalClient& client() { return client_; }
  pid_t pid() const { return pid_; }

  /// utime + stime of the daemon so far, in milliseconds (/proc/<pid>/stat).
  double cpu_ms() const;
  /// VmHWM (peak resident set) in MiB (/proc/<pid>/status).
  double peak_rss_mb() const;

  /// kShutdown, then waitpid (SIGKILL after 5 s). Idempotent.
  void stop();

 private:
  void kill_and_reap();

  pid_t pid_ = -1;
  std::string socket_path_;
  wp::svc::EvalClient client_;
};

}  // namespace servebench
