#include "daemon.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

namespace servebench {

namespace {

constexpr const char* kScrubbed[] = {
    "WIREPIPE_TRACE", "WIREPIPE_GOLDEN_DIR", "WIREPIPE_GOLDEN_TRACE",
    "WIREPIPE_LOG",   "WIREPIPE_SOCKET_DIR"};

// Live daemon pids, for the signal handler. A fixed array keeps the
// handler async-signal-safe (no locks, no allocation).
constexpr int kMaxLive = 16;
volatile sig_atomic_t g_live[kMaxLive] = {};

void track(pid_t pid) {
  for (volatile sig_atomic_t& slot : g_live)
    if (slot == 0) {
      slot = pid;
      return;
    }
}

void untrack(pid_t pid) {
  for (volatile sig_atomic_t& slot : g_live)
    if (slot == pid) slot = 0;
}

void on_signal(int sig) {
  for (volatile sig_atomic_t& slot : g_live)
    if (slot > 0) {
      ::kill(slot, SIGKILL);
      ::waitpid(slot, nullptr, 0);
      slot = 0;
    }
  ::_exit(128 + sig);
}

}  // namespace

void install_signal_cleanup() {
  struct sigaction action {};
  action.sa_handler = on_signal;
  sigemptyset(&action.sa_mask);
  for (const int sig : {SIGINT, SIGTERM, SIGHUP})
    ::sigaction(sig, &action, nullptr);
}

Daemon::Daemon(const std::string& evald, const std::string& socket_path,
               std::size_t cache)
    : socket_path_(socket_path) {
  const std::string cache_arg = std::to_string(cache);
  std::vector<std::string> args = {evald,       "--socket", socket_path,
                                   "--workers", "1",        "--cache",
                                   cache_arg,   "--quiet"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  // The child's environment, built before fork: this one minus kScrubbed.
  std::vector<char*> envp;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    const std::string name = entry.substr(0, entry.find('='));
    if (std::none_of(std::begin(kScrubbed), std::end(kScrubbed),
                     [&name](const char* s) { return name == s; }))
      envp.push_back(*e);
  }
  envp.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }
  track(pid_);
  try {
    client_.connect(socket_path_, /*retries=*/10000, /*retry_ms=*/1);
  } catch (...) {
    kill_and_reap();
    throw;
  }
}

Daemon::~Daemon() { kill_and_reap(); }

void Daemon::stop() {
  if (pid_ <= 0) return;
  try {
    client_.shutdown_server();
  } catch (...) {
  }
  client_.close();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
      untrack(pid_);
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  kill_and_reap();
}

void Daemon::kill_and_reap() {
  if (pid_ <= 0) return;
  client_.close();
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  untrack(pid_);
  pid_ = -1;
  ::unlink(socket_path_.c_str());
}

double Daemon::cpu_ms() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line, i.e. 12 and 13 after ')'.
  std::istringstream rest(line.substr(line.rfind(')') + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && rest >> field; ++i)
    if (i >= 12) ticks += std::stod(field);
  return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    std::getline(in, key);
  }
  return 0.0;
}

}  // namespace servebench
