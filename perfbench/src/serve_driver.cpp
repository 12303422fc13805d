#include "serve_driver.hpp"

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "trace.hpp"

extern char** environ;

namespace levbench {

namespace {

bool write_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Response lines from the child's stdout, with a stall timeout so a
/// server that stops answering cannot hang the benchmark.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}
  ~LineReader() { close(fd_); }
  LineReader(const LineReader&) = delete;
  LineReader& operator=(const LineReader&) = delete;

  enum class Status { kLine, kEof, kStalled };

  /// The next '\n'-terminated line (terminator stripped).
  Status next(std::string& line) {
    for (;;) {
      const std::size_t newline = buffer_.find('\n', start_);
      if (newline != std::string::npos) {
        line.assign(buffer_, start_, newline - start_);
        start_ = newline + 1;
        return Status::kLine;
      }
      buffer_.erase(0, start_);
      start_ = 0;
      pollfd ready{fd_, POLLIN, 0};
      const int polled = poll(&ready, 1, kStallMs);
      if (polled < 0 && errno == EINTR) continue;
      if (polled == 0) return Status::kStalled;
      char chunk[1 << 16];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        if (buffer_.empty()) return Status::kEof;
        line.swap(buffer_);
        buffer_.clear();
        return Status::kLine;
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  static constexpr int kStallMs = 60'000;  // no response for a minute
  int fd_;
  std::string buffer_;
  std::size_t start_ = 0;
};

bool is_stats_line(const std::string& line) {
  return line.rfind("{\"status\": \"stats\"", 0) == 0;
}

/// Counters the writer and reader share (closed-loop window).
struct Window {
  std::mutex mutex;
  std::condition_variable changed;
  std::size_t sent = 0;      // guarded by mutex
  std::size_t received = 0;  // guarded by mutex
  bool reader_done = false;  // guarded by mutex; the server hung up
};

}  // namespace

ServerRun drive_server(const std::string& binary,
                       const std::vector<std::string>& args,
                       const std::vector<std::string>& lines,
                       const LoadPlan& plan) {
  ServerRun run;
  if (lines.empty()) {
    run.error = "empty request stream";
    return run;
  }
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  if (pipe2(to_child, O_CLOEXEC) != 0) {
    run.error = "pipe2 failed";
    return run;
  }
  if (pipe2(from_child, O_CLOEXEC) != 0) {
    close(to_child[0]);
    close(to_child[1]);
    run.error = "pipe2 failed";
    return run;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, to_child[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&actions, from_child[1], STDOUT_FILENO);
  std::vector<std::string> argv_text;
  argv_text.push_back(binary);
  argv_text.insert(argv_text.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_text) argv.push_back(a.data());
  argv.push_back(nullptr);

  const double spawn_s = now_s();
  pid_t pid = -1;
  const int spawn_rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                                   argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(to_child[0]);
  close(from_child[1]);
  if (spawn_rc != 0) {
    close(to_child[1]);
    close(from_child[0]);
    run.error = "cannot spawn " + binary;
    return run;
  }
  LineReader in(from_child[0]);
  const int out_fd = to_child[1];
  run.exchanges.resize(lines.size());

  // Warm-up, one line at a time: the first response also measures the
  // server's set-up time.
  bool stalled = false;
  const auto read_response = [&](std::string& text) {
    const LineReader::Status status = in.next(text);
    if (status == LineReader::Status::kStalled) {
      stalled = true;
      kill(pid, SIGKILL);
    }
    return status == LineReader::Status::kLine;
  };
  const std::size_t warm_lines = std::clamp<std::size_t>(plan.warm_lines, 1,
                                                         lines.size());
  std::string line;
  bool alive = true;
  for (std::size_t i = 0; alive && i < warm_lines; ++i) {
    Exchange& warm = run.exchanges[i];
    warm.due_s = warm.sent_s = now_s();
    alive = write_all(out_fd, lines[i] + "\n") && read_response(line) &&
            !is_stats_line(line);
    warm.recv_s = now_s();
    warm.response = line;
  }
  run.first_response_s = run.exchanges[0].recv_s - spawn_s;

  Window window;
  window.sent = window.received = warm_lines;
  bool write_failed = false;
  const double t0 = now_s();
  std::thread writer([&] {
    for (std::size_t i = warm_lines; alive && i < lines.size(); ++i) {
      Exchange& x = run.exchanges[i];
      if (plan.loop == LoadPlan::Loop::kOpen) {
        x.due_s = t0 + static_cast<double>(i - warm_lines) / plan.rate_per_s;
        const double wait = x.due_s - now_s();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
        const std::lock_guard<std::mutex> lock(window.mutex);
        ++window.sent;
      } else {
        std::unique_lock<std::mutex> lock(window.mutex);
        window.changed.wait(lock, [&] {
          return window.reader_done ||
                 window.sent - window.received < plan.window;
        });
        if (window.reader_done || now_s() - t0 >= plan.duration_s) break;
        ++window.sent;
        x.due_s = now_s();
      }
      x.sent_s = now_s();
      if (!write_all(out_fd, lines[i] + "\n")) {
        write_failed = true;
        break;
      }
    }
    close(out_fd);
  });

  std::size_t next = warm_lines;
  double last_recv_s = t0;
  while (alive && read_response(line)) {
    if (is_stats_line(line)) {
      run.stats_line = line;
      continue;
    }
    if (next >= lines.size()) {
      run.error = "more responses than requests";
      continue;
    }
    Exchange& x = run.exchanges[next++];
    x.recv_s = last_recv_s = now_s();
    x.response = line;
    {
      const std::lock_guard<std::mutex> lock(window.mutex);
      ++window.received;
    }
    window.changed.notify_one();
  }
  {
    const std::lock_guard<std::mutex> lock(window.mutex);
    window.reader_done = true;
  }
  window.changed.notify_one();
  writer.join();

  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  run.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  run.sent = window.sent;
  run.exchanges.resize(run.sent);
  run.load_wall_s = last_recv_s - t0;
  if (stalled) {
    run.error = "server stalled: no response for a minute";
  } else if (!alive) {
    run.error = "no warm-up response from " + binary;
  } else if (write_failed) {
    run.error = "server stopped reading requests";
  } else if (next != run.sent) {
    run.error = "answered " + std::to_string(next) + " of " +
                std::to_string(run.sent) + " requests";
  } else if (run.stats_line.empty()) {
    run.error = "no stats line";
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    run.error = "server exited abnormally";
  }
  run.ok = run.error.empty();
  return run;
}

namespace {

/// Position just past `"key": `, or npos.
std::size_t value_start(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = line.find(needle);
  return at == std::string::npos ? at : at + needle.size();
}

}  // namespace

bool json_string_field(const std::string& line, const std::string& key,
                       std::string& out) {
  std::size_t at = value_start(line, key);
  if (at == std::string::npos || at >= line.size() || line[at] != '"') {
    return false;
  }
  out.clear();
  for (++at; at < line.size() && line[at] != '"'; ++at) {
    if (line[at] == '\\' && at + 1 < line.size()) ++at;
    out.push_back(line[at]);
  }
  return at < line.size();
}

bool json_number_field(const std::string& line, const std::string& key,
                       std::uint64_t& out) {
  std::size_t at = value_start(line, key);
  if (at == std::string::npos || at >= line.size() || line[at] < '0' ||
      line[at] > '9') {
    return false;
  }
  out = 0;
  for (; at < line.size() && line[at] >= '0' && line[at] <= '9'; ++at) {
    out = out * 10 + static_cast<std::uint64_t>(line[at] - '0');
  }
  return true;
}

bool json_report_body(const std::string& line, std::string& out) {
  const std::size_t at = value_start(line, "report");
  if (at == std::string::npos || at >= line.size() || line[at] != '{') {
    return false;
  }
  const std::size_t end = line.find('}', at);
  if (end == std::string::npos) return false;
  out = line.substr(at + 1, end - at - 1);
  return true;
}

}  // namespace levbench
