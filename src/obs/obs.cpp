#include "obs/obs.h"

#include <cerrno>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <time.h>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#define FFET_OBS_HAVE_UNISTD 1
#endif

namespace ffet::obs {

void init_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    detail::init_tracing_from_env();
    detail::init_metrics_from_env();
  });
}

bool verbose() { return env().verbose; }

bool append_jsonl_line(const std::string& path, std::string_view line,
                       std::string* error) {
  if (path.empty()) {
    if (error) *error = "empty sink path";
    return false;
  }
  // One contiguous record so the kernel-side O_APPEND write is all-or-
  // nothing relative to other appenders (processes included).
  std::string record;
  record.reserve(line.size() + 1);
  record.append(line);
  record += '\n';
#if defined(FFET_OBS_HAVE_UNISTD)
  if (const std::size_t slash = path.find_last_of('/');
      slash != std::string::npos && slash > 0) {
    ::mkdir(path.substr(0, slash).c_str(), 0777);  // best effort, one level
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0666);
  if (fd < 0) {
    if (error) *error = "cannot open sink file: " + path;
    return false;
  }
  ssize_t n;
  do {
    n = ::write(fd, record.data(), record.size());
  } while (n < 0 && errno == EINTR);
  ::close(fd);
  const bool ok = n == static_cast<ssize_t>(record.size());
  if (!ok && error) *error = "short write to sink file: " + path;
  return ok;
#else
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (!f) {
    if (error) *error = "cannot open sink file: " + path;
    return false;
  }
  const bool ok =
      std::fwrite(record.data(), 1, record.size(), f) == record.size();
  std::fclose(f);
  if (!ok && error) *error = "short write to sink file: " + path;
  return ok;
#endif
}

double thread_cpu_ms() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
  }
#endif
  return 0.0;
}

}  // namespace ffet::obs
