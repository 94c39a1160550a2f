#include "host.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <exception>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace thermbench {

std::size_t current_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long total_pages = 0;
  unsigned long resident_pages = 0;
  const int got = std::fscanf(f, "%lu %lu", &total_pages, &resident_pages);
  std::fclose(f);
  if (got != 2) {
    return 0;
  }
  const auto page_bytes = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return static_cast<std::size_t>(resident_pages) * page_bytes;
}

std::size_t peak_rss_bytes() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024u;  // Linux reports KiB
}

void trim_heap() {
#if defined(__GLIBC__)
  ::malloc_trim(0);
#endif
}

bool run_in_child_bytes(void* out, std::size_t size,
                        const std::function<void(void* result)>& fn) {
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) {
    return false;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = 1;
    try {
      std::vector<unsigned char> result(size);
      fn(result.data());
      std::size_t sent = 0;
      while (sent < size) {
        const ssize_t n = ::write(fds[1], result.data() + sent, size - sent);
        if (n < 0 && errno == EINTR) {
          continue;
        }
        if (n <= 0) {
          break;
        }
        sent += static_cast<std::size_t>(n);
      }
      code = sent == size ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "thermbench: child run failed: %s\n", e.what());
    }
    std::fflush(stdout);
    std::fflush(stderr);
    ::_exit(code);
  }
  ::close(fds[1]);
  auto* dst = static_cast<unsigned char*>(out);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fds[0], dst + got, size - got);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    got += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      return false;
    }
  }
  return got == size && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace thermbench
