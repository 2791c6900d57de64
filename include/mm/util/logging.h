// Minimal leveled logger. Thread-safe, writes to stderr. The level is taken
// from the MM_LOG_LEVEL environment variable (trace|debug|info|warn|error;
// default warn) so tests and benches stay quiet unless asked.
#pragma once

#include <atomic>
#include <functional>
#include <sstream>
#include <string>
#include <utility>

#include "mm/util/mutex.h"

namespace mm {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// Global logger singleton.
class Logger {
 public:
  static Logger& Get();

  // The level is a lock-free atomic: Enabled() sits on every log-statement
  // fast path and set_level may race with logging threads in tests.
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }
  void set_level(LogLevel level) {
    level_.store(level, std::memory_order_relaxed);
  }

  bool Enabled(LogLevel level) const {
    return static_cast<int>(level) >= static_cast<int>(this->level());
  }

  /// Writes one formatted line ("[LEVEL] module: message").
  void Write(LogLevel level, const std::string& module,
             const std::string& message);

 private:
  Logger();
  std::atomic<LogLevel> level_;
  Mutex mu_;  // serializes Write so lines never interleave on stderr
};

/// Parses a level name; defaults to kWarn on unknown input.
LogLevel ParseLogLevel(const std::string& name);

// ---- per-thread log context ------------------------------------------------
// Rank threads install a context so their log lines carry the
// virtual-clock timestamp and node rank: "[t=12.345s n3 WARN] module: ...".
// Threads without a context keep the bare "[WARN] module: ..." format.
// The clock callback runs on the owning thread only (VirtualClock is
// thread-confined), which is exactly where its log statements execute.

/// Installs a context for the calling thread. `sim_now` may be empty
/// (node prefix only); `node` < 0 omits the node prefix.
void SetThreadLogContext(std::function<double()> sim_now, int node);
void ClearThreadLogContext();

/// RAII variant: installs on construction, clears on destruction.
class ScopedLogContext {
 public:
  ScopedLogContext(std::function<double()> sim_now, int node) {
    SetThreadLogContext(std::move(sim_now), node);
  }
  ~ScopedLogContext() { ClearThreadLogContext(); }
  ScopedLogContext(const ScopedLogContext&) = delete;
  ScopedLogContext& operator=(const ScopedLogContext&) = delete;
};

namespace detail {
/// Stream-style log statement builder: destructor emits the line. The
/// level check is latched once in the constructor — the previous design
/// re-queried Logger::Get().Enabled() on every operator<< (an atomic load
/// per streamed value) and once more in the destructor.
class LogLine {
 public:
  LogLine(LogLevel level, const char* module)
      : enabled_(Logger::Get().Enabled(level)),
        level_(level),
        module_(module) {}
  ~LogLine() {
    if (enabled_) {
      Logger::Get().Write(level_, module_, oss_.str());
    }
  }
  template <typename T>
  LogLine& operator<<(const T& v) {
    if (enabled_) oss_ << v;
    return *this;
  }

 private:
  const bool enabled_;
  LogLevel level_;
  const char* module_;
  std::ostringstream oss_;
};
}  // namespace detail

#define MM_LOG(level, module) ::mm::detail::LogLine(level, module)
#define MM_TRACE(module) MM_LOG(::mm::LogLevel::kTrace, module)
#define MM_DEBUG(module) MM_LOG(::mm::LogLevel::kDebug, module)
#define MM_INFO(module) MM_LOG(::mm::LogLevel::kInfo, module)
#define MM_WARN(module) MM_LOG(::mm::LogLevel::kWarn, module)
#define MM_ERROR(module) MM_LOG(::mm::LogLevel::kError, module)

}  // namespace mm
