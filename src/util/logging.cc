#include "mm/util/logging.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <utility>

namespace mm {

namespace {

/// Per-thread prefix context (see SetThreadLogContext in logging.h).
struct ThreadLogContext {
  std::function<double()> sim_now;
  int node = -1;
  bool set = false;
};

ThreadLogContext& TlsContext() {
  thread_local ThreadLogContext ctx;
  return ctx;
}

}  // namespace

void SetThreadLogContext(std::function<double()> sim_now, int node) {
  ThreadLogContext& ctx = TlsContext();
  ctx.sim_now = std::move(sim_now);
  ctx.node = node;
  ctx.set = true;
}

void ClearThreadLogContext() {
  ThreadLogContext& ctx = TlsContext();
  ctx.sim_now = nullptr;
  ctx.node = -1;
  ctx.set = false;
}

Logger& Logger::Get() {
  static Logger logger;
  return logger;
}

Logger::Logger() : level_(LogLevel::kWarn) {
  // Runs exactly once, inside the magic-static init of Get(), before any
  // rank thread exists — no concurrent setenv can race it.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("MM_LOG_LEVEL")) {
    level_ = ParseLogLevel(env);
  }
}

void Logger::Write(LogLevel level, const std::string& module,
                   const std::string& message) {
  static const char* kNames[] = {"TRACE", "DEBUG", "INFO", "WARN", "ERROR",
                                 "OFF"};
  // Build the prefix before taking the lock: the sim_now callback belongs
  // to the calling thread and must not run under the global log mutex.
  std::string prefix = "[";
  const ThreadLogContext& ctx = TlsContext();
  if (ctx.set) {
    char buf[48];
    if (ctx.sim_now) {
      std::snprintf(buf, sizeof(buf), "t=%.3fs ", ctx.sim_now());
      prefix += buf;
    }
    if (ctx.node >= 0) {
      std::snprintf(buf, sizeof(buf), "n%d ", ctx.node);
      prefix += buf;
    }
  }
  prefix += kNames[static_cast<int>(level)];
  MutexLock lock(mu_);
  std::cerr << prefix << "] " << module << ": " << message << "\n";
}

LogLevel ParseLogLevel(const std::string& name) {
  if (name == "trace") return LogLevel::kTrace;
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  return LogLevel::kWarn;
}

}  // namespace mm
