#include "mm/core/coherence.h"

namespace mm::core {

const char* CoherenceModeName(CoherenceMode mode) {
  switch (mode) {
    case CoherenceMode::kLocal:
      return "local";
    case CoherenceMode::kReadOnlyGlobal:
      return "read_only_global";
    case CoherenceMode::kWriteOnlyGlobal:
      return "write_only_global";
    case CoherenceMode::kAppendOnlyGlobal:
      return "append_only_global";
    case CoherenceMode::kReadWriteGlobal:
      return "read_write_global";
  }
  return "?";
}

}  // namespace mm::core
