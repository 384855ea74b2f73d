#include "util/logging.h"

namespace contender::internal {

CheckFailure::CheckFailure(const char* file, int line) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[ERROR " << base << ":" << line << "] ";
}

CheckFailure::~CheckFailure() {
  std::cerr << stream_.str() << std::endl;
  std::abort();
}

}  // namespace contender::internal
