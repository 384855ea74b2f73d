// Fatal assertion macros.

#ifndef CONTENDER_UTIL_LOGGING_H_
#define CONTENDER_UTIL_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>

namespace contender {
namespace internal {

// Collects a failed check's message; the destructor prints it to stderr as
// "[ERROR file:line] ..." and aborts.
class CheckFailure {
 public:
  CheckFailure(const char* file, int line);
  ~CheckFailure();

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

// Converts a streamed expression to void inside the CHECK ternary;
// operator& binds more loosely than operator<<.
struct Voidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal
}  // namespace contender

/// Fatal check: prints the failed condition and aborts.
#define CONTENDER_CHECK(cond)                                              \
  (cond) ? (void)0                                                         \
         : ::contender::internal::Voidify() &                              \
               ::contender::internal::CheckFailure(__FILE__, __LINE__)     \
                   .stream()                                               \
               << "Check failed: " #cond " "

#define CONTENDER_CHECK_OK(status_expr)                     \
  do {                                                      \
    ::contender::Status _s = (status_expr);                 \
    CONTENDER_CHECK(_s.ok()) << _s.ToString();              \
  } while (0)

/// Debug-only invariant check: identical to CONTENDER_CHECK in debug
/// builds, compiled out (condition unevaluated) under NDEBUG.
#ifndef NDEBUG
#define CONTENDER_DCHECK(cond) CONTENDER_CHECK(cond)
#else
#define CONTENDER_DCHECK(cond) \
  while (false) CONTENDER_CHECK(cond)
#endif

#endif  // CONTENDER_UTIL_LOGGING_H_
