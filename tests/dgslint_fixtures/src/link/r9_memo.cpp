// dgslint fixture: R9 — thread_local outside the pool and obs.
#include <cmath>

double memo_gain(double f) {
  thread_local double memo_f = 0.0;    // finding: R9
  static thread_local double memo_db;  // finding: R9
  if (f != memo_f) {
    memo_db = 10.0 * std::log10(f);
    memo_f = f;
  }
  return memo_db;
}

// dgslint: allow(R9) -- fixture: suppressed per-thread counter
thread_local int suppressed_calls = 0;

// Silent: the word in a comment (thread_local), in a string, or inside an
// identifier.
const char* note = "thread_local";
int my_thread_local_count = 0;
