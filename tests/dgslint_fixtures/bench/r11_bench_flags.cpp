// dgslint fixture: R11 covers the benches' flag readers too.
#include <cstdlib>

int bench_threads(const char* s) { return std::atoi(s); }  // finding
