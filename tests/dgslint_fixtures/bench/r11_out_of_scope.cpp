// dgslint fixture: R11 scans src/ and examples/ only.
#include <cstdlib>

int bench_threads(const char* s) { return std::atoi(s); }
