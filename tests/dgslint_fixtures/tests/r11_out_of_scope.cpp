// dgslint fixture: R11 scans src/, examples/ and bench/ only.
#include <cstdlib>

double oracle_hours(const char* s) { return std::atof(s); }
