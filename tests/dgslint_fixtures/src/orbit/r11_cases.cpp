// dgslint fixture: R11 — numeric text is parsed whole.
#include <cstdlib>
#include <string>

int r11_stoi(const std::string& s) { return std::stoi(s); }  // finding
double r11_strtod(const char* s) { return strtod(s, nullptr); }  // finding
long r11_atol(const char* s) { return ::atol(s); }  // finding

double r11_suppressed(const char* s) {
  // dgslint: allow(R11) -- fixture: a documented partial parse
  return std::atof(s);
}

// Negatives: the names inside identifiers, members, strings and comments
// (atoi(, stod() stay silent.
int my_atoi(const char* s) { return s[0] - '0'; }
struct Parser {
  int (*stoi)(int);
};
int r11_member(const Parser& p) { return p.stoi(3) + my_atoi("7"); }
int r11_arrow(const Parser* p) { return p->stoi(4); }
const char* r11_text() { return "call std::stod(x) whole"; }
