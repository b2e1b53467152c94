// dgslint fixture: SUP — malformed suppression comments.
#include <cstdlib>

int sup_missing_reason() {
  return rand();  // dgslint: allow(R1)
}

int sup_unknown_rule() {
  return rand();  // dgslint: allow(R99) -- no such rule
}

int sup_self_allow() {
  return rand();  // dgslint: allow(SUP) -- SUP cannot be suppressed
}
