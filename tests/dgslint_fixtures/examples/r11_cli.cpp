// dgslint fixture: R11 covers the front ends too.
#include <cstdlib>

int main(int argc, char** argv) {
  return argc > 1 ? std::atoi(argv[1]) : 0;  // finding
}
