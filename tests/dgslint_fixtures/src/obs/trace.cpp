// dgslint fixture: R9 — obs's per-thread trace buffer is whitelisted.
struct Buffer {
  int spans = 0;
};

Buffer* local_buffer() {
  thread_local Buffer buf;  // whitelisted path: no finding
  return &buf;
}
