// dgslint fixture: a miniature kSummaryFields table so the R5 summary-key
// cross-check has something to parse under this root.
enum class FieldKind { kInt, kReal, kStats };
using enum FieldKind;
struct Result {};
template <class S>
struct FieldSpec {
  const char* key;
  FieldKind kind;
  int (*get)(const S&);
};
int zero(const Result&) { return 0; }

constexpr FieldSpec<Result> kSummaryFields[] = {
    {"schema_version", kInt, zero},
    {"delivered_fraction", kReal, zero},
    {"latency_minutes", kStats, [](const Result&) { return 1; }},
};
