#pragma once
// In-memory span recorder for the benchmark's traced run.  The benchmark opens
// a span around each call it makes into a lintime layer; spans are kept in
// memory, written out once at the end, and reduced to per-layer self times
// (a span's duration minus the part of it its child spans cover).

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0;  ///< seconds since the tracer was created
  double end = 0;
  int parent = -1;        ///< index into Tracer::spans(), -1 for a root
  std::int64_t trace = -1;  ///< job / history index; -1 outside any job
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span under the innermost open span; returns its index.
  int open(std::string name, std::int64_t trace = -1);
  /// Renames span `id`, e.g. after the call it covers has said which route it took.
  void rename(int id, std::string name) {
    spans_[static_cast<std::size_t>(id)].name = std::move(name);
  }
  /// Closes span `id`, which must be the innermost open span.
  void close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Sum of self time per span name: each span's duration minus the part of
  /// it its children cover.
  [[nodiscard]] std::map<std::string, double> self_time_by_name() const;

  /// {"spans":[{"name","start","end","parent","trace"},...]}
  void write_json(std::ostream& os) const;

 private:
  [[nodiscard]] double now() const;
  /// Seconds of spans()[i] not covered by its children.
  [[nodiscard]] std::vector<double> self_times() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer makes it a no-op, so one code path serves the
/// traced and untraced runs.
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, std::int64_t trace = -1)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(std::move(name), trace) : -1) {}
  /// Names the span after the fact, e.g. by the route a check took.
  void rename(std::string name) {
    if (tracer_ != nullptr) tracer_->rename(id_, std::move(name));
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  Scope(Scope&&) = delete;
  Scope& operator=(Scope&&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
