#include "trace.hpp"

#include <algorithm>
#include <iomanip>
#include <stdexcept>
#include <utility>

namespace perfbench {

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
}

int Tracer::open(std::string name, std::int64_t trace) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  // A child inherits its parent's trace id unless it names its own.
  span.trace = trace >= 0 || span.parent < 0 ? trace : spans_[span.parent].trace;
  span.start = now();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("Tracer::close: span closed out of order");
  }
  spans_[static_cast<std::size_t>(id)].end = now();
  open_.pop_back();
}

std::vector<double> Tracer::self_times() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
  }
  std::vector<double> out(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the child intervals, clipped to the parent.
    double covered = 0;
    double lo = 0;
    double hi = -1;
    for (const auto& [a, b] : kids) {
      const double s = std::max(a, spans_[i].start);
      const double e = std::min(b, spans_[i].end);
      if (e <= s) continue;
      if (s > hi) {
        if (hi > lo) covered += hi - lo;
        lo = s;
        hi = e;
      } else {
        hi = std::max(hi, e);
      }
    }
    if (hi > lo) covered += hi - lo;
    out[i] = std::max(0.0, (spans_[i].end - spans_[i].start) - covered);
  }
  return out;
}

std::map<std::string, double> Tracer::self_time_by_name() const {
  std::map<std::string, double> out;
  const std::vector<double> self = self_times();
  for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
  return out;
}

void Tracer::write_json(std::ostream& os) const {
  os << "{\"spans\":[";
  os << std::setprecision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) os << ',';
    os << "\n{\"name\":\"" << s.name << "\",\"start\":" << s.start << ",\"end\":" << s.end
       << ",\"parent\":" << s.parent << ",\"trace\":" << s.trace << '}';
  }
  os << "\n]}\n";
}

}  // namespace perfbench
