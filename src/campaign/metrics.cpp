#include "campaign/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lintime::campaign {

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("percentile: empty sample set");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("percentile: q outside [0, 1]");
  if (q == 0.0) return sorted.front();
  // Nearest-rank: the smallest value with at least ceil(q * N) samples <= it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[rank - 1];
}

OpMetrics reduce_samples(std::vector<double> samples) {
  OpMetrics out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.count = samples.size();
  out.min = samples.front();
  out.max = samples.back();
  double sum = 0;
  for (const double s : samples) sum += s;
  out.mean = sum / static_cast<double>(samples.size());
  out.p50 = percentile(samples, 0.50);
  out.p90 = percentile(samples, 0.90);
  out.p99 = percentile(samples, 0.99);
  return out;
}

JobMetrics reduce_record(const sim::RunRecord& record) {
  JobMetrics out;
  out.steps = record.steps.size();
  out.ops_invoked = record.ops.size();
  out.quiescence_time = record.last_time();

  auto by_op = sim::fold_latencies_by_op<std::vector<double>>(
      record.ops, [](std::vector<double>& samples, sim::Time latency) {
        samples.push_back(latency);
      });
  for (auto& [name, latencies] : by_op) {
    out.ops_complete += latencies.size();
    out.ops[name] = reduce_samples(std::move(latencies));
  }

  out.messages_sent = record.messages.size();
  for (const auto& m : record.messages) {
    if (!m.received) ++out.messages_dropped;
  }
  return out;
}

}  // namespace lintime::campaign
