#include "calibration.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

namespace perfbench {

double calibration_s() {
  constexpr int kSorts = 5;
  std::vector<std::uint64_t> v(std::size_t{1} << 19);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kSorts; ++i) {
    std::mt19937_64 rng(12345);
    for (auto& x : v) x = rng();
    std::sort(v.begin(), v.end());
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - t0;
  if (!std::is_sorted(v.begin(), v.end())) throw std::logic_error("calibration sort failed");
  return elapsed.count() / kSorts;
}

}  // namespace perfbench
