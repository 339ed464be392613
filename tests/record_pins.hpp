#pragma once
// Pinned record digests: the oracle of the simulator's record-equivalence
// suites.  A pin file holds one line per recorded run,
//
//   <suite> <seed> <detail> <digest>
//
// where <digest> is the 128-bit adt::FpHasher fingerprint of
// sim::record_to_string(record), in hex (the same format as
// scenarios/digests.txt); blank lines and '#' lines are comments.  The pins were captured while the event ring and
// the binary-heap scheduler it replaced still produced byte-identical
// records, so a mismatch means the event order -- or something it feeds --
// changed.  Every failure message carries the recomputed line, which names
// the diverging case and is ready to paste if the change is intended.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "adt/fingerprint.hpp"
#include "sim/run_record.hpp"
#include "sim/trace_io.hpp"
#include "sim/world.hpp"

namespace lintime::pins {

/// The scenario-file spelling of a record detail level (`[run] record`).
inline std::string detail_name(sim::RecordDetail detail) {
  return detail == sim::RecordDetail::kFull ? "full" : "ops-only";
}

inline std::string record_digest(const sim::RunRecord& record) {
  adt::FpHasher h;
  h.mix_bytes(sim::record_to_string(record));
  const adt::Fingerprint fp = h.finish();
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx", static_cast<unsigned long long>(fp.hi),
                static_cast<unsigned long long>(fp.lo));
  return buf;
}

class RecordPins {
 public:
  explicit RecordPins(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open pin file " + path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string suite;
      std::string seed;
      std::string detail;
      std::string digest;
      fields >> suite >> seed >> detail >> digest;
      pins_[suite + " " + seed + " " + detail] = digest;
    }
  }

  /// Fails the current test unless `record` matches the pin of
  /// (suite, seed, detail).
  void expect(const std::string& suite, std::uint64_t seed, sim::RecordDetail detail,
              const sim::RunRecord& record) const {
    const std::string key = suite + " " + std::to_string(seed) + " " + detail_name(detail);
    const std::string digest = record_digest(record);
    const auto it = pins_.find(key);
    if (it == pins_.end()) {
      ADD_FAILURE() << "no pin for " << key << "\n  pin: " << key << " " << digest;
    } else if (it->second != digest) {
      ADD_FAILURE() << "record diverged from its pin " << it->second << "\n  pin: " << key
                    << " " << digest;
    }
  }

 private:
  std::map<std::string, std::string> pins_;
};

}  // namespace lintime::pins
