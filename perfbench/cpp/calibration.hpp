#pragma once
// The host-speed probe.  It runs no lintime code and is built as a target of
// its own (perfbench/CMakeLists.txt), so no compile option of the lintime
// libraries reaches it: a change to lintime does not change what it measures.

namespace perfbench {

/// Seconds to sort 2^19 pseudo-random 64-bit integers (about 4 MB: past the
/// private caches, like the workloads), the same ones every time; the mean
/// of five sorts.
[[nodiscard]] double calibration_s();

}  // namespace perfbench
