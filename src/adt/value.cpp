#include "adt/value.hpp"

#include <ostream>
#include <sstream>

#include "adt/fingerprint.hpp"

namespace lintime::adt {

namespace {

void hash_combine(std::size_t& seed, std::size_t h) {
  // Boost-style mixing; good enough for memo-table keys.
  seed ^= h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

}  // namespace

bool operator<(const Value& a, const Value& b) {
  const int ra = a.kind_order();
  const int rb = b.kind_order();
  if (ra != rb) return ra < rb;
  switch (ra) {
    case 0:
      return false;  // nil == nil
    case 1:
      return a.as_int() < b.as_int();
    case 2:
      return a.as_str() < b.as_str();
    default: {
      const auto& va = a.as_vec();
      const auto& vb = b.as_vec();
      return std::lexicographical_compare(va.begin(), va.end(), vb.begin(), vb.end());
    }
  }
}

std::string Value::to_string() const {
  if (is_nil()) return "nil";
  if (is_int()) return std::to_string(as_int());
  if (is_str()) {
    std::ostringstream os;
    os << '"' << as_str() << '"';
    return os.str();
  }
  std::ostringstream os;
  os << '[';
  const auto& vec = as_vec();
  for (std::size_t i = 0; i < vec.size(); ++i) {
    if (i > 0) os << ", ";
    os << vec[i].to_string();
  }
  os << ']';
  return os.str();
}

std::size_t Value::hash() const {
  if (is_nil()) return 0x6e696cULL;
  if (is_int()) return std::hash<std::int64_t>{}(as_int());
  if (is_str()) return std::hash<std::string>{}(as_str());
  std::size_t seed = 0x766563ULL;
  for (const auto& e : as_vec()) hash_combine(seed, e.hash());
  return seed;
}

void Value::feed(FpHasher& h) const {
  // Kind tag first so e.g. nil and the empty vector stream differently.
  if (is_nil()) {
    h.mix(0);
  } else if (is_int()) {
    h.mix(1);
    h.mix_int(as_int());
  } else if (is_str()) {
    h.mix(2);
    h.mix_bytes(as_str());
  } else {
    const auto& vec = as_vec();
    h.mix(3);
    h.mix(vec.size());
    for (const auto& e : vec) e.feed(h);
  }
}

std::ostream& operator<<(std::ostream& os, const Value& v) { return os << v.to_string(); }

}  // namespace lintime::adt
