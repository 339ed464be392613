#pragma once
// A data type that only names operations, for Worlds whose processes have no
// sequential semantics.  A World needs a type to issue the OpIds it
// schedules; such processes read the names back through spec(id).  With no
// names it declares no operations (a World that never invokes anything).

#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "adt/data_type.hpp"

namespace lintime::sim {

class NamedOps final : public adt::DataType {
 public:
  NamedOps(std::initializer_list<const char*> names = {}) {
    for (const char* name : names) {
      ops_.push_back(adt::OpSpec{name, adt::OpCategory::kMixed, true});
    }
  }

  [[nodiscard]] std::string name() const override { return "named-ops"; }
  [[nodiscard]] const std::vector<adt::OpSpec>& ops() const override { return ops_; }
  [[nodiscard]] std::unique_ptr<adt::ObjectState> make_initial_state() const override {
    throw std::logic_error("NamedOps has no sequential state");
  }

 private:
  std::vector<adt::OpSpec> ops_;
};

}  // namespace lintime::sim
