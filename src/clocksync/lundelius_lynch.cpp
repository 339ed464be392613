#include "clocksync/lundelius_lynch.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/named_ops.hpp"
#include "sim/process.hpp"
#include "sim/world.hpp"

namespace lintime::clocksync {

namespace {

class SyncProcess final : public sim::Process {
 public:
  explicit SyncProcess(std::vector<sim::Time>& adjustments) : adjustments_(adjustments) {}

  void on_start(sim::Context& ctx) override {
    // Wire format: the sender's local clock at send time, in Payload::clock.
    sim::Payload reading;
    reading.clock = ctx.local_time();
    ctx.broadcast(std::move(reading));
  }

  void on_invoke(sim::Context&, adt::OpId, const adt::Value&) override {
    throw std::logic_error("clock sync handles no operations");
  }

  void on_message(sim::Context& ctx, sim::ProcId /*src*/, const sim::Payload& payload) override {
    const sim::Time sender_local = payload.clock;
    const auto& p = ctx.params();
    // Midpoint delay estimate: the true receive-time reading of the sender's
    // clock is T_s + delta for delta in [d-u, d]; using d - u/2 bounds the
    // estimation error by u/2.
    const sim::Time estimated_diff =
        (sender_local + p.d - p.u / 2.0) - ctx.local_time();
    sum_diffs_ += estimated_diff;
    if (++received_ == ctx.n() - 1) {
      // Average over all n processes, counting our own difference as 0.
      adjustments_[static_cast<std::size_t>(ctx.self())] = sum_diffs_ / ctx.n();
    }
  }

  void on_timer(sim::Context&, sim::TimerId, const sim::Payload&) override {
    throw std::logic_error("clock sync sets no timers");
  }

 private:
  std::vector<sim::Time>& adjustments_;
  sim::Time sum_diffs_ = 0;
  int received_ = 0;
};

}  // namespace

SyncOutcome synchronize(const sim::ModelParams& params,
                        const std::vector<sim::Time>& hardware_offsets,
                        std::shared_ptr<sim::DelayModel> delays) {
  if (hardware_offsets.size() != static_cast<std::size_t>(params.n)) {
    throw std::invalid_argument("synchronize: offsets size != n");
  }

  SyncOutcome outcome;
  outcome.adjustments.assign(hardware_offsets.size(), 0.0);

  // The sync round invokes no operations, but a World needs a data type to
  // issue OpIds: an empty NamedOps declares none.
  const sim::NamedOps no_operations;
  sim::WorldConfig config;
  config.type = &no_operations;
  config.params = params;
  // The sync round runs before any skew bound holds; hardware offsets are
  // arbitrary.
  config.params.eps = std::numeric_limits<sim::Time>::infinity();
  config.enforce_valid_skew = false;
  config.clock_offsets = hardware_offsets;
  config.delays = std::move(delays);

  sim::World world(config, [&outcome](sim::ProcId) {
    return std::make_unique<SyncProcess>(outcome.adjustments);
  });
  world.run();

  outcome.logical_offsets.resize(hardware_offsets.size());
  for (std::size_t i = 0; i < hardware_offsets.size(); ++i) {
    outcome.logical_offsets[i] = hardware_offsets[i] + outcome.adjustments[i];
  }
  for (std::size_t i = 0; i < outcome.logical_offsets.size(); ++i) {
    for (std::size_t j = i + 1; j < outcome.logical_offsets.size(); ++j) {
      outcome.achieved_skew = std::max(
          outcome.achieved_skew, std::abs(outcome.logical_offsets[i] - outcome.logical_offsets[j]));
    }
  }
  outcome.optimal_skew = (1.0 - 1.0 / params.n) * params.u;
  return outcome;
}

}  // namespace lintime::clocksync
