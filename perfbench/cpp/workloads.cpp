#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "adt/data_type.hpp"
#include "adt/fingerprint.hpp"
#include "campaign/executor.hpp"
#include "campaign/metrics.hpp"
#include "campaign/sink.hpp"
#include "core/sharded_store.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "lin/check.hpp"
#include "lin/fast/classifier.hpp"
#include "lin/fast/history_gen.hpp"
#include "scenario/expand.hpp"
#include "scenario/scenario.hpp"
#include "calibration.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace adt = lintime::adt;
namespace campaign = lintime::campaign;
namespace core = lintime::core;
namespace harness = lintime::harness;
namespace lin = lintime::lin;
namespace scenario = lintime::scenario;
namespace sim = lintime::sim;

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Mean of the middle of `v`, a tenth dropped at each end: it averages over
/// the slow and fast stretches of a shared host, where a median jumps
/// between them, and no single stalled repetition moves it far.
double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 10;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// Host speed.  On a shared host the same repetition runs up to 1.6 times
// slower for minutes at a time, with CPU time tracking wall time: the
// neighbours take cache and memory bandwidth, not the CPU.  A fixed task
// that does not touch lintime (calibration.hpp), timed between the untraced
// repetitions, measures that speed; the end-to-end times are reported at
// the speed at which it takes kReferenceCalibrationS (README, "Host speed").

constexpr double kReferenceCalibrationS = 0.05;

std::string hex(const adt::Fingerprint& fp) {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx", static_cast<unsigned long long>(fp.hi),
                static_cast<unsigned long long>(fp.lo));
  return buf;
}

/// Digest of a run's deterministic output bytes.
std::string digest(const std::string& bytes) {
  adt::FpHasher h;
  h.mix_bytes(bytes);
  return hex(h.finish());
}

/// Digest of a history's records, so a pinned verdict list also pins the
/// generated inputs it was computed from.
std::string history_digest(const std::vector<sim::OpRecord>& ops) {
  adt::FpHasher h;
  for (const auto& r : ops) {
    h.mix_int(r.proc);
    h.mix_bytes(r.op);
    r.arg.feed(h);
    r.ret.feed(h);
    h.mix(std::bit_cast<std::uint64_t>(r.invoke_real));
    h.mix(std::bit_cast<std::uint64_t>(r.response_real));
  }
  return hex(h.finish());
}

struct Usage {
  double cpu_s = 0;
  double minor_faults = 0;
  double invol_ctx_switches = 0;
  double max_rss_mb = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  u.invol_ctx_switches = static_cast<double>(ru.ru_nivcsw);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
  return u;
}

// ---------------------------------------------------------------------------
// What one repetition produced.

/// One history a verdict covers: a checked campaign job, a projected key
/// history, or a generated monitor history.
struct Verdict {
  std::string label;
  std::string shape;   ///< sweep / history group, e.g. "wide", "refute"
  std::string route;   ///< "fast_path", "general", "threw" or "declined"
  std::string family;  ///< deciding monitor family on the fast path
  std::string reason;  ///< why a history was declined, or what a check threw
  std::string history;  ///< digest of the generated history (monitor-scale)
  bool linearizable = false;
  std::size_t ops = 0;
  std::size_t nodes = 0;
  std::size_t memo_hits = 0;
  std::size_t memo_collisions = 0;

  [[nodiscard]] bool decided() const { return route == "fast_path" || route == "general"; }
};

struct Rep {
  double wall_s = 0;
  std::string output;              ///< deterministic output: campaign JSON + verdict list
  std::vector<Verdict> verdicts;
  std::map<std::string, std::size_t> facts;  ///< counts the gate and the pins read

  std::size_t jobs = 0;
  std::size_t jobs_failed = 0;
  std::size_t ops_invoked = 0;    ///< simulated invocations recorded
  std::size_t ops_complete = 0;   ///< simulated (or, on monitor-scale, checked) ops done
  std::size_t steps = 0;
  std::size_t messages_sent = 0;
  std::size_t messages_dropped = 0;
  std::size_t records_scanned = 0;
  std::size_t records_kept = 0;
  std::size_t ops_swallowed = 0;  ///< planned but never invoked (crashed process)
  std::size_t plan_calls = 0;     ///< traced run only
  std::size_t sink_bytes = 0;

  [[nodiscard]] std::size_t checked_ops() const {
    std::size_t n = 0;
    for (const Verdict& v : verdicts) n += v.decided() ? v.ops : 0;
    return n;
  }
  [[nodiscard]] std::size_t threw_ops() const {
    std::size_t n = 0;
    for (const Verdict& v : verdicts) n += v.route == "threw" ? v.ops : 0;
    return n;
  }
};

std::string render(const std::vector<Verdict>& verdicts) {
  std::ostringstream os;
  for (const Verdict& v : verdicts) {
    os << v.label << ' ' << v.route << ' ';
    if (v.route == "declined") {
      os << '(' << v.reason << ')';
    } else {
      os << (v.linearizable ? "linearizable" : "violation");
    }
    os << " ops=" << v.ops
       << " nodes=" << v.nodes;
    if (!v.history.empty()) os << " history=" << v.history;
    os << '\n';
  }
  return os.str();
}

/// Checks one history and records its verdict under a span named after the
/// route that decided it: check.fast.<family> or check.general.<shape>.
Verdict check_history(const adt::DataType& type, const std::vector<sim::OpRecord>& ops,
                      std::string label, const std::string& shape, Tracer* tracer,
                      std::int64_t trace) {
  Verdict v;
  v.label = std::move(label);
  v.shape = shape;
  v.ops = ops.size();
  Scope span(tracer, "check", trace);
  try {
    const lin::CheckReport report = lin::check(type, ops);
    v.route = lin::to_string(report.stats.route);
    v.linearizable = report.result.linearizable;
    v.nodes = report.stats.nodes_expanded;
    v.memo_hits = report.stats.memo_hits;
    v.memo_collisions = report.stats.memo_collisions;
    if (report.stats.route == lin::CheckRoute::kFastPath) {
      v.family = adt::to_string(report.stats.family);
      span.rename("check.fast." + v.family);
    } else {
      span.rename("check.general." + shape);
    }
  } catch (const std::exception& e) {
    v.route = "threw";
    v.reason = e.what();
  }
  return v;
}

// ---------------------------------------------------------------------------
// Workload interface.

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  Workload(Workload&&) = delete;
  Workload& operator=(Workload&&) = delete;
  virtual ~Workload() = default;

  /// Builds fresh inputs (scenario campaigns, generated histories).
  virtual void setup(Tracer* tracer) = 0;
  /// Runs on the inputs of the last setup(); the traced run when `tracer`
  /// is non-null.
  virtual Rep run(Tracer* tracer) = 0;
  /// Operations one repetition attempts.
  [[nodiscard]] virtual std::size_t attempted() const = 0;
  /// Operations expected not to complete (crash-swallowed invocations).
  [[nodiscard]] virtual std::size_t expected_missing() const { return 0; }
  /// Workload-specific expectations on one repetition; one message per miss.
  [[nodiscard]] virtual std::vector<std::string> expectations(const Rep& rep) const = 0;
};

// ---------------------------------------------------------------------------
// Scenario workloads: serving-uniform, serving-checked, search-general.

struct Sweep {
  std::string shape;  ///< "serving", "wide", "refute", "long"
  std::string file;
  std::vector<scenario::AxisOverride> overrides;
  bool project_keys = false;  ///< check each key's projection after the run
};

/// One job, layer by layer, assembled exactly as the executor's run_one
/// assembles it (campaign/executor.cpp), with a span around each layer call.
campaign::JobResult traced_job(const campaign::Job& job, std::size_t index, bool keep_record,
                               const std::string& shape, Tracer& tracer, std::int64_t trace,
                               std::size_t& plan_calls) {
  const Scope job_span(&tracer, "job", trace);
  campaign::JobResult result;
  result.index = index;
  result.name = job.name;
  result.tags = job.tags;
  try {
    harness::RunSpec spec = job.spec;
    if (spec.workload != nullptr) {
      const Scope span(&tracer, "harness.plan");
      harness::WorkloadPlan plan = spec.workload->generate(*job.type, spec.params);
      plan_calls += plan.calls.size();
      for (const auto& script : plan.scripts) plan_calls += script.size();
      spec.workload = nullptr;
      spec.calls = std::move(plan.calls);
      spec.scripts = std::move(plan.scripts);
      spec.script_start = plan.script_start;
      spec.script_gap = plan.script_gap;
    }
    {
      const Scope span(&tracer, "execute");
      result.run = harness::execute(*job.type, spec);
    }
    {
      const Scope span(&tracer, "campaign.reduce");
      result.metrics = campaign::reduce_record(result.run.record);
      for (const auto& rec : result.run.record.ops) {
        if (rec.complete()) result.latency_samples[rec.op].push_back(rec.latency());
      }
    }
    if (job.check_linearizability) {
      const Verdict v = check_history(*job.type, result.run.record.ops, job.name, shape, &tracer,
                                      trace);
      if (v.route == "threw") throw std::runtime_error(v.reason);
      result.metrics.verdict = v.linearizable ? campaign::JobMetrics::Verdict::kLinearizable
                                              : campaign::JobMetrics::Verdict::kViolation;
      result.metrics.check_nodes_expanded = v.nodes;
      result.metrics.check_route = v.route;
      result.metrics.check_memo_hits = v.memo_hits;
      result.metrics.check_memo_collisions = v.memo_collisions;
    }
    result.ok = true;
    if (!keep_record) result.run.record = sim::RunRecord{};
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
    result.run = harness::RunResult{};
    result.metrics = campaign::JobMetrics{};
    result.latency_samples.clear();
  }
  return result;
}

class ScenarioWorkload : public Workload {
 public:
  using Expect = std::vector<std::string> (*)(const Rep&, std::size_t planned,
                                              std::size_t missing);

  ScenarioWorkload(std::string dir, std::vector<Sweep> sweeps, Expect expect)
      : dir_(std::move(dir)), sweeps_(std::move(sweeps)), expect_(expect) {
    census();
  }

  void setup(Tracer* tracer) override {
    campaigns_.clear();
    for (const Sweep& sweep : sweeps_) {
      scenario::Scenario sc;
      {
        const Scope span(tracer, "scenario.parse");
        sc = scenario::load_scenario_file(dir_ + "/" + sweep.file);
      }
      const Scope span(tracer, "scenario.expand");
      campaigns_.push_back(scenario::expand(sc, sweep.overrides));
    }
  }

  Rep run(Tracer* tracer) override {
    if (campaigns_.size() != sweeps_.size()) throw std::logic_error("run() before setup()");
    Rep rep;
    std::int64_t trace_base = 0;
    const auto t0 = Clock::now();
    for (std::size_t s = 0; s < sweeps_.size(); ++s) {
      const Sweep& sweep = sweeps_[s];
      const campaign::CampaignSpec& spec = campaigns_[s].spec;
      campaign::CampaignResult result;
      if (tracer == nullptr) {
        campaign::ExecutorOptions options;
        options.jobs = 1;
        options.keep_records = sweep.project_keys;
        result = campaign::run_campaign(spec, options);
      } else {
        result.name = spec.name;
        result.jobs.resize(spec.jobs.size());
        for (std::size_t j = 0; j < spec.jobs.size(); ++j) {
          result.jobs[j] = traced_job(spec.jobs[j], j, sweep.project_keys, sweep.shape, *tracer,
                                      trace_base + static_cast<std::int64_t>(j), rep.plan_calls);
        }
      }
      if (sweep.project_keys) project_and_check(result, spec, sweep.shape, tracer, trace_base, rep);
      campaign::CampaignMetrics agg;
      {
        const Scope span(tracer, "campaign.reduce");
        agg = result.aggregate();
      }
      std::string json;
      std::string csv;
      {
        const Scope span(tracer, "campaign.sink");
        json = campaign::to_json(result);
        csv = campaign::to_csv(result);
      }
      rep.sink_bytes += json.size() + csv.size();
      rep.output += json;
      tally(result, agg, spec, sweep.shape, rep);
      trace_base += static_cast<std::int64_t>(spec.jobs.size());
    }
    rep.wall_s = since(t0);
    campaigns_.clear();  // stateful delay models: every run needs a fresh setup
    rep.ops_swallowed = planned_ - std::min(planned_, rep.ops_invoked);
    rep.output += render(rep.verdicts);
    return rep;
  }

  [[nodiscard]] std::size_t attempted() const override { return planned_; }
  [[nodiscard]] std::size_t expected_missing() const override { return missing_; }

  [[nodiscard]] std::vector<std::string> expectations(const Rep& rep) const override {
    return expect_(rep, planned_, missing_);
  }

 private:
  /// Plans every job once, untimed, to learn how many operations a
  /// repetition attempts and how many the crash schedule swallows; and runs
  /// the key-projected sweeps once, untimed, to learn which key histories
  /// the fast path declines.  Those are not searched: the general search
  /// recurses once per operation and overflows the stack on key histories
  /// this long (README, "Defects found while sizing").
  void census() {
    setup(nullptr);
    for (std::size_t s = 0; s < sweeps_.size(); ++s) {
      if (!sweeps_[s].project_keys) continue;
      campaign::ExecutorOptions options;
      options.jobs = 1;
      options.keep_records = true;
      const campaign::CampaignSpec& spec = campaigns_[s].spec;
      const campaign::CampaignResult result = campaign::run_campaign(spec, options);
      for (const campaign::JobResult& job : result.jobs) {
        if (!job.ok) continue;
        const auto& store = dynamic_cast<const core::ShardedStore&>(*spec.jobs[job.index].type);
        for (std::int64_t key = 0; key < store.num_keys(); ++key) {
          const auto history = core::restrict_to_key(job.run.record.ops, store, key);
          if (history.empty()) continue;
          const auto cls = lin::fast::classify(store.component(), history);
          if (!cls.eligible) declined_[key_label(result.name, job.name, key)] = cls.reason;
        }
      }
    }
    for (const auto& c : campaigns_) {
      for (const campaign::Job& job : c.spec.jobs) {
        if (job.spec.workload == nullptr) continue;
        const harness::WorkloadPlan plan = job.spec.workload->generate(*job.type, job.spec.params);
        planned_ += plan.calls.size();
        for (const auto& script : plan.scripts) planned_ += script.size();
        for (const sim::CrashEvent& crash : job.spec.faults.crashes) {
          for (const harness::Call& call : plan.calls) {
            if (call.proc == crash.proc && call.when >= crash.when) ++missing_;
          }
        }
      }
    }
    campaigns_.clear();
  }

  static std::string key_label(const std::string& campaign, const std::string& job,
                               std::int64_t key) {
    return campaign + "/" + job + "/key=" + std::to_string(key);
  }

  void project_and_check(const campaign::CampaignResult& result,
                         const campaign::CampaignSpec& spec, const std::string& shape,
                         Tracer* tracer, std::int64_t trace_base, Rep& rep) const {
    for (const campaign::JobResult& job : result.jobs) {
      if (!job.ok) continue;
      const auto* store = dynamic_cast<const core::ShardedStore*>(spec.jobs[job.index].type);
      if (store == nullptr) throw std::logic_error("project_keys on a job without a store");
      const auto& ops = job.run.record.ops;
      const std::int64_t trace = trace_base + static_cast<std::int64_t>(job.index);
      for (std::int64_t key = 0; key < store->num_keys(); ++key) {
        std::vector<sim::OpRecord> history;
        {
          const Scope span(tracer, "project", trace);
          history = core::restrict_to_key(ops, *store, key);
        }
        rep.records_scanned += ops.size();
        rep.records_kept += history.size();
        if (history.empty()) continue;
        std::string label = key_label(result.name, job.name, key);
        if (const auto d = declined_.find(label); d != declined_.end()) {
          Verdict v;
          v.label = std::move(label);
          v.shape = shape;
          v.route = "declined";
          v.reason = d->second;
          v.ops = history.size();
          rep.verdicts.push_back(std::move(v));
          continue;
        }
        rep.verdicts.push_back(
            check_history(store->component(), history, std::move(label), shape, tracer, trace));
      }
    }
  }

  static void tally(const campaign::CampaignResult& result, const campaign::CampaignMetrics& agg,
                    const campaign::CampaignSpec& spec, const std::string& shape, Rep& rep) {
    const std::string& name = result.name;
    rep.jobs += agg.jobs_total;
    rep.jobs_failed += agg.jobs_failed;
    rep.ops_complete += agg.ops_complete;
    rep.facts[name + ".jobs"] = agg.jobs_total;
    rep.facts[name + ".failed"] = agg.jobs_failed;
    rep.facts[name + ".checked"] = agg.jobs_checked;
    rep.facts[name + ".linearizable"] = agg.jobs_linearizable;
    rep.facts[name + ".violations"] = agg.jobs_checked - agg.jobs_linearizable;
    rep.facts[name + ".fast_path"] = agg.jobs_fast_path;
    rep.facts[name + ".ops_complete"] = agg.ops_complete;
    for (const campaign::JobResult& job : result.jobs) {
      const campaign::JobMetrics& m = job.metrics;
      rep.ops_invoked += m.ops_invoked;
      rep.steps += m.steps;
      rep.messages_sent += m.messages_sent;
      rep.messages_dropped += m.messages_dropped;
      if (!job.ok || m.verdict == campaign::JobMetrics::Verdict::kNotChecked) continue;
      Verdict v;
      v.label = name + "/" + job.name;
      v.shape = shape;
      v.route = m.check_route;
      if (v.route == lin::to_string(lin::CheckRoute::kFastPath)) {
        v.family = adt::to_string(spec.jobs[job.index].type->monitor_family());
      }
      v.linearizable = m.verdict == campaign::JobMetrics::Verdict::kLinearizable;
      v.ops = m.ops_invoked;
      v.nodes = m.check_nodes_expanded;
      v.memo_hits = m.check_memo_hits;
      v.memo_collisions = m.check_memo_collisions;
      rep.verdicts.push_back(std::move(v));
    }
  }

  std::string dir_;
  std::vector<Sweep> sweeps_;
  Expect expect_;
  std::vector<scenario::ScenarioCampaign> campaigns_;
  std::size_t planned_ = 0;
  std::size_t missing_ = 0;
  std::map<std::string, std::string> declined_;  ///< key label -> classifier reason
};

// ---------------------------------------------------------------------------
// monitor-scale: generated histories straight into the fast monitors.

class MonitorWorkload : public Workload {
 public:
  MonitorWorkload(std::uint64_t seed, std::size_t clean_ops, std::size_t mutated_ops)
      : seed_(seed), clean_ops_(clean_ops), mutated_ops_(mutated_ops) {
    for (const char* name : {"queue", "stack", "set", "pqueue"}) {
      types_.push_back(scenario::make_data_type(name));
    }
  }

  void setup(Tracer* tracer) override {
    histories_.clear();
    for (std::size_t i = 0; i <= types_.size(); ++i) {
      const bool mutated = i == types_.size();
      const adt::DataType& type = *types_[mutated ? 0 : i];
      lin::fast::GenOptions gen;
      gen.procs = 8;
      gen.total_ops = mutated ? mutated_ops_ : clean_ops_;
      gen.seed = seed_ * 16 + i;
      History h;
      h.type = &type;
      h.expect_linearizable = !mutated;
      h.label = type.name() + "-" + std::to_string(gen.total_ops) + (mutated ? "-mutated" : "");
      {
        const Scope span(tracer, "history_gen", static_cast<std::int64_t>(i));
        h.ops = lin::fast::generate_unambiguous(type, gen);
        if (mutated) lin::fast::append_impossible_observation(type, h.ops);
      }
      histories_.push_back(std::move(h));
    }
  }

  Rep run(Tracer* tracer) override {
    Rep rep;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < histories_.size(); ++i) {
      const History& h = histories_[i];
      const auto trace = static_cast<std::int64_t>(i);
      const Scope job(tracer, "job", trace);
      rep.verdicts.push_back(check_history(*h.type, h.ops, h.label, "monitor", tracer, trace));
    }
    rep.wall_s = since(t0);
    for (std::size_t i = 0; i < histories_.size(); ++i) {
      rep.verdicts[i].history = history_digest(histories_[i].ops);
    }
    for (const Verdict& v : rep.verdicts) rep.ops_complete += v.ops;
    rep.output = render(rep.verdicts);
    return rep;
  }

  [[nodiscard]] std::size_t attempted() const override {
    std::size_t n = 0;
    for (const History& h : histories_) n += h.ops.size();
    return n;
  }

  [[nodiscard]] std::vector<std::string> expectations(const Rep& rep) const override {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < rep.verdicts.size(); ++i) {
      const Verdict& v = rep.verdicts[i];
      const bool want = histories_[i].expect_linearizable;
      if (v.route != "fast_path") out.push_back(v.label + " took route " + v.route);
      if (v.linearizable != want) {
        out.push_back(v.label + (want ? " is not linearizable" : " was not refuted"));
      }
    }
    return out;
  }

 private:
  struct History {
    std::string label;
    const adt::DataType* type = nullptr;
    std::vector<sim::OpRecord> ops;
    bool expect_linearizable = true;
  };

  std::uint64_t seed_;
  std::size_t clean_ops_;
  std::size_t mutated_ops_;
  std::vector<std::unique_ptr<adt::DataType>> types_;
  std::vector<History> histories_;
};

// ---------------------------------------------------------------------------
// Workload definitions.

std::vector<std::string> expect_serving_uniform(const Rep& rep, std::size_t planned,
                                                std::size_t) {
  std::vector<std::string> out;
  if (rep.jobs_failed != 0) out.push_back(std::to_string(rep.jobs_failed) + " job(s) failed");
  if (rep.ops_complete != planned) {
    out.push_back(std::to_string(rep.ops_complete) + " of " + std::to_string(planned) +
                  " planned ops completed");
  }
  return out;
}

std::vector<std::string> expect_serving_checked(const Rep& rep, std::size_t planned,
                                                std::size_t missing) {
  std::vector<std::string> out;
  if (rep.jobs_failed != 0) out.push_back(std::to_string(rep.jobs_failed) + " job(s) failed");
  if (rep.ops_invoked != planned - missing || rep.ops_complete != rep.ops_invoked) {
    out.push_back(std::to_string(rep.ops_complete) + " ops completed and " +
                  std::to_string(rep.ops_invoked) + " recorded; expected " +
                  std::to_string(planned - missing) + " (" + std::to_string(planned) +
                  " planned, " + std::to_string(missing) + " swallowed by the crash)");
  }
  if (rep.verdicts.empty()) out.push_back("no key history was checked");
  for (const Verdict& v : rep.verdicts) {
    // The one known way off the fast path (README, defect 4): the serving
    // plan's first argument is 0, the register's initial value.
    if (v.route == "declined" &&
        v.reason.find("write of the initial value") != std::string::npos) {
      continue;
    }
    if (v.route != "fast_path") out.push_back(v.label + " took route " + v.route);
    if (!v.linearizable) out.push_back(v.label + " is not linearizable");
  }
  return out;
}

std::vector<std::string> expect_search_general(const Rep& rep, std::size_t planned,
                                               std::size_t) {
  std::vector<std::string> out;
  if (rep.jobs_failed != 0) out.push_back(std::to_string(rep.jobs_failed) + " job(s) failed");
  if (rep.ops_complete != planned) {
    out.push_back(std::to_string(rep.ops_complete) + " of " + std::to_string(planned) +
                  " planned ops completed");
  }
  for (const Verdict& v : rep.verdicts) {
    // Algorithm 1 on reliable links is linearizable; only the partitioned
    // sweep may (and mostly does) produce violations.
    if (v.shape != "refute" && !v.linearizable) out.push_back(v.label + " is not linearizable");
    if (v.shape == "long" && v.route != "general") out.push_back(v.label + " left the search");
  }
  if (rep.verdicts.size() != rep.jobs) out.push_back("a job went unchecked");
  return out;
}

scenario::AxisOverride axis(std::string name, std::vector<std::string> values) {
  return scenario::AxisOverride{std::move(name), std::move(values)};
}

/// `count` per-job seeds derived from the workload seed.
std::vector<std::string> job_seeds(std::uint64_t seed, int count) {
  std::vector<std::string> out;
  for (int i = 1; i <= count; ++i) out.push_back(std::to_string(seed * 100000 + i));
  return out;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  const bool full = o.scale == Scale::kFull;
  const std::string seed = std::to_string(o.seed);
  if (o.workload == "serving-uniform") {
    std::vector<scenario::AxisOverride> ov{axis("seed", {seed})};
    if (!full) ov.push_back(axis("ops", {"4000"}));
    return std::make_unique<ScenarioWorkload>(
        o.scenario_dir, std::vector<Sweep>{{"serving", "serving_uniform.toml", ov, false}},
        expect_serving_uniform);
  }
  if (o.workload == "serving-checked") {
    std::vector<scenario::AxisOverride> ov{axis("seed", {seed})};
    // Process 7's i-th call arrives at 20*i + 17.5; 7@(20*k + 15) swallows
    // calls k.. in a quiet window (see serving_checked.toml).
    if (!full) {
      ov.push_back(axis("ops", {"4000"}));
      ov.push_back(axis("crash", {"7@9015"}));
    }
    return std::make_unique<ScenarioWorkload>(
        o.scenario_dir, std::vector<Sweep>{{"serving", "serving_checked.toml", ov, true}},
        expect_serving_checked);
  }
  if (o.workload == "search-general") {
    const int wide_register = full ? 300 : 10;
    const int wide_set = full ? 500 : 10;
    const int refute = full ? 500 : 10;
    const int long_jobs = 2;
    return std::make_unique<ScenarioWorkload>(
        o.scenario_dir,
        std::vector<Sweep>{
            {"wide", "wide_register.toml", {axis("seed", job_seeds(o.seed, wide_register))}, false},
            {"wide", "wide_set.toml", {axis("seed", job_seeds(o.seed, wide_set))}, false},
            {"refute", "refute_queue.toml", {axis("seed", job_seeds(o.seed, refute))}, false},
            {"long", "long_queue.toml",
             {axis("seed", job_seeds(o.seed, long_jobs)), axis("ops", {full ? "4000" : "200"})},
             false}},
        expect_search_general);
  }
  if (o.workload == "monitor-scale") {
    return std::make_unique<MonitorWorkload>(o.seed, full ? 400000 : 2000,
                                             full ? 100000 : 500);
  }
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

// ---------------------------------------------------------------------------
// Pins: `<workload> <scale> <seed> <fact> <value>` lines.

struct Pin {
  std::string fact;
  std::string value;
};

std::vector<Pin> load_pins(const Options& o) {
  std::vector<Pin> out;
  std::ifstream in(o.pins_file);
  if (!in) throw std::runtime_error("cannot read pins file '" + o.pins_file + "'");
  const std::string scale = o.scale == Scale::kFull ? "full" : "smoke";
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string workload;
    std::string sc;
    std::uint64_t seed = 0;
    Pin pin;
    if (!(ls >> workload >> sc >> seed >> pin.fact >> pin.value)) {
      throw std::runtime_error("malformed pin line: " + line);
    }
    if (workload == o.workload && sc == scale && seed == o.seed) out.push_back(std::move(pin));
  }
  return out;
}

std::map<std::string, std::string> facts_of(const Rep& rep) {
  std::map<std::string, std::string> out;
  for (const auto& [k, v] : rep.facts) out[k] = std::to_string(v);
  out["digest"] = digest(rep.output);
  out["ops_complete"] = std::to_string(rep.ops_complete);
  std::size_t violations = 0;
  std::size_t declined = 0;
  std::map<std::string, std::size_t> nodes;
  for (const Verdict& v : rep.verdicts) {
    violations += v.decided() && !v.linearizable ? 1 : 0;
    declined += v.route == "declined" ? 1 : 0;
    nodes[v.shape] += v.nodes;
  }
  for (const auto& [shape, n] : nodes) out["nodes." + shape] = std::to_string(n);
  out["verdicts"] = std::to_string(rep.verdicts.size());
  out["declined"] = std::to_string(declined);
  out["violations"] = std::to_string(violations);
  return out;
}

// ---------------------------------------------------------------------------
// Metrics.

std::vector<Metric> per_layer(const Rep& rep, const Tracer& tracer, const Usage& usage) {
  const std::map<std::string, double> self = tracer.self_time_by_name();
  const auto busy = [&self](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto busy_prefix = [&self](const std::string& prefix) {
    double s = 0;
    for (const auto& [name, t] : self) s += name.rfind(prefix, 0) == 0 ? t : 0;
    return s;
  };

  std::size_t fast = 0;
  std::size_t nodes = 0;
  std::size_t memo_hits = 0;
  std::size_t memo_collisions = 0;
  std::size_t violations = 0;
  std::size_t declined = 0;
  std::map<std::string, std::size_t> fast_ops;
  for (const Verdict& v : rep.verdicts) {
    declined += v.route == "declined" ? 1 : 0;
    if (v.route == "fast_path") {
      ++fast;
      fast_ops[v.family] += v.ops;
    }
    nodes += v.nodes;
    memo_hits += v.memo_hits;
    memo_collisions += v.memo_collisions;
    violations += v.decided() && !v.linearizable ? 1 : 0;
  }

  std::vector<double> jobs_ms;
  for (const Span& s : tracer.spans()) {
    if (s.name == "job") jobs_ms.push_back((s.end - s.start) * 1e3);
  }
  std::sort(jobs_ms.begin(), jobs_ms.end());
  // Highest nearest-rank percentile with at least ten jobs beyond it.
  double tail = jobs_ms.empty() ? 0 : jobs_ms.back();
  double tail_pct = 100;
  if (jobs_ms.size() > 10) {
    tail = jobs_ms[jobs_ms.size() - 11];
    tail_pct = 100.0 * static_cast<double>(jobs_ms.size() - 10) /
               static_cast<double>(jobs_ms.size());
  }

  const double execute_s = busy("execute");
  const double general_s = busy_prefix("check.general.");
  std::vector<Metric> m{
      {"scenario.parse_s", busy("scenario.parse"), "s"},
      {"scenario.expand_s", busy("scenario.expand"), "s"},
      {"scenario.jobs", static_cast<double>(rep.jobs), "count"},
      {"history_gen.busy_s", busy("history_gen"), "s"},
      {"harness.plan_s", busy("harness.plan"), "s"},
      {"harness.plan_calls", static_cast<double>(rep.plan_calls), "count"},
      {"execute.busy_s", execute_s, "s"},
      {"execute.us_per_op", ratio(execute_s * 1e6, static_cast<double>(rep.ops_invoked)), "us"},
      {"execute.ops_swallowed", static_cast<double>(rep.ops_swallowed), "count"},
      {"execute.steps", static_cast<double>(rep.steps), "count"},
      {"execute.messages_sent", static_cast<double>(rep.messages_sent), "count"},
      {"execute.messages_dropped", static_cast<double>(rep.messages_dropped), "count"},
      {"project.busy_s", busy("project"), "s"},
      {"project.records_scanned", static_cast<double>(rep.records_scanned), "count"},
      {"project.useful_ratio",
       ratio(static_cast<double>(rep.records_kept), static_cast<double>(rep.records_scanned)),
       "1"},
      {"check.fast.busy_s", busy_prefix("check.fast."), "s"},
      {"check.fast_ratio",
       ratio(static_cast<double>(fast), static_cast<double>(rep.verdicts.size())), "1"},
  };
  for (const char* family : {"register", "queue", "stack", "set", "pqueue"}) {
    const std::string f = family;
    m.push_back({"check.fast." + f + ".ns_per_op",
                 ratio(busy("check.fast." + f) * 1e9, static_cast<double>(fast_ops[f])), "ns"});
  }
  const std::vector<Metric> rest{
      {"check.general.busy_s", general_s, "s"},
      {"check.general.nodes", static_cast<double>(nodes), "count"},
      {"check.general.us_per_node", ratio(general_s * 1e6, static_cast<double>(nodes)), "us"},
      {"check.general.memo_hit_ratio",
       ratio(static_cast<double>(memo_hits), static_cast<double>(nodes)), "1"},
      {"check.general.memo_collisions", static_cast<double>(memo_collisions), "count"},
      {"check.general.wide.busy_s", busy("check.general.wide"), "s"},
      {"check.general.refute.busy_s", busy("check.general.refute"), "s"},
      {"check.general.long.busy_s", busy("check.general.long"), "s"},
      {"check.histories", static_cast<double>(rep.verdicts.size()), "count"},
      {"check.ops", static_cast<double>(rep.checked_ops()), "count"},
      {"check.violations", static_cast<double>(violations), "count"},
      {"check.declined", static_cast<double>(declined), "count"},
      {"campaign.reduce_s", busy("campaign.reduce"), "s"},
      {"campaign.sink_s", busy("campaign.sink"), "s"},
      {"campaign.sink_bytes", static_cast<double>(rep.sink_bytes), "bytes"},
      {"job.count", static_cast<double>(jobs_ms.size()), "count"},
      {"job.busy_p50_ms", median(jobs_ms), "ms"},
      {"job.busy_tail_ms", tail, "ms"},
      {"job.busy_tail_pct", tail_pct, "%"},
      {"proc.cpu_s", usage.cpu_s, "s"},
      {"proc.minor_faults", usage.minor_faults, "count"},
      {"proc.invol_ctx_switches", usage.invol_ctx_switches, "count"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

}  // namespace

Outcome run_workload(const Options& o) {
  std::unique_ptr<Workload> w = make_workload(o);
  const std::vector<Pin> pins = load_pins(o);
  Outcome out;
  const auto fail = [&out, &o](const std::string& what) {
    out.correct = false;
    const std::string e = o.workload + ": " + what;
    if (std::find(out.errors.begin(), out.errors.end(), e) == out.errors.end()) {
      out.errors.push_back(e);
    }
  };

  std::vector<double> setups;
  std::string reference_digest;
  std::size_t pins_checked = 0;
  // Gate on every repetition, traced or not: the workload's own
  // expectations, the pins for this seed, and byte-identity with the first
  // repetition's output.
  const auto gate = [&](const Rep& rep, const char* run) {
    for (const std::string& e : w->expectations(rep)) fail(std::string(run) + " run: " + e);
    const std::map<std::string, std::string> facts = facts_of(rep);
    const std::string& digest = facts.at("digest");
    if (reference_digest.empty()) {
      reference_digest = digest;
      for (const auto& [k, v] : facts) out.notes.push_back("fact " + k + " " + v);
    } else if (digest != reference_digest) {
      fail(std::string(run) + " run output digest " + digest + " differs from the first run's " +
           reference_digest);
    }
    for (const Verdict& v : rep.verdicts) {
      if (v.route != "declined") continue;
      const std::string note = "known defect: " + v.label + " (" + std::to_string(v.ops) +
                               " ops) declined by the fast path: " + v.reason +
                               "; not searched (perfbench/README.md, defect 4)";
      if (std::find(out.notes.begin(), out.notes.end(), note) == out.notes.end()) {
        out.notes.push_back(note);
      }
    }
    for (const Pin& pin : pins) {
      const auto it = facts.find(pin.fact);
      const std::string got = it == facts.end() ? "<absent>" : it->second;
      if (got != pin.value) {
        fail(std::string(run) + " run: " + pin.fact + " = " + got + ", pinned " + pin.value);
      }
      ++pins_checked;
    }
    out.attempted += w->attempted();
    const std::size_t done = rep.ops_complete + w->expected_missing();
    out.failed += (w->attempted() > done ? w->attempted() - done : 0) + rep.threw_ops();
  };

  std::vector<double> calibrations;
  // Repetitions until `seconds` have passed, at least three; each takes a
  // fresh setup, timed as it is paid: right after the previous repetition,
  // with cold caches.  (Back-to-back warm set-ups of a few microseconds
  // differed by half between processes; the cold ones by about a tenth.)
  // The host's speed is measured before the first untraced repetition and
  // after each, so the measurements bracket every repetition.  A traced run
  // gives half its seconds to the untraced repetitions and half to the
  // traced ones.
  const double seconds = o.trace ? o.seconds / 2 : o.seconds;
  const auto repeat = [&](bool traced, std::vector<std::unique_ptr<Tracer>>& tracers,
                          std::vector<Rep>& reps, std::vector<Usage>& usage) {
    const char* run = traced ? "traced" : "untraced";
    const auto start = Clock::now();
    while (reps.size() < 3 || since(start) < seconds) {
      Tracer* tracer = nullptr;
      if (traced) tracer = tracers.emplace_back(std::make_unique<Tracer>()).get();
      // Set-up allocates thousands of small objects; on the heap a previous
      // repetition left behind, its time depended on the seed by a factor
      // of two.
      malloc_trim(0);
      const Usage before = usage_now();
      const auto t0 = Clock::now();
      w->setup(tracer);
      const double setup_s = since(t0);
      Rep rep = w->run(tracer);
      const Usage after = usage_now();
      if (!traced) {
        setups.push_back(setup_s);
        calibrations.push_back(calibration_s());
      }
      gate(rep, run);
      usage.push_back({after.cpu_s - before.cpu_s, after.minor_faults - before.minor_faults,
                       after.invol_ctx_switches - before.invol_ctx_switches, after.max_rss_mb});
      std::string().swap(rep.output);
      reps.push_back(std::move(rep));
    }
  };

  std::vector<std::unique_ptr<Tracer>> tracers;
  std::vector<Rep> reps;
  std::vector<Usage> usage;
  calibrations.push_back(calibration_s());
  repeat(false, tracers, reps, usage);

  // Every repetition does the same work (the gate holds their outputs
  // byte-identical), so the rates divide the first one's counts by the wall.
  std::vector<double> walls;
  for (const Rep& r : reps) walls.push_back(r.wall_s);
  const double wall = trimmed_mean(walls);
  const double calibration = trimmed_mean(calibrations);
  const double to_reference = kReferenceCalibrationS / calibration;
  const auto list = [](const std::vector<double>& v) {
    std::ostringstream os;
    for (const double x : v) os << ' ' << x;
    return os.str();
  };
  out.notes.push_back("untraced walls (s):" + list(walls));
  out.notes.push_back("untraced setups (s):" + list(setups));
  std::vector<double> cpus;
  for (const Usage& u : usage) cpus.push_back(u.cpu_s);
  out.notes.push_back("untraced cpu (s):" + list(cpus));
  out.notes.push_back("calibrations (s):" + list(calibrations));
  const Rep& first = reps.front();
  const std::size_t not_done =
      w->attempted() - std::min(w->attempted(), first.ops_complete) + first.threw_ops();
  const double fail_ratio =
      ratio(static_cast<double>(not_done), static_cast<double>(w->attempted()));

  const double ref_wall = wall * to_reference;
  const std::vector<Metric> end_to_end{
      {"setup_s", median(setups) * to_reference, "s"},
      {"wall_s", ref_wall, "s"},
      {"ops_per_s", static_cast<double>(first.ops_complete) / ref_wall, "ops/s"},
      {"peak_rss_mb", usage_now().max_rss_mb, "MB"},
  };
  const Metric checked{"checked_ops_per_s", static_cast<double>(first.checked_ops()) / ref_wall,
                       "ops/s"};
  const Metric fail_metric{"op_fail_ratio", fail_ratio, "1"};

  // As measured on this host, before the conversion to the reference speed.
  const std::vector<Metric> host{
      {"host.calibration_s", calibration, "s"},
      {"host.setup_s", median(setups), "s"},
      {"host.wall_s", wall, "s"},
      {"host.ops_per_s", static_cast<double>(first.ops_complete) / wall, "ops/s"},
  };

  if (!o.trace) {
    out.metrics = end_to_end;
    out.extra = {checked, fail_metric};
    out.extra.insert(out.extra.end(), host.begin(), host.end());
  } else {
    std::vector<Rep> traced;
    std::vector<Usage> traced_usage;
    repeat(true, tracers, traced, traced_usage);
    // Per-layer numbers come from the traced repetition with the median wall.
    std::vector<std::size_t> order(traced.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&traced](std::size_t a, std::size_t b) {
      return traced[a].wall_s < traced[b].wall_s;
    });
    const std::size_t mid = order[order.size() / 2];
    std::vector<double> traced_walls;
    for (const Rep& r : traced) traced_walls.push_back(r.wall_s);
    out.notes.push_back("traced walls (s):" + list(traced_walls));

    out.metrics = per_layer(traced[mid], *tracers[mid], traced_usage[mid]);
    out.metrics.push_back({"trace.overhead_ratio", trimmed_mean(traced_walls) / wall - 1, "1"});
    out.metrics.push_back(checked);
    out.metrics.push_back(fail_metric);
    out.extra = end_to_end;
    out.extra.insert(out.extra.end(), host.begin(), host.end());
    if (!o.spans_out.empty()) {
      std::ofstream spans(o.spans_out);
      tracers[mid]->write_json(spans);
      if (!spans) fail("cannot write spans to '" + o.spans_out + "'");
    }
  }
  out.notes.push_back("pins checked: " + std::to_string(pins_checked) +
                      (pins.empty() ? " (no pins for this seed and scale)" : ""));
  return out;
}

}  // namespace perfbench
