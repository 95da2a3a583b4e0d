#include "qlib/sink.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "common/spec.hpp"
#include "common/units.hpp"
#include "qlib/library.hpp"
#include "qlib/policy.hpp"

namespace prime::qlib {

QlibSink::QlibSink(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) {
    throw std::invalid_argument("QlibSink: a library directory is required");
  }
}

void QlibSink::bind(sim::RunBinding* run) { run_ = run; }

void QlibSink::on_run_begin(const sim::RunContext&) {
  if (run_ == nullptr) {
    throw std::logic_error(
        "QlibSink '" + dir_ +
        "': not bound to a run — policy publication is only supported by the "
        "single-app engine (run_simulation), which binds attached qlib sinks "
        "at run begin");
  }
}

void QlibSink::on_epoch(const sim::EpochRecord&, gov::Governor&) {}

void QlibSink::on_run_end(const sim::RunResult& result) {
  // The key derives from the run unless the sink carries gov=/wl=/fps=
  // overrides: the builder and fleet key by construction spec instead of
  // display name, so lookups match across processes.
  const wl::Application& app = run_->app;
  const double fps =
      fps_ > 0.0 ? fps_ : common::fps_from_period(app.deadline_at(0));
  const std::string& workload = workload_.empty() ? app.name() : workload_;
  const PolicyLibrary lib(dir_);
  const std::string path =
      lib.put(make_leaf_entry(run_->platform, run_->governor, workload, fps,
                              governor_spec_, result.epoch_count));
  if (!path.empty()) {
    ++published_;
    last_path_ = path;
  }
}

// --- Registry entry ----------------------------------------------------------

namespace {

const sim::TelemetrySinkRegistrar reg_qlib{
    sim::telemetry_registry(), "qlib",
    "publish the trained governor state into a policy library at run end: "
    "qlib(dir=out/qlib); optional gov=/wl=/fps= override the key components "
    "derived from the run",
    [](const common::Spec& spec) {
      const std::string dir = spec.get_string("dir", "");
      const std::string gov = spec.get_string("gov", "");
      const std::string wl = spec.get_string("wl", "");
      const double fps = spec.get_double("fps", 0.0);
      if (dir.empty()) {
        const auto unknown = spec.unrequested_keys();
        if (!unknown.empty()) {
          throw common::UnknownKeyError("telemetry sink", "qlib", unknown,
                                        spec.requested_keys());
        }
        throw std::invalid_argument(
            "telemetry sink 'qlib': a library directory is required, e.g. "
            "qlib(dir=out/qlib)");
      }
      auto sink = std::make_unique<QlibSink>(dir);
      if (!gov.empty()) sink->set_governor_spec(gov);
      if (!wl.empty()) sink->set_workload(wl);
      if (fps > 0.0) sink->set_fps(fps);
      return sink;
    }};

}  // namespace

}  // namespace prime::qlib
