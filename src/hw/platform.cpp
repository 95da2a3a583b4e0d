#include "hw/platform.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/hash.hpp"
#include "common/serial.hpp"

namespace prime::hw {

Platform::Platform(OppTable table, const ClusterParams& cluster_params,
                   const PowerSensorParams& sensor_params,
                   std::uint64_t sensor_seed, std::size_t clusters)
    : table_(std::move(table)), sensor_(sensor_params, sensor_seed) {
  if (clusters == 0) {
    throw std::invalid_argument("Platform: at least one cluster required");
  }
  clusters_.reserve(clusters);
  clusters_.push_back(std::make_unique<Cluster>(table_, cluster_params));
  // The domains are homogeneous: copying the fresh domain 0 gives each one
  // the same state as its own construction, without recomputing the per-OPP
  // coefficient table.
  for (std::size_t d = 1; d < clusters; ++d) {
    clusters_.push_back(std::make_unique<Cluster>(*clusters_.front()));
  }
  total_cores_ = clusters * cluster_params.cores;
}

std::unique_ptr<Platform> Platform::odroid_xu3_a15(std::uint64_t sensor_seed) {
  ClusterParams params;
  params.cores = 4;
  // Start at the table midpoint like cpufreq does after boot.
  params.initial_opp = 9;  // 1100 MHz
  auto platform = std::make_unique<Platform>(OppTable::odroid_xu3_a15(), params,
                                             PowerSensorParams{}, sensor_seed);
  platform->set_name("odroid-xu3-a15");
  return platform;
}

std::unique_ptr<Platform> Platform::from_config(const common::Config& cfg) {
  const auto clusters = static_cast<std::size_t>(cfg.get_int("hw.clusters", 1));
  const auto cores = static_cast<std::size_t>(cfg.get_int("hw.cores", 4));
  const auto opps = static_cast<std::size_t>(cfg.get_int("hw.opps", 19));
  const double fmin = cfg.get_double("hw.fmin_mhz", 200.0);
  const double fmax = cfg.get_double("hw.fmax_mhz", 2000.0);

  OppTable table = (opps == 19 && fmin == 200.0 && fmax == 2000.0)
                       ? OppTable::odroid_xu3_a15()
                       : OppTable::linear(opps, common::mhz(fmin),
                                          common::mhz(fmax), 0.9, 1.3625);

  ClusterParams params;
  params.cores = cores;
  params.power.ceff = cfg.get_double("hw.ceff", params.power.ceff);
  params.power.idle_fraction =
      cfg.get_double("hw.idle_fraction", params.power.idle_fraction);
  params.thermal.ambient = cfg.get_double("hw.ambient", params.thermal.ambient);
  params.initial_opp = table.size() / 2;

  const auto seed =
      static_cast<std::uint64_t>(cfg.get_int("hw.sensor_seed", 0xC0FFEE));
  auto platform = std::make_unique<Platform>(std::move(table), params,
                                             PowerSensorParams{}, seed,
                                             clusters);
  platform->set_name(cfg.get_string("hw.name", "sim-board"));
  return platform;
}

std::uint64_t Platform::shape_fingerprint() const noexcept {
  common::Fnv1a64 h;
  h.u64(static_cast<std::uint64_t>(total_cores_));
  h.u64(static_cast<std::uint64_t>(table_.size()));
  for (const Opp& opp : table_.points()) {
    h.f64(opp.frequency);
    h.f64(opp.voltage);
  }
  // Domain structure only enters the hash on multi-domain boards: a 2x4
  // platform must never share `.ckpt`/`.qpol` keys with a 1x8 one (per-domain
  // decisions make learned state non-interchangeable), while single-domain
  // fingerprints stay exactly the historical value.
  if (clusters_.size() > 1) {
    h.u64(static_cast<std::uint64_t>(clusters_.size()));
    for (const auto& c : clusters_) {
      h.u64(static_cast<std::uint64_t>(c->core_count()));
    }
  }
  return h.value();
}

BoardEpoch Platform::make_epoch(std::vector<std::size_t> slot_domain,
                                std::vector<std::size_t> slot_local) const {
  BoardEpoch epoch;
  epoch.contiguous = slot_domain.size() == total_cores_;
  for (std::size_t j = 0; epoch.contiguous && j < slot_domain.size(); ++j) {
    epoch.contiguous = slot_domain[j] == domain_of_core(j) &&
                       slot_local[j] == local_of_core(j);
  }
  epoch.slot_domain = std::move(slot_domain);
  epoch.slot_local = std::move(slot_local);
  if (!epoch.contiguous) {
    for (const auto& c : clusters_) {
      epoch.work.emplace_back(c->core_count(), common::Cycles{0});
    }
  }
  epoch.domains.resize(clusters_.size());
  return epoch;
}

void Platform::run_epoch_into(BoardEpoch& epoch, common::Cycles* row,
                              common::Seconds overhead, common::Seconds period,
                              double mem_fraction) {
  // The governor's processing overhead executes as cycles on slot 0's core
  // at its domain's frequency, consuming time and energy (T_OVH, Sec. III-D).
  if (!epoch.slot_domain.empty() && overhead > 0.0) {
    row[0] += common::cycles_at(
        clusters_[epoch.slot_domain[0]]->current_opp().frequency, overhead);
  }
  // Assigning is enough: no core holds two slots, and a core no slot covers
  // keeps the zero make_epoch() gave it.
  if (!epoch.contiguous) {
    for (std::size_t j = 0; j < epoch.slot_domain.size(); ++j) {
      epoch.work[epoch.slot_domain[j]][epoch.slot_local[j]] = row[j];
    }
  }
  const std::size_t cores = clusters_.front()->core_count();
  for (std::size_t d = 0; d < clusters_.size(); ++d) {
    const common::Cycles* work =
        epoch.contiguous ? row + d * cores : epoch.work[d].data();
    clusters_[d]->run_epoch_into(work, cores, period, mem_fraction,
                                 kMemRefFrequency, epoch.domains[d]);
  }

  // The combine starts from domain 0's result, never from a 0 seed: a board
  // below 0 degC must report its hottest domain, not 0 degC.
  const EpochScratch& first = epoch.domains[0];
  common::Seconds frame_time = first.frame_time;
  common::Seconds window = first.window;
  common::Joule energy = first.energy;
  common::Celsius temperature = first.temperature;
  common::Cycles executed = first.executed;
  std::size_t bottleneck = 0;
  for (std::size_t d = 1; d < clusters_.size(); ++d) {
    const EpochScratch& sc = epoch.domains[d];
    if (sc.frame_time > frame_time) {
      frame_time = sc.frame_time;
      bottleneck = d;
    }
    window = std::max(window, sc.window);
    temperature = std::max(temperature, sc.temperature);
    energy += sc.energy;
    executed += sc.executed;
  }
  epoch.frame_time = frame_time;
  epoch.bottleneck = bottleneck;
  epoch.window = window;
  epoch.energy = energy;
  epoch.avg_power = window > 0.0 ? energy / window : 0.0;
  epoch.temperature = temperature;
  epoch.executed = executed;
}

void Platform::reset() {
  for (const auto& c : clusters_) c->reset();
  sensor_.reset();
}

void Platform::save_state(std::ostream& out) const {
  common::StateWriter w(out);
  for (const auto& c : clusters_) c->save_state(w);
  sensor_.save_state(w);
}

void Platform::load_state(std::istream& in) {
  common::StateReader r(in);
  for (const auto& c : clusters_) c->load_state(r);
  sensor_.load_state(r);
}

}  // namespace prime::hw
