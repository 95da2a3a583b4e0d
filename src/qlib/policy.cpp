#include "qlib/policy.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/hash.hpp"
#include "common/sealed.hpp"
#include "common/serial.hpp"
#include "common/spec.hpp"
#include "common/strings.hpp"
#include "gov/merge.hpp"
#include "gov/registry.hpp"
#include "hw/platform.hpp"

namespace prime::qlib {

namespace {

constexpr common::SealedFormat kFormat{kQpolMagic, kQpolVersion, "policy"};

}  // namespace

// --- PolicyKey ---------------------------------------------------------------

std::string PolicyKey::workload_class_of(const std::string& name) {
  const std::size_t paren = name.find('(');
  std::string root =
      paren == std::string::npos ? name : name.substr(0, paren);
  while (!root.empty() && root.back() == ' ') root.pop_back();
  std::size_t begin = 0;
  while (begin < root.size() && root[begin] == ' ') ++begin;
  return root.substr(begin);
}

std::uint64_t PolicyKey::fps_band_of(double fps) {
  if (!(fps > 0.0)) return 5;
  // A band too large for the key (an absurd rate) falls back to the lowest
  // band, as a non-positive rate does.
  const double band = std::round(fps / 5.0) * 5.0;
  return band < 5.0 || !(band < 0x1p64) ? 5 : static_cast<std::uint64_t>(band);
}

std::string PolicyKey::canonical_governor_spec(const std::string& spec) {
  // Canonicalise through Spec so argument order and whitespace do not fork
  // the key space. Display names with decorator suffixes ("rtm+thermal-cap")
  // are not parseable specs; they key verbatim.
  try {
    return common::Spec::parse(spec).to_string();
  } catch (const std::invalid_argument&) {
    return spec;
  }
}

PolicyKey PolicyKey::make(const hw::Platform& platform,
                          const std::string& workload, double fps,
                          const std::string& governor_spec) {
  PolicyKey key;
  key.platform_fingerprint = platform.shape_fingerprint();
  key.workload_class = workload_class_of(workload);
  key.fps_band = fps_band_of(fps);
  key.governor_spec = canonical_governor_spec(governor_spec);
  return key;
}

std::string PolicyKey::canonical() const {
  return "platform=" + common::hex16(platform_fingerprint) +
         " workload=" + workload_class + " fps=" + std::to_string(fps_band) +
         " governor=" + governor_spec;
}

std::uint64_t PolicyKey::fingerprint() const {
  common::Fnv1a64 h;
  h.u64(platform_fingerprint);
  h.token(workload_class);
  h.u64(fps_band);
  h.token(governor_spec);
  return h.value();
}

std::string PolicyKey::filename() const {
  // Human-readable prefix for `ls`; the fingerprint suffix is the actual
  // discriminator (sanitisation may collide, the fingerprint cannot).
  auto sanitize = [](const std::string& text) {
    std::string out;
    for (char c : text) {
      const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                        c == '.';
      out.push_back(keep ? c : '-');
    }
    return out;
  };
  return sanitize(governor_spec) + "-" + sanitize(workload_class) + "-fps" +
         std::to_string(fps_band) + "-" + common::hex16(fingerprint()) + ".qpol";
}

// --- PolicyEntry -------------------------------------------------------------

void PolicyEntry::write(std::ostream& out) const {
  common::write_sealed<QlibError>(
      out, kFormat, {key.fingerprint()}, [&](common::StateWriter& w) {
        w.u64(key.platform_fingerprint);
        w.str(key.workload_class);
        w.u64(key.fps_band);
        w.str(key.governor_spec);
        w.str(governor_name);
        w.u64(opp_count);
        w.u64(core_count);
        w.u8(static_cast<std::uint8_t>(kind));
        w.u64(provenance.visit_weight);
        w.u64(provenance.epochs_trained);
        w.u64(provenance.sources);
        w.u64(provenance.source_fingerprint);
        w.str(blob);
      });
}

PolicyEntry PolicyEntry::read(std::istream& in, const std::string& label) {
  PolicyEntry entry;
  const common::SealedWords words = common::read_sealed<QlibError>(
      in, kFormat, label, [&](common::StateReader& r) {
        entry.key.platform_fingerprint = r.u64();
        entry.key.workload_class = r.str();
        entry.key.fps_band = r.u64();
        entry.key.governor_spec = r.str();
        entry.governor_name = r.str();
        entry.opp_count = r.u64();
        entry.core_count = r.u64();
        const std::uint8_t kind = r.u8();
        if (kind > static_cast<std::uint8_t>(PolicyBlobKind::kMerged)) {
          throw QlibError("policy '" + label + "': unknown blob kind " +
                          std::to_string(kind));
        }
        entry.kind = static_cast<PolicyBlobKind>(kind);
        entry.provenance.visit_weight = r.u64();
        entry.provenance.epochs_trained = r.u64();
        entry.provenance.sources = r.u64();
        entry.provenance.source_fingerprint = r.u64();
        entry.blob = r.blob();
      });
  if (words[0] != entry.key.fingerprint()) {
    throw QlibError("policy '" + label + "': header key fingerprint " +
                    common::hex16(words[0]) + " does not match the payload key " +
                    common::hex16(entry.key.fingerprint()) +
                    " — corrupt or hand-edited entry");
  }
  return entry;
}

void PolicyEntry::save_file(const std::string& path) const {
  common::save_file_atomically<QlibError>(
      path, kFormat.name, [this](std::ostream& out) { write(out); });
}

PolicyEntry PolicyEntry::load_file(const std::string& path) {
  std::ifstream in = common::open_sealed<QlibError>(path, kFormat);
  return read(in, path);
}

std::string PolicyEntry::state_for(const gov::Governor& governor) const {
  if (governor.name() != governor_name) {
    throw QlibError("policy entry trained for governor '" + governor_name +
                    "' cannot warm-start '" + governor.name() + "'");
  }
  if (kind == PolicyBlobKind::kLeaf) return blob;
  auto merger = governor.make_state_merger();
  if (!merger) {
    throw QlibError("merged policy entry for '" + governor_name +
                    "' but the governor does not support state merging");
  }
  try {
    merger->add_accumulator(blob);
    return merger->extract_state();
  } catch (const gov::StateMergeError& e) {
    throw QlibError("policy entry for '" + governor_name + "': " + e.what());
  }
}

// --- make_leaf_entry ---------------------------------------------------------

PolicyEntry make_leaf_entry(const hw::Platform& platform,
                            const gov::Governor& governor,
                            const std::string& workload, double fps,
                            const std::string& governor_spec,
                            std::uint64_t epochs_trained) {
  PolicyEntry entry;
  entry.key = PolicyKey::make(
      platform, workload, fps,
      governor_spec.empty() ? governor.name() : governor_spec);
  entry.governor_name = governor.name();
  entry.opp_count = platform.opp_table().size();
  entry.core_count = platform.total_cores();
  entry.kind = PolicyBlobKind::kLeaf;
  {
    std::ostringstream out(std::ios::binary);
    governor.save_state(out);
    entry.blob = out.str();
  }
  entry.provenance.epochs_trained = epochs_trained;
  entry.provenance.sources = 1;
  if (auto merger = governor.make_state_merger()) {
    try {
      merger->add_state(entry.blob);
      entry.provenance.visit_weight = merger->weight();
    } catch (const gov::StateMergeError& e) {
      throw QlibError("policy: governor '" + governor.name() +
                      "' produced unparsable state: " + e.what());
    }
  }
  common::Fnv1a64 h;
  h.u64(entry.key.fingerprint());
  h.u64(epochs_trained);
  h.bytes(entry.blob.data(), entry.blob.size());
  entry.provenance.source_fingerprint = h.value();
  return entry;
}

// --- merge_entries -----------------------------------------------------------

PolicyEntry merge_entries(const std::vector<PolicyEntry>& entries) {
  if (entries.empty()) {
    throw QlibError("policy merge: no entries to merge");
  }
  const PolicyEntry& first = entries.front();
  // Shape skew gets its own specific error per axis — mirroring the
  // checkpoint identity-mismatch errors — before any state bytes are touched.
  for (const PolicyEntry& e : entries) {
    if (e.governor_name != first.governor_name) {
      throw QlibError("policy merge: governor mismatch ('" +
                      first.governor_name + "' vs '" + e.governor_name + "')");
    }
    if (e.key.governor_spec != first.key.governor_spec) {
      throw QlibError("policy merge: governor spec mismatch ('" +
                      first.key.governor_spec + "' vs '" +
                      e.key.governor_spec + "')");
    }
    if (e.opp_count != first.opp_count) {
      throw QlibError("policy merge: OPP count mismatch (" +
                      std::to_string(first.opp_count) + " vs " +
                      std::to_string(e.opp_count) +
                      ") — the entries were trained on different action "
                      "spaces");
    }
    if (e.core_count != first.core_count) {
      throw QlibError("policy merge: core count mismatch (" +
                      std::to_string(first.core_count) + " vs " +
                      std::to_string(e.core_count) + ")");
    }
    if (e.key.platform_fingerprint != first.key.platform_fingerprint) {
      throw QlibError("policy merge: platform shape mismatch (" +
                      common::hex16(first.key.platform_fingerprint) + " vs " +
                      common::hex16(e.key.platform_fingerprint) +
                      ") — same table size but different operating points");
    }
    if (e.key != first.key) {
      throw QlibError("policy merge: key mismatch ('" + first.key.canonical() +
                      "' vs '" + e.key.canonical() + "')");
    }
  }

  std::unique_ptr<gov::Governor> prototype;
  try {
    prototype = gov::governor_registry().create(first.key.governor_spec, 0);
  } catch (const std::exception& e) {
    throw QlibError("policy merge: cannot construct governor '" +
                    first.key.governor_spec + "' to merge: " + e.what());
  }
  auto merger = prototype->make_state_merger();
  if (!merger) {
    throw QlibError("policy merge: governor '" + first.governor_name +
                    "' has no mergeable learning state");
  }

  PolicyEntry merged;
  merged.key = first.key;
  merged.governor_name = first.governor_name;
  merged.opp_count = first.opp_count;
  merged.core_count = first.core_count;
  merged.kind = PolicyBlobKind::kMerged;
  merged.provenance.visit_weight = 0;
  merged.provenance.epochs_trained = 0;
  merged.provenance.sources = 0;
  merged.provenance.source_fingerprint = 0;
  try {
    for (const PolicyEntry& e : entries) {
      if (e.kind == PolicyBlobKind::kLeaf) {
        merger->add_state(e.blob);
      } else {
        merger->add_accumulator(e.blob);
      }
      merged.provenance.epochs_trained += e.provenance.epochs_trained;
      merged.provenance.sources += e.provenance.sources;
      merged.provenance.source_fingerprint ^=
          e.provenance.source_fingerprint;
    }
  } catch (const gov::StateMergeError& e) {
    throw QlibError(std::string("policy merge: ") + e.what());
  }
  merged.provenance.visit_weight = merger->weight();
  merged.blob = merger->accumulator();
  return merged;
}

}  // namespace prime::qlib
