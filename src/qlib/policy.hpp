/// \file policy.hpp
/// \brief The warm-start policy library's entry format: keyed, sealed,
///        mergeable governor learning state.
///
/// PR 5 made every governor's learning state serialisable for crash
/// recovery; this subsystem makes that state *reusable*. A `PolicyEntry`
/// carries one governor state blob — either a single device's trained state
/// (leaf) or a fleet merge accumulator (merged) — keyed by a `PolicyKey`
/// (platform-shape fingerprint × workload class × fps band × governor spec)
/// plus provenance (visit totals, epochs trained, source fingerprint), in a
/// sealed `.qpol` file.
///
/// On-disk format (version 1): the sealed envelope of common/sealed.hpp —
/// magic "PRIMEQP\0", header word 0 (offset 24) the key fingerprint
/// (PolicyKey::fingerprint). The payload carries the key fields, the
/// governor display name, the platform shape (OPP/core count), the entry
/// kind, the provenance record and the length-prefixed state blob. Reading
/// fails closed: every envelope check, an unknown entry kind and a
/// header/payload key-fingerprint skew all throw QlibError.
///
/// Merging (merge_entries) is the fleet story: visit-count-weighted Q/visit
/// aggregation through gov::StateMerger — ExactSum-style deterministic
/// accumulation, so merging is associative and order-invariant (like `.fsum`
/// merging) and the fleet policy is bit-identical no matter how devices were
/// sharded or in which order entries were folded.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

namespace prime::gov {
class Governor;
}

namespace prime::hw {
class Platform;
}

namespace prime::qlib {

/// \brief File identification bytes at offset 0.
inline constexpr std::array<unsigned char, 8> kQpolMagic = {
    'P', 'R', 'I', 'M', 'E', 'Q', 'P', '\0'};
/// \brief The format version this build reads and writes.
inline constexpr std::uint32_t kQpolVersion = 1;

/// \brief Error thrown on malformed, incompatible, torn or mismatched
///        policy-library inputs. Messages name the file and expectation.
class QlibError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// \brief The identity a policy entry is keyed and looked up by.
///
/// Two runs share a key iff a trained state is transferable between them:
/// same platform shape (exact V-F table + core count), same workload class
/// (spec root name — the transfer-learning lineage is application-agnostic
/// within a class), same fps band (rates quantised to 5 fps), same canonical
/// governor spec (configuration determines the state layout).
struct PolicyKey {
  std::uint64_t platform_fingerprint = 0;  ///< hw::Platform::shape_fingerprint.
  std::string workload_class;              ///< Workload spec root name.
  std::uint64_t fps_band = 0;              ///< fps rounded to the 5 fps grid.
  std::string governor_spec;               ///< Canonical governor spec.

  /// \brief Build a key from run coordinates. \p governor_spec is
  ///        canonicalised through common::Spec when parseable (so
  ///        "rtm(alpha=0.25)" and "rtm( alpha = 0.25 )" key identically) and
  ///        kept verbatim otherwise; \p workload is reduced to its root name.
  [[nodiscard]] static PolicyKey make(const hw::Platform& platform,
                                      const std::string& workload, double fps,
                                      const std::string& governor_spec);

  /// \brief The workload-class reduction: the spec/display name up to the
  ///        first '(' ("flat(mean=2e8)" -> "flat").
  [[nodiscard]] static std::string workload_class_of(const std::string& name);
  /// \brief The fps-band quantisation: nearest multiple of 5 (minimum 5).
  [[nodiscard]] static std::uint64_t fps_band_of(double fps);
  /// \brief The governor-spec canonicalisation make() applies: Spec
  ///        round-trip when parseable, verbatim otherwise.
  [[nodiscard]] static std::string canonical_governor_spec(
      const std::string& spec);

  /// \brief Canonical one-line encoding (the fingerprint input).
  [[nodiscard]] std::string canonical() const;
  /// \brief FNV-1a over canonical(); stamped in the `.qpol` header and used
  ///        as the library filename discriminator.
  [[nodiscard]] std::uint64_t fingerprint() const;
  /// \brief Library filename: sanitised human-readable prefix plus the
  ///        16-hex-digit fingerprint, ".qpol" extension.
  [[nodiscard]] std::string filename() const;

  [[nodiscard]] bool operator==(const PolicyKey& other) const = default;
};

/// \brief Where an entry's knowledge came from.
struct PolicyProvenance {
  std::uint64_t visit_weight = 0;    ///< Total visit weight (merge algebra).
  std::uint64_t epochs_trained = 0;  ///< Epochs simulated across all sources.
  std::uint64_t sources = 1;         ///< Leaf states folded in.
  /// XOR of the leaf source fingerprints — order-invariant, so a fleet
  /// policy's provenance is identical no matter the merge order.
  std::uint64_t source_fingerprint = 0;
};

/// \brief What the state blob holds.
enum class PolicyBlobKind : std::uint8_t {
  kLeaf = 0,    ///< One governor's save_state() payload, loadable directly.
  kMerged = 1,  ///< A gov::StateMerger accumulator; extract before loading.
};

/// \brief One policy-library entry (see the file comment for the format).
struct PolicyEntry {
  PolicyKey key;
  std::string governor_name;  ///< Governor display name (identity check).
  std::uint64_t opp_count = 0;   ///< Action-space size at training time.
  std::uint64_t core_count = 0;  ///< Cluster core count at training time.
  PolicyBlobKind kind = PolicyBlobKind::kLeaf;
  PolicyProvenance provenance;
  std::string blob;  ///< Leaf state payload or merge accumulator bytes.

  /// \brief Serialise header + payload onto \p out and seal in place
  ///        (requires a seekable stream). Throws QlibError on write failure.
  void write(std::ostream& out) const;
  /// \brief Parse and validate an entry; \p label names the source in errors.
  [[nodiscard]] static PolicyEntry read(std::istream& in,
                                        const std::string& label);
  /// \brief Write to \p path atomically (tmp+rename).
  void save_file(const std::string& path) const;
  /// \brief Load and validate the entry at \p path.
  [[nodiscard]] static PolicyEntry load_file(const std::string& path);

  /// \brief The load_state() payload this entry yields for \p governor: the
  ///        blob itself for a leaf, the merger extraction for a merged
  ///        entry. Throws QlibError when the governor's display name does
  ///        not match or (merged) the governor is not mergeable.
  [[nodiscard]] std::string state_for(const gov::Governor& governor) const;
};

/// \brief Build a leaf entry from a trained governor: captures save_state()
///        as the blob, the platform shape, and provenance (\p epochs_trained
///        plus the visit weight reported by the governor's StateMerger; a
///        non-mergeable governor stores with weight 0 — still warm-startable,
///        just not fleet-mergeable). \p governor_spec empty falls back to the
///        governor's display name for the key.
[[nodiscard]] PolicyEntry make_leaf_entry(const hw::Platform& platform,
                                          const gov::Governor& governor,
                                          const std::string& workload,
                                          double fps,
                                          const std::string& governor_spec,
                                          std::uint64_t epochs_trained);

/// \brief Fuse many entries of the same key into one merged fleet policy.
///
/// Validates that every entry agrees on governor spec, platform shape (OPP
/// and core counts, shape fingerprint), workload class and fps band —
/// mismatches throw QlibError naming the skew, mirroring the checkpoint
/// identity-mismatch errors — then folds leaf blobs and merged accumulators
/// through the governor's StateMerger. The result is kMerged with summed
/// provenance; its bytes are identical for any order or grouping of
/// \p entries (the merge-algebra property pinned by tests/test_qlib.cpp).
[[nodiscard]] PolicyEntry merge_entries(const std::vector<PolicyEntry>& entries);

}  // namespace prime::qlib
