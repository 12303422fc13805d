#pragma once
// String-keyed registries behind the Machine API: the 9 topology families,
// their routers, and the PRAM program families the CLI can instantiate.
//
// Everything here is static data + factories — the catalogue the spec
// grammar draws its valid tokens from. Construction errors (bad parameter
// ranges, router/family mismatches) come back as messages that name the
// bad token and list the alternatives, so `levnet_run` users never need
// the source to discover a key.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "emulation/fabric.hpp"
#include "machine/spec.hpp"
#include "pram/program.hpp"
#include "routing/router.hpp"
#include "topology/graph.hpp"

namespace levnet::machine {

// ---------------------------------------------------------------- topology

struct RouterInfo {
  std::string_view key;
  std::string_view description;
  /// The router accepts a ':' parameter (e.g. three-stage slice height).
  bool takes_param = false;
};

class TopologyBox;

/// A family's normalised dimensions as its constructor takes them, e.g.
/// {n, 0} for the star, {radix, levels} for the butterfly.
struct Dims {
  std::uint32_t first = 0;
  std::uint32_t second = 0;
};

struct TopologyInfo {
  std::string_view key;
  /// Parameter help for --list / error messages, e.g. "n (2..9)".
  std::string_view params_help;
  std::string_view description;
  /// Valid router keys for this family; front() is the default.
  std::vector<RouterInfo> routers;
  /// A tiny parameterization for CI smoke specs ({param0, param1}).
  std::uint32_t smoke_param0 = 0;
  std::uint32_t smoke_param1 = 0;
  /// The family's one legality rule: spec (param0, param1) -> the dims to
  /// build, or nullopt when out of range or over the node cap. Pure
  /// arithmetic; constructs nothing.
  std::optional<Dims> (*shape)(std::uint32_t param0,
                               std::uint32_t param1) = nullptr;
  /// Constructs the family at dims its shape rule returned.
  std::unique_ptr<TopologyBox> (*build)(Dims dims) = nullptr;
};

/// The registered families, in catalogue order.
[[nodiscard]] const std::vector<TopologyInfo>& topology_families();

/// Lookup by key; nullptr when unknown.
[[nodiscard]] const TopologyInfo* find_topology(std::string_view key);

/// "star, shuffle, nshuffle, ..." — for error messages.
[[nodiscard]] std::string topology_keys_joined();

/// Looks up the spec's family and applies its shape rule: the family and
/// `dims`, or nullptr + `error` (unknown family, or bad parameters naming
/// the family's params_help). Constructs nothing.
[[nodiscard]] const TopologyInfo* check_shape(const MachineSpec& spec,
                                              Dims& dims, std::string& error);

/// True when `key` is one of the family's routers and carries a nonzero
/// `param` only if it takes one; otherwise false + `error` (unknown key
/// listing the valid ones, or a parameter on a router that takes none).
/// Constructs nothing.
[[nodiscard]] bool check_router(const TopologyInfo& info, std::string_view key,
                                std::uint32_t param, std::string& error);

/// An owned, type-erased topology instance: the concrete graph classes
/// (StarGraph, DWayShuffle, ...) stay public for low-level use; the box is
/// what the Machine owns when all it needs is the common surface.
class TopologyBox {
 public:
  virtual ~TopologyBox() = default;

  [[nodiscard]] virtual const topology::Graph& graph() const noexcept = 0;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Processor == memory-module endpoint count (all nodes for the
  /// vertex-symmetric families; column-0 rows for the butterfly).
  [[nodiscard]] virtual std::uint32_t endpoints() const noexcept = 0;
  /// The diameter scale L of the theorems (hash degree, rehash budgets).
  [[nodiscard]] virtual std::uint32_t route_scale() const noexcept = 0;

  /// Constructs the family router named `key` (nullptr + `error` listing
  /// the family's valid keys when unknown). `param` is the optional router
  /// parameter (0 = default).
  [[nodiscard]] virtual std::unique_ptr<routing::Router> make_router(
      std::string_view key, std::uint32_t param, std::string& error) const = 0;

  /// Binds this topology and `router` into an emulation fabric.
  [[nodiscard]] virtual emulation::EmulationFabric make_fabric(
      const routing::Router& router) const = 0;
};

/// Builds the spec's topology: check_shape(), then the family's builder.
/// nullptr + `error` on unknown family or out-of-range parameters.
[[nodiscard]] std::unique_ptr<TopologyBox> build_topology(
    const MachineSpec& spec, std::string& error);

// ---------------------------------------------------------------- programs

struct ProgramInfo {
  std::string_view key;
  std::string_view description;
  /// Minimal machine mode the family's program is legal on.
  pram::Mode required_mode = pram::Mode::kErew;
  /// The family profits from (or exists to exercise) en-route combining.
  bool wants_combining = false;
};

/// The registered PRAM program families, in catalogue order.
[[nodiscard]] const std::vector<ProgramInfo>& program_families();

/// True when a machine in `mode` can legally run a program requiring
/// `required` (erew < crew < crcw; crcw-combining counts as crcw).
[[nodiscard]] bool mode_allows(Mode mode, pram::Mode required) noexcept;

[[nodiscard]] const ProgramInfo* find_program(std::string_view key);

/// True when program family `key` exists and can legally run on a `mode`
/// machine; otherwise false + `error` naming the unknown key (with the
/// valid ones) or the mode it needs — both front ends' wording.
[[nodiscard]] bool check_program(std::string_view key, Mode mode,
                                 std::string& error);

[[nodiscard]] std::string program_keys_joined();

/// Instantiates program family `key` sized to `processors` endpoints, with
/// seed-derived input data. `pram_steps` bounds the synthetic-traffic
/// families (permutation/random/hot-spot); data-driven families ignore it.
/// nullptr + `error` (naming the key and listing valid ones) when unknown.
[[nodiscard]] std::unique_ptr<pram::PramProgram> make_program(
    std::string_view key, std::uint32_t processors, std::uint64_t seed,
    std::uint32_t pram_steps, std::string& error);

}  // namespace levnet::machine
