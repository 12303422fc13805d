#include "machine/registry.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "machine/spec.hpp"
#include "pram/algorithms/access_patterns.hpp"
#include "pram/algorithms/broadcast.hpp"
#include "pram/algorithms/compaction.hpp"
#include "pram/algorithms/histogram.hpp"
#include "pram/algorithms/list_ranking.hpp"
#include "pram/algorithms/matmul.hpp"
#include "pram/algorithms/matvec.hpp"
#include "pram/algorithms/max_find.hpp"
#include "pram/algorithms/prefix_sum.hpp"
#include "pram/algorithms/sorting.hpp"
#include "routing/extra_routers.hpp"
#include "routing/hypercube_router.hpp"
#include "routing/mesh_router.hpp"
#include "routing/shuffle_router.hpp"
#include "routing/star_router.hpp"
#include "routing/two_phase.hpp"
#include "support/rng.hpp"
#include "topology/butterfly.hpp"
#include "topology/ccc.hpp"
#include "topology/hypercube.hpp"
#include "topology/linear_array.hpp"
#include "topology/mesh.hpp"
#include "topology/shuffle.hpp"
#include "topology/star.hpp"
#include "topology/torus.hpp"

namespace levnet::machine {

namespace {

/// Simulation-practical ceiling on constructed network size: the CSR graph
/// plus router tables for 4M nodes already stress a laptop; anything larger
/// is a spec typo, not an experiment.
constexpr std::uint64_t kMaxNodes = std::uint64_t{1} << 22;

[[nodiscard]] bool power_fits(std::uint32_t base, std::uint32_t exponent,
                              std::uint64_t limit) {
  std::uint64_t value = 1;
  for (std::uint32_t i = 0; i < exponent; ++i) {
    value *= base;
    if (value > limit) return false;
  }
  return true;
}

/// The deterministic oblivious router of the linear processor array
/// (Section 3.4.1's 1-D substrate): one step toward the destination. Lives
/// here because the linear array needs *a* router to be a Machine and the
/// greedy walk is its only sensible oblivious policy.
class LinearGreedyRouter final : public routing::Router {
 public:
  void prepare(routing::Packet&, support::Rng&,
               const topology::Liveness*) const override {}
  [[nodiscard]] routing::NodeId next_hop(
      routing::Packet& p, routing::NodeId at, support::Rng&,
      const topology::Liveness*) const override {
    if (at == p.dst) return routing::kInvalidNode;
    return at < p.dst ? at + 1 : at - 1;
  }
  [[nodiscard]] std::uint32_t remaining(const routing::Packet& p,
                                        routing::NodeId at) const override {
    return at < p.dst ? p.dst - at : at - p.dst;
  }
};

[[nodiscard]] std::string router_keys_joined(const TopologyInfo& info) {
  std::string joined;
  for (const RouterInfo& router : info.routers) {
    if (!joined.empty()) joined += ", ";
    joined += router.key;
  }
  return joined;
}

/// Fills `error` for a router key `family` does not list; returns nullptr.
std::unique_ptr<routing::Router> unknown_router(std::string_view family,
                                                std::string_view key,
                                                std::string& error) {
  const TopologyInfo* info = find_topology(family);
  error = "unknown router '" + std::string(key) + "' for topology '" +
          std::string(family) +
          "' (valid: " + (info != nullptr ? router_keys_joined(*info) : "") +
          ")";
  return nullptr;
}

// --------------------------------------------------------------- boxes

/// Shared implementation for the vertex-symmetric families: every node is
/// processor i == module i and the fabric is the identity binding. The
/// route scale (the theorems' L) is delegated to the topology class's own
/// closed form via the subclass override — never re-derived here.
template <typename Topology>
class IdentityBox : public TopologyBox {
 public:
  template <typename... Args>
  explicit IdentityBox(Args&&... args)
      : topo_(std::forward<Args>(args)...) {}

  [[nodiscard]] const topology::Graph& graph() const noexcept override {
    return topo_.graph();
  }
  [[nodiscard]] std::string name() const override { return topo_.name(); }
  [[nodiscard]] std::uint32_t endpoints() const noexcept override {
    return topo_.graph().node_count();
  }
  [[nodiscard]] emulation::EmulationFabric make_fabric(
      const routing::Router& router) const override {
    return emulation::EmulationFabric(topo_.graph(), router, route_scale(),
                                      topo_.name());
  }

 protected:
  Topology topo_;
};

class StarBox final : public IdentityBox<topology::StarGraph> {
 public:
  explicit StarBox(Dims dims) : IdentityBox(dims.first) {}

  [[nodiscard]] std::uint32_t route_scale() const noexcept override {
    return topo_.diameter();
  }
  [[nodiscard]] std::unique_ptr<routing::Router> make_router(
      std::string_view key, std::uint32_t, std::string& error) const override {
    if (key == "two-phase") {
      return std::make_unique<routing::StarTwoPhaseRouter>(topo_);
    }
    if (key == "greedy") {
      return std::make_unique<routing::StarGreedyRouter>(topo_);
    }
    return unknown_router("star", key, error);
  }
};

class ShuffleBox final : public IdentityBox<topology::DWayShuffle> {
 public:
  explicit ShuffleBox(Dims dims) : IdentityBox(dims.first, dims.second) {}

  [[nodiscard]] std::uint32_t route_scale() const noexcept override {
    return topo_.route_length();
  }
  [[nodiscard]] std::unique_ptr<routing::Router> make_router(
      std::string_view key, std::uint32_t, std::string& error) const override {
    if (key == "two-phase") {
      return std::make_unique<routing::ShuffleTwoPhaseRouter>(topo_);
    }
    if (key == "unique-path") {
      return std::make_unique<routing::ShuffleUniquePathRouter>(topo_);
    }
    return unknown_router("shuffle", key, error);
  }
};

class MeshBox final : public IdentityBox<topology::Mesh> {
 public:
  explicit MeshBox(Dims dims) : IdentityBox(dims.first, dims.second) {}

  [[nodiscard]] std::uint32_t route_scale() const noexcept override {
    return topo_.diameter();
  }
  [[nodiscard]] std::unique_ptr<routing::Router> make_router(
      std::string_view key, std::uint32_t param,
      std::string& error) const override {
    if (key == "three-stage") {
      return std::make_unique<routing::MeshThreeStageRouter>(topo_, param);
    }
    if (key == "valiant") {
      return std::make_unique<routing::ValiantBrebnerMeshRouter>(topo_);
    }
    if (key == "xy") {
      return std::make_unique<routing::GreedyXYMeshRouter>(topo_);
    }
    return unknown_router("mesh", key, error);
  }
};

class TorusBox final : public IdentityBox<topology::Torus> {
 public:
  explicit TorusBox(Dims dims) : IdentityBox(dims.first, dims.second) {}

  [[nodiscard]] std::uint32_t route_scale() const noexcept override {
    return topo_.diameter();
  }
  [[nodiscard]] std::unique_ptr<routing::Router> make_router(
      std::string_view key, std::uint32_t, std::string& error) const override {
    if (key == "greedy") {
      return std::make_unique<routing::TorusGreedyRouter>(topo_);
    }
    if (key == "valiant") {
      return std::make_unique<routing::TorusValiantRouter>(topo_);
    }
    return unknown_router("torus", key, error);
  }
};

class HypercubeBox final : public IdentityBox<topology::Hypercube> {
 public:
  explicit HypercubeBox(Dims dims) : IdentityBox(dims.first) {}

  [[nodiscard]] std::uint32_t route_scale() const noexcept override {
    return topo_.diameter();
  }
  [[nodiscard]] std::unique_ptr<routing::Router> make_router(
      std::string_view key, std::uint32_t, std::string& error) const override {
    if (key == "ecube") return std::make_unique<routing::EcubeRouter>(topo_);
    if (key == "valiant") {
      return std::make_unique<routing::ValiantHypercubeRouter>(topo_);
    }
    return unknown_router("hypercube", key, error);
  }
};

class CccBox final : public IdentityBox<topology::CubeConnectedCycles> {
 public:
  explicit CccBox(Dims dims) : IdentityBox(dims.first) {}

  [[nodiscard]] std::uint32_t route_scale() const noexcept override {
    return topo_.route_bound();
  }
  [[nodiscard]] std::unique_ptr<routing::Router> make_router(
      std::string_view key, std::uint32_t, std::string& error) const override {
    if (key == "sweep") {
      return std::make_unique<routing::CccSweepRouter>(topo_);
    }
    if (key == "two-phase") {
      return std::make_unique<routing::CccTwoPhaseRouter>(topo_);
    }
    return unknown_router("ccc", key, error);
  }
};

class LinearBox final : public IdentityBox<topology::LinearArray> {
 public:
  explicit LinearBox(Dims dims) : IdentityBox(dims.first) {}

  [[nodiscard]] std::uint32_t route_scale() const noexcept override {
    return topo_.diameter();
  }
  [[nodiscard]] std::unique_ptr<routing::Router> make_router(
      std::string_view key, std::uint32_t, std::string& error) const override {
    if (key == "greedy") return std::make_unique<LinearGreedyRouter>();
    return unknown_router("linear", key, error);
  }
};

/// The butterfly binds differently: endpoints are the column-0 rows.
class ButterflyBox final : public TopologyBox {
 public:
  explicit ButterflyBox(Dims dims) : bf_(dims.first, dims.second) {}

  [[nodiscard]] const topology::Graph& graph() const noexcept override {
    return bf_.graph();
  }
  [[nodiscard]] std::string name() const override { return bf_.name(); }
  [[nodiscard]] std::uint32_t endpoints() const noexcept override {
    return bf_.row_count();
  }
  [[nodiscard]] std::uint32_t route_scale() const noexcept override {
    return bf_.route_length();
  }
  [[nodiscard]] emulation::EmulationFabric make_fabric(
      const routing::Router& router) const override {
    return emulation::EmulationFabric(bf_, router);
  }
  [[nodiscard]] std::unique_ptr<routing::Router> make_router(
      std::string_view key, std::uint32_t, std::string& error) const override {
    if (key == "two-phase") {
      return std::make_unique<routing::TwoPhaseButterflyRouter>(bf_);
    }
    if (key == "unique-path") {
      return std::make_unique<routing::UniquePathButterflyRouter>(bf_);
    }
    return unknown_router("butterfly", key, error);
  }

 private:
  topology::WrappedButterfly bf_;
};

// ------------------------------------------------------------ shape rules
//
// One rule per family, named in its catalogue entry: the only place a
// spec's (param0, param1) is judged. Each is pure arithmetic, keeps the
// network within kMaxNodes, and accepts exactly the dims its box's
// constructor takes without a CHECK.

/// One parameter in lo..hi (star, hypercube, ccc, linear).
template <std::uint32_t kLo, std::uint64_t kHi>
[[nodiscard]] std::optional<Dims> range_shape(std::uint32_t p0,
                                              std::uint32_t p1) {
  if (p0 < kLo || p0 > kHi || p1 != 0) return std::nullopt;
  return Dims{p0, 0};
}

/// "n" (n x n) or "rxc", every side at least kMinSide (mesh, torus).
template <std::uint32_t kMinSide>
[[nodiscard]] std::optional<Dims> grid_shape(std::uint32_t p0,
                                             std::uint32_t p1) {
  const Dims dims{p0, p1 != 0 ? p1 : p0};
  if (dims.first < kMinSide || dims.second < kMinSide ||
      std::uint64_t{dims.first} * dims.second > kMaxNodes) {
    return std::nullopt;
  }
  return dims;
}

/// "n" (radix 2, n digits) or "dxn": {d, n} with d^n nodes, times n
/// levels for the butterfly.
template <bool kLeveled>
[[nodiscard]] std::optional<Dims> radix_shape(std::uint32_t p0,
                                              std::uint32_t p1) {
  const Dims dims = p1 != 0 ? Dims{p0, p1} : Dims{2, p0};
  if (dims.first < 2 || dims.second < 1 ||
      !power_fits(dims.first, dims.second,
                  kLeveled ? kMaxNodes / dims.second : kMaxNodes)) {
    return std::nullopt;
  }
  return dims;
}

/// The paper's n-way shuffle: radix n, n digits.
[[nodiscard]] std::optional<Dims> nshuffle_shape(std::uint32_t p0,
                                                 std::uint32_t p1) {
  return p1 == 0 ? radix_shape<false>(p0, p0) : std::nullopt;
}

template <typename Box>
[[nodiscard]] std::unique_ptr<TopologyBox> build_box(Dims dims) {
  return std::make_unique<Box>(dims);
}

}  // namespace

// Catalogue access is thread-safe: both tables are function-local statics
// (initialized once under the C++11 magic-static guarantee) and const ever
// after, so any thread may read them without synchronization. Entries are
// kept name-sorted — `levnet_lint` enforces it via the table markers, and
// the sorted order is what --list and error listings print.
const std::vector<TopologyInfo>& topology_families() {
  // levnet-lint: sorted-table(topology-families)
  static const std::vector<TopologyInfo> kFamilies = {
      {"butterfly",
       "levels l (radix 2) | dxl (radix d, l levels)",
       "wrapped radix-d butterfly, the canonical leveled network (Fig. 1)",
       {{"two-phase", "Algorithm 2.1: random row, then unique path"},
        {"unique-path", "deterministic digit-fixing forward path"}},
       2, 5, radix_shape<true>, build_box<ButterflyBox>},
      {"ccc",
       "k in 3..18 (N = k * 2^k)",
       "cube-connected cycles: constant-degree leveled network",
       {{"sweep", "deterministic cycle-walk dimension sweep"},
        {"two-phase", "random intermediate + two sweep legs"}},
       3, 0, range_shape<3, 18>, build_box<CccBox>},
      {"hypercube",
       "dim in 1..22 (N = 2^dim)",
       "binary hypercube (Section 2.3.4's comparison network)",
       {{"ecube", "deterministic dimension-order (e-cube)"},
        {"valiant", "Valiant two-phase over random intermediates"}},
       6, 0, range_shape<1, 22>, build_box<HypercubeBox>},
      {"linear",
       "n >= 2 processors in a row",
       "linear processor array (Section 3.4.1's 1-D substrate)",
       {{"greedy", "one step toward the destination"}},
       16, 0, range_shape<2, kMaxNodes>, build_box<LinearBox>},
      {"mesh",
       "n (n x n) | rxc (r rows, c columns)",
       "mesh-connected computer (Section 3.1), diameter r + c - 2",
       {{"three-stage", "Section 3.4 slice-randomized 3-stage (`:slice`)",
         true},
        {"valiant", "Valiant-Brebner two-phase"},
        {"xy", "greedy dimension-order XY"}},
       8, 0, grid_shape<2>, build_box<MeshBox>},
      {"nshuffle",
       "n in 2..7 (the paper's n-way shuffle, N = n^n)",
       "n-way shuffle (d = n): diameter n, sub-logarithmic in N",
       {{"two-phase", "Algorithm 2.3: random forward pass, unique-path leg"},
        {"unique-path", "deterministic unique forward path"}},
       3, 0, nshuffle_shape, build_box<ShuffleBox>},
      {"shuffle",
       "digits n (radix 2) | dxn (radix d, n digits)",
       "d-way shuffle network (Section 2.3.5), N = d^n nodes",
       {{"two-phase", "Algorithm 2.3: random forward pass, unique-path leg"},
        {"unique-path", "deterministic unique forward path"}},
       6, 0, radix_shape<false>, build_box<ShuffleBox>},
      {"star",
       "n in 2..9 (N = n! nodes)",
       "n-star graph (Definitions 2.4-2.5), diameter floor(3(n-1)/2)",
       {{"two-phase", "Algorithm 2.2: random intermediate, greedy legs"},
        {"greedy", "deterministic minimal star-transposition path"}},
       5, 0, range_shape<2, 9>, build_box<StarBox>},
      {"torus",
       "n (n x n) | rxc (r rows, c columns), every side >= 3",
       "2-D torus: the mesh with end-around links, diameter r/2 + c/2",
       {{"greedy", "shortest wrapped dimension-order walk"},
        {"valiant", "Valiant two-phase over random intermediates"}},
       8, 0, grid_shape<3>, build_box<TorusBox>},
  };
  // levnet-lint: end-table
  return kFamilies;
}

const TopologyInfo* find_topology(std::string_view key) {
  for (const TopologyInfo& info : topology_families()) {
    if (info.key == key) return &info;
  }
  return nullptr;
}

std::string topology_keys_joined() {
  std::string joined;
  for (const TopologyInfo& info : topology_families()) {
    if (!joined.empty()) joined += ", ";
    joined += info.key;
  }
  return joined;
}

const TopologyInfo* check_shape(const MachineSpec& spec, Dims& dims,
                                std::string& error) {
  const TopologyInfo* info = find_topology(spec.topology);
  if (info == nullptr) {
    error = "unknown topology family '" + spec.topology +
            "' (valid: " + topology_keys_joined() + ")";
    return nullptr;
  }
  const std::optional<Dims> shape = info->shape(spec.param0, spec.param1);
  if (!shape) {
    error = "bad parameters for topology '";
    error += info->key;
    error += "': ";
    error += std::to_string(spec.param0);
    if (spec.param1 != 0) {
      error += "x";
      error += std::to_string(spec.param1);
    }
    error += " (expected ";
    error += info->params_help;
    error += ")";
    return nullptr;
  }
  dims = *shape;
  return info;
}

bool check_router(const TopologyInfo& info, std::string_view key,
                  std::uint32_t param, std::string& error) {
  for (const RouterInfo& router : info.routers) {
    if (router.key != key) continue;
    if (param == 0 || router.takes_param) return true;
    error = "router '" + std::string(key) + "' of topology '" +
            std::string(info.key) + "' takes no parameter (got ':" +
            std::to_string(param) + "')";
    return false;
  }
  (void)unknown_router(info.key, key, error);
  return false;
}

std::unique_ptr<TopologyBox> build_topology(const MachineSpec& spec,
                                            std::string& error) {
  Dims dims;
  const TopologyInfo* info = check_shape(spec, dims, error);
  return info != nullptr ? info->build(dims) : nullptr;
}

// ------------------------------------------------------------------ programs

namespace {

[[nodiscard]] std::vector<pram::Word> random_words(std::uint32_t n,
                                                   std::uint64_t seed,
                                                   std::uint64_t bound) {
  support::Rng rng(seed);
  std::vector<pram::Word> words(n);
  for (auto& w : words) w = static_cast<pram::Word>(rng.below(bound));
  return words;
}

[[nodiscard]] std::uint32_t isqrt(std::uint32_t n) {
  auto root =
      static_cast<std::uint32_t>(std::sqrt(static_cast<double>(n)));
  while (root > 1 && root * root > n) --root;
  return root;
}

[[nodiscard]] std::uint32_t icbrt(std::uint32_t n) {
  auto root =
      static_cast<std::uint32_t>(std::cbrt(static_cast<double>(n)));
  while (root > 1 && root * root * root > n) --root;
  return root;
}

}  // namespace

const std::vector<ProgramInfo>& program_families() {
  // levnet-lint: sorted-table(program-families)
  static const std::vector<ProgramInfo> kPrograms = {
      {"broadcast", "EREW binary-tree broadcast of one value",
       pram::Mode::kErew},
      {"broadcast-crew", "CREW broadcast (all read the root cell)",
       pram::Mode::kCrew},
      {"compaction", "stream compaction of marked values (EREW)",
       pram::Mode::kErew},
      {"histogram", "CRCW-SUM histogram of random keys", pram::Mode::kCrcw,
       true},
      {"hotspot-read", "every processor reads cell 0 each step",
       pram::Mode::kCrcw, true},
      {"hotspot-write", "every processor adds 1 to cell 0 each step (SUM)",
       pram::Mode::kCrcw, true},
      {"list-ranking", "pointer-jumping list ranking (CREW)",
       pram::Mode::kCrew},
      {"logical-or", "2-step CRCW logical OR", pram::Mode::kCrcw, true},
      {"matmul", "CRCW-SUM n^3-processor matrix multiply",
       pram::Mode::kCrcw, true},
      {"matvec", "CREW n^2-processor matrix-vector product",
       pram::Mode::kCrew},
      {"max-crcw", "O(1)-step CRCW maximum (n^2 processors)",
       pram::Mode::kCrcw, true},
      {"max-tournament", "EREW tournament maximum", pram::Mode::kErew},
      {"odd-even-sort", "odd-even transposition sort (EREW)",
       pram::Mode::kErew},
      {"permutation", "one random permutation of read requests per step",
       pram::Mode::kErew},
      {"prefix-sum", "inclusive parallel prefix sum (EREW)",
       pram::Mode::kErew},
      {"random", "independent uniformly random reads per step",
       pram::Mode::kCrew},
  };
  // levnet-lint: end-table
  return kPrograms;
}

bool mode_allows(Mode mode, pram::Mode required) noexcept {
  const int have = mode == Mode::kCrcwCombining
                       ? static_cast<int>(pram::Mode::kCrcw)
                       : static_cast<int>(mode);
  return have >= static_cast<int>(required);
}

const ProgramInfo* find_program(std::string_view key) {
  for (const ProgramInfo& info : program_families()) {
    if (info.key == key) return &info;
  }
  return nullptr;
}

std::string program_keys_joined() {
  std::string joined;
  for (const ProgramInfo& info : program_families()) {
    if (!joined.empty()) joined += ", ";
    joined += info.key;
  }
  return joined;
}

bool check_program(std::string_view key, Mode mode, std::string& error) {
  const ProgramInfo* program = find_program(key);
  if (program == nullptr) {
    error = "unknown program family '" + std::string(key) +
            "' (valid: " + program_keys_joined() + ")";
    return false;
  }
  if (mode_allows(mode, program->required_mode)) return true;
  const char* const needs =
      program->required_mode == pram::Mode::kCrcw   ? "crcw"
      : program->required_mode == pram::Mode::kCrew ? "crew"
                                                    : "erew";
  error = "program '" + std::string(key) + "' needs a " + needs +
          " machine, but the spec's mode is '" + std::string(mode_key(mode)) +
          "' (use /" + needs + " or /crcw-combining)";
  return false;
}

std::unique_ptr<pram::PramProgram> make_program(std::string_view key,
                                                std::uint32_t processors,
                                                std::uint64_t seed,
                                                std::uint32_t pram_steps,
                                                std::string& error) {
  const std::uint32_t n = processors;
  if (n == 0) {
    error = "cannot size a program for 0 processors";
    return nullptr;
  }
  if (key == "permutation") {
    return std::make_unique<pram::PermutationTraffic>(n, pram_steps, seed);
  }
  if (key == "random") {
    return std::make_unique<pram::RandomTraffic>(n, pram_steps, seed);
  }
  if (key == "hotspot-read") {
    return std::make_unique<pram::HotSpotReadTraffic>(
        n, pram_steps, static_cast<pram::Word>(99));
  }
  if (key == "hotspot-write") {
    return std::make_unique<pram::HotSpotWriteTraffic>(n, pram_steps);
  }
  if (key == "broadcast") {
    return std::make_unique<pram::BroadcastErew>(
        n, static_cast<pram::Word>(seed % 1000));
  }
  if (key == "broadcast-crew") {
    return std::make_unique<pram::BroadcastCrew>(
        n, static_cast<pram::Word>(seed % 1000));
  }
  if (key == "prefix-sum") {
    return std::make_unique<pram::PrefixSumErew>(random_words(n, seed, 100));
  }
  if (key == "odd-even-sort") {
    // The sort costs O(n) PRAM steps; cap the instance so an interactive
    // `levnet_run` on a big machine stays interactive.
    return std::make_unique<pram::OddEvenSortErew>(
        random_words(std::min(n, 128U), seed, 1000));
  }
  if (key == "compaction") {
    std::vector<pram::Word> marks = random_words(n, seed + 1, 2);
    return std::make_unique<pram::CompactionErew>(random_words(n, seed, 1000),
                                                  std::move(marks));
  }
  if (key == "histogram") {
    const std::uint32_t buckets = std::max(2U, n / 8);
    return std::make_unique<pram::HistogramCrcwSum>(
        random_words(n, seed, buckets), buckets);
  }
  if (key == "list-ranking") {
    support::Rng rng(seed);
    const auto order = support::random_permutation(n, rng);
    std::vector<std::uint32_t> successor(n);
    for (std::uint32_t i = 0; i + 1 < n; ++i) successor[order[i]] = order[i + 1];
    successor[order[n - 1]] = order[n - 1];
    return std::make_unique<pram::ListRankingCrew>(std::move(successor));
  }
  if (key == "matmul") {
    const std::uint32_t side = std::max(1U, icbrt(n));
    return std::make_unique<pram::MatMulCrcwSum>(
        random_words(side * side, seed, 10),
        random_words(side * side, seed + 1, 10), side);
  }
  if (key == "matvec") {
    const std::uint32_t side = std::max(1U, isqrt(n));
    return std::make_unique<pram::MatVecCrew>(
        random_words(side * side, seed, 10), random_words(side, seed + 1, 10),
        side);
  }
  if (key == "max-tournament") {
    return std::make_unique<pram::TournamentMaxErew>(
        random_words(n, seed, 100000));
  }
  if (key == "max-crcw") {
    const std::uint32_t side = std::max(1U, isqrt(n));
    return std::make_unique<pram::ConstantMaxCrcw>(
        random_words(side, seed, 100000));
  }
  if (key == "logical-or") {
    std::vector<pram::Word> bits(n, 0);
    bits[seed % n] = 1;
    return std::make_unique<pram::LogicalOrCrcw>(std::move(bits));
  }
  error = "unknown program family '" + std::string(key) +
          "' (valid: " + program_keys_joined() + ")";
  return nullptr;
}

}  // namespace levnet::machine
