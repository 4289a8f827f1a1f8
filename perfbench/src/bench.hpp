#pragma once

// Types shared by the benchmark driver, its workloads and its traced
// mode.  Everything here is the benchmark's own; the library is reached
// only through its public headers.

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

class Layers;

/// FNV-1a 64 over typed, fixed-width fields: the digest a workload's
/// outputs are compared under.  Kept independent of the library's own
/// hashing so a change there cannot mask a change in results.
class Digest {
 public:
  Digest& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xffU)) * 0x100000001b3ULL;
    }
    return *this;
  }
  Digest& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  /// Exact bit pattern: two doubles digest alike only if bit-identical.
  Digest& f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return u64(bits);
  }
  Digest& str(std::string_view s) {
    u64(s.size());
    for (const char c : s) {
      h_ = (h_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// 16 lowercase hex digits.
[[nodiscard]] std::string hex16(std::uint64_t v);

/// One checked operation of a pass (a campaign cell, a tool-run cell, a
/// query, a cache pass): its output digest, or the error it threw.
struct Op {
  std::string name;
  std::uint64_t digest = 0;
  std::string error;
};

/// What one pass over a workload did and how long it took.  Rates are
/// derived from these counts only after the unit checks passed.
struct PassResult {
  double setup_s = 0.0;  ///< spec parsing, campaign/runner construction, dirs
  double wall_s = 0.0;   ///< every measured phase

  /// Train phases: probe-train repetitions simulated, the number the
  /// workload declares, their simulator events and wall time.
  double train_wall_s = 0.0;
  std::int64_t trains = 0;
  std::int64_t expected_trains = 0;
  std::int64_t sim_events = 0;

  double tool_wall_s = 0.0;  ///< method campaign phase
  std::int64_t tool_runs = 0;
  double query_wall_s = 0.0;  ///< both trace queries
  std::uint64_t query_events = 0;
  double served_wall_s = 0.0;  ///< warm cache pass
  std::int64_t served_reps = 0;

  std::vector<Op> ops;
  /// Violated unit checks (a rate's numerator against declared work).
  std::vector<std::string> unit_errors;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      unit_errors.push_back(what);
    }
  }
};

/// Workload inputs: the campaign seed derived from --seed, the scale and
/// a scratch directory the workload owns for the run.
struct WorkloadParams {
  std::uint64_t campaign_seed = 1;
  bool tiny = false;
  std::string work_dir;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One pass through the public engine entry points at `threads`
  /// workers.  `metrics` (nullable) is handed to every engine call.
  [[nodiscard]] virtual PassResult run(
      int threads, csmabw::obs::Registry* metrics) = 0;

  /// Wall times of `count` set-ups like the one a pass at `threads`
  /// workers makes before its first engine call, each discarded unused.
  [[nodiscard]] virtual std::vector<double> setup_times(int threads,
                                                        int count) = 0;

  /// The same work on the calling thread, one layer call at a time,
  /// recorded into `layers`.  Produces the same op digests as run().
  [[nodiscard]] virtual PassResult run_traced(Layers& layers) = 0;
};

/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    std::string_view name, const WorkloadParams& params);

[[nodiscard]] inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(csmabw::obs::now_ns() - start_ns) * 1e-9;
}

}  // namespace perfbench
