// Block-level floorplanning model: hard rectangular blocks, point-to-point
// nets between block centers, half-perimeter wirelength, and the wire-delay
// model that converts routed length into a relay-station count — the
// front-end that decides how many relay stations each Table-1 connection
// needs in a real wire-pipelined SoC flow.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace wp::fplan {

struct Block {
  std::string name;
  double width = 0;
  double height = 0;
};

/// A point-to-point net; `connection` links it to a system-graph edge label
/// (e.g. "CU-IC") so derived relay-station counts flow into the throughput
/// analysis.
struct Net {
  std::string connection;
  int src_block = -1;
  int dst_block = -1;
};

struct Instance {
  std::string name;
  std::vector<Block> blocks;
  std::vector<Net> nets;

  int block_index(const std::string& name) const;  ///< -1 if absent
};

/// A placed floorplan: lower-left coordinates per block, same order as the
/// instance's block list.
struct Placement {
  std::vector<double> x;
  std::vector<double> y;
  double width = 0;   ///< bounding box
  double height = 0;

  double area() const { return width * height; }
};

/// Manhattan center-to-center length of a net under a placement.
double net_length(const Instance& inst, const Placement& placement,
                  const Net& net);

/// Sum of net lengths (HPWL for 2-pin nets).
double total_wirelength(const Instance& inst, const Placement& placement);

/// Wire-delay model: a repeatered global wire has delay ~ ps_per_mm · L.
/// A wire whose delay exceeds one clock period must be pipelined into
/// ceil(delay / period) stages, i.e. stages-1 relay stations.
struct WireDelayModel {
  double ps_per_mm = 150.0;     ///< delay slope of a repeatered wire
  double clock_ps = 500.0;      ///< clock period (2 GHz at 130 nm-ish)
  double reachable_mm() const { return clock_ps / ps_per_mm; }
};

/// Relay stations needed by a wire of length `mm`.
int relay_stations_for_length(double mm, const WireDelayModel& model);

/// An instance's connection labels interned as dense ids, in sorted label
/// order (the order rs_demand() reports them in). Built once per anneal so
/// the per-move demand path touches no strings.
struct ConnectionTable {
  explicit ConnectionTable(const Instance& inst);

  std::vector<std::string> labels;  ///< id -> label, ascending
  std::vector<int> net_connection;  ///< net index -> connection id
};

/// Per-connection relay-station demand of a placement, indexed by
/// connection id: the max over the connection's nets of
/// relay_stations_for_length(). `demand` is resized to the table's size
/// and reused across calls.
void fill_rs_demand(const Instance& inst, const ConnectionTable& table,
                    const Placement& placement, const WireDelayModel& model,
                    std::vector<int>& demand);

/// An id-indexed demand as (label, relay stations) pairs in ascending
/// label order — the string form taken by ThroughputFn and the engine's
/// label query.
std::vector<std::pair<std::string, int>> labelled_demand(
    const ConnectionTable& table, const std::vector<int>& demand);

/// fill_rs_demand() as labelled pairs. Builds a ConnectionTable per call;
/// hot loops keep their own and call fill_rs_demand().
std::vector<std::pair<std::string, int>> rs_demand(
    const Instance& inst, const Placement& placement,
    const WireDelayModel& model);

}  // namespace wp::fplan
