#include "floorplan/model.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/assert.hpp"

namespace wp::fplan {

int Instance::block_index(const std::string& block_name) const {
  for (std::size_t i = 0; i < blocks.size(); ++i)
    if (blocks[i].name == block_name) return static_cast<int>(i);
  return -1;
}

double net_length(const Instance& inst, const Placement& placement,
                  const Net& net) {
  WP_REQUIRE(net.src_block >= 0 &&
                 net.src_block < static_cast<int>(inst.blocks.size()),
             "net source block out of range");
  WP_REQUIRE(net.dst_block >= 0 &&
                 net.dst_block < static_cast<int>(inst.blocks.size()),
             "net destination block out of range");
  const auto s = static_cast<std::size_t>(net.src_block);
  const auto d = static_cast<std::size_t>(net.dst_block);
  const double sx = placement.x[s] + inst.blocks[s].width / 2;
  const double sy = placement.y[s] + inst.blocks[s].height / 2;
  const double dx = placement.x[d] + inst.blocks[d].width / 2;
  const double dy = placement.y[d] + inst.blocks[d].height / 2;
  return std::abs(sx - dx) + std::abs(sy - dy);
}

double total_wirelength(const Instance& inst, const Placement& placement) {
  double total = 0;
  for (const auto& net : inst.nets) total += net_length(inst, placement, net);
  return total;
}

int relay_stations_for_length(double mm, const WireDelayModel& model) {
  WP_REQUIRE(mm >= 0, "negative wire length");
  WP_REQUIRE(model.ps_per_mm > 0 && model.clock_ps > 0,
             "delay model parameters must be positive");
  const double delay = mm * model.ps_per_mm;
  const int stages = std::max(1, static_cast<int>(std::ceil(
                                     delay / model.clock_ps - 1e-9)));
  return stages - 1;
}

ConnectionTable::ConnectionTable(const Instance& inst)
    : net_connection(inst.nets.size()) {
  std::vector<std::size_t> order(inst.nets.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return inst.nets[a].connection < inst.nets[b].connection;
  });
  for (const std::size_t net : order) {
    const std::string& label = inst.nets[net].connection;
    if (labels.empty() || labels.back() != label) labels.push_back(label);
    net_connection[net] = static_cast<int>(labels.size()) - 1;
  }
}

void fill_rs_demand(const Instance& inst, const ConnectionTable& table,
                    const Placement& placement, const WireDelayModel& model,
                    std::vector<int>& demand) {
  WP_REQUIRE(table.net_connection.size() == inst.nets.size(),
             "connection table built for another instance");
  demand.assign(table.labels.size(), 0);
  for (std::size_t i = 0; i < inst.nets.size(); ++i) {
    const int rs = relay_stations_for_length(
        net_length(inst, placement, inst.nets[i]), model);
    int& slot = demand[static_cast<std::size_t>(table.net_connection[i])];
    slot = std::max(slot, rs);
  }
}

std::vector<std::pair<std::string, int>> labelled_demand(
    const ConnectionTable& table, const std::vector<int>& demand) {
  WP_REQUIRE(demand.size() == table.labels.size(),
             "demand not indexed by this connection table");
  std::vector<std::pair<std::string, int>> pairs;
  pairs.reserve(demand.size());
  for (std::size_t id = 0; id < demand.size(); ++id)
    pairs.emplace_back(table.labels[id], demand[id]);
  return pairs;
}

std::vector<std::pair<std::string, int>> rs_demand(
    const Instance& inst, const Placement& placement,
    const WireDelayModel& model) {
  const ConnectionTable table(inst);
  std::vector<int> demand;
  fill_rs_demand(inst, table, placement, model, demand);
  return labelled_demand(table, demand);
}

}  // namespace wp::fplan
