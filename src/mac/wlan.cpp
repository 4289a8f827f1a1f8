#include "mac/wlan.hpp"

namespace csmabw::mac {

WlanNetwork::WlanNetwork(const PhyParams& phy, std::uint64_t seed,
                         topo::TopologyPtr topology)
    : root_rng_(seed), medium_(sim_, phy, std::move(topology)) {}

DcfStation& WlanNetwork::add_station() {
  const int id = static_cast<int>(stations_.size());
  stations_.push_back(std::make_unique<DcfStation>(
      sim_, medium_, id, root_rng_.fork("station-" + std::to_string(id))));
  return *stations_.back();
}

}  // namespace csmabw::mac
