#include "mac/phy.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "util/require.hpp"

namespace csmabw::mac {
namespace {

TEST(PhyParams, DifsFromSifsAndSlots) {
  const PhyParams p = PhyParams::dot11b_short();
  // DIFS = SIFS + 2 * slot = 10 + 40 us.
  EXPECT_EQ(p.difs(), TimeNs::us(50));
}

TEST(PhyParams, DataTxTimeHandComputed) {
  const PhyParams p = PhyParams::dot11b_short();
  // 1500 B payload + 28 B MAC = 1528 B = 12224 bits at 11 Mb/s
  // = 1111.2727..us, + 96 us PLCP => 1207273 ns (rounded).
  EXPECT_EQ(p.data_tx_time(1500).count(), 96'000 + 1'111'273);
}

TEST(PhyParams, DataTxTimeLongPreamble) {
  const PhyParams p = PhyParams::dot11b_long();
  EXPECT_EQ(p.data_tx_time(1500).count(), 192'000 + 1'111'273);
}

TEST(PhyParams, AckTxTimeAtBasicRate) {
  const PhyParams p = PhyParams::dot11b_short();
  // 14 B = 112 bits at 2 Mb/s = 56 us + 96 us PLCP.
  EXPECT_EQ(p.ack_tx_time(), TimeNs::us(152));
  const PhyParams l = PhyParams::dot11b_long();
  // 112 bits at 1 Mb/s = 112 us + 192 us PLCP.
  EXPECT_EQ(l.ack_tx_time(), TimeNs::us(304));
}

TEST(PhyParams, EifsComposition) {
  const PhyParams p = PhyParams::dot11b_short();
  EXPECT_EQ(p.eifs(), p.sifs + p.ack_tx_time() + p.difs());
  EXPECT_GT(p.eifs(), p.difs());
}

TEST(PhyParams, AckTimeoutCoversAck) {
  const PhyParams p = PhyParams::dot11b_short();
  EXPECT_EQ(p.ack_timeout(), p.sifs + p.ack_tx_time() + p.slot_time);
}

TEST(PhyParams, MeanServiceTimeComposition) {
  const PhyParams p = PhyParams::dot11b_short();
  // E[backoff] = CWmin/2 slots = 15.5 slots = 310 us (exact integer ns).
  const TimeNs expected = p.difs() + p.slot_time * p.cw_min / 2 +
                          p.data_tx_time(1500) + p.sifs + p.ack_tx_time();
  EXPECT_EQ(p.mean_packet_service_time(1500), expected);
}

TEST(PhyParams, SaturationRateNearPaperCapacity) {
  // The paper's testbed measured C ~= 6.5 Mb/s at 11 Mb/s PHY; the
  // short-preamble preset computes ~6.9, the long-preamble one ~6.1.
  EXPECT_NEAR(PhyParams::dot11b_short().saturation_rate(1500).to_mbps(), 6.9,
              0.1);
  EXPECT_NEAR(PhyParams::dot11b_long().saturation_rate(1500).to_mbps(), 6.1,
              0.1);
}

TEST(PhyParams, ErlangConversionsInvert) {
  const PhyParams p = PhyParams::dot11b_short();
  const double pps = p.packet_rate_for_load(0.5, 1500);
  EXPECT_NEAR(pps * p.mean_packet_service_time(1500).to_seconds(), 0.5,
              1e-12);
  EXPECT_NEAR(p.rate_for_load(1.0, 1500).to_bps() / (1500 * 8),
              p.packet_rate_for_load(1.0, 1500), 1e-9);
}

TEST(PhyParams, SmallerPacketsLowerSaturationRate) {
  const PhyParams p = PhyParams::dot11b_short();
  // Overheads amortize worse over small payloads.
  EXPECT_LT(p.saturation_rate(100).to_bps(),
            p.saturation_rate(1500).to_bps());
}

TEST(PhyParams, ValidateCatchesInconsistencies) {
  PhyParams p = PhyParams::dot11b_short();
  p.cw_max = p.cw_min - 1;
  EXPECT_THROW(p.validate(), util::PreconditionError);
  p = PhyParams::dot11b_short();
  p.data_rate_bps = 0.0;
  EXPECT_THROW(p.validate(), util::PreconditionError);
  p = PhyParams::dot11b_short();
  p.slot_time = TimeNs::zero();
  EXPECT_THROW(p.validate(), util::PreconditionError);
}

TEST(PhyParams, DataTxRejectsNonPositivePayload) {
  EXPECT_THROW((void)PhyParams::dot11b_short().data_tx_time(0),
               util::PreconditionError);
}

/// A preset with its name.  The parameter prints as its name, so the
/// discovered test names read `Presets/PhyPreset.SelfConsistent/dot11g`
/// instead of the bytes (padding included) of PhyParams.
struct NamedPreset {
  const char* name;
  PhyParams params;
};

void PrintTo(const NamedPreset& p, std::ostream* os) { *os << p.name; }

/// All presets must be self-consistent and satisfy basic orderings.
class PhyPreset : public ::testing::TestWithParam<NamedPreset> {};

TEST_P(PhyPreset, SelfConsistent) {
  const PhyParams& p = GetParam().params;
  EXPECT_NO_THROW(p.validate());
  EXPECT_GT(p.difs(), p.sifs);
  EXPECT_GT(p.eifs(), p.difs());
  EXPECT_GT(p.data_tx_time(1500), p.data_tx_time(40));
  EXPECT_GT(p.saturation_rate(1500).to_bps(), 0.0);
  EXPECT_LT(p.saturation_rate(1500).to_bps(), p.data_rate_bps);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, PhyPreset,
    ::testing::Values(NamedPreset{"dot11b_short", PhyParams::dot11b_short()},
                      NamedPreset{"dot11b_long", PhyParams::dot11b_long()},
                      NamedPreset{"dot11g", PhyParams::dot11g()}));

}  // namespace
}  // namespace csmabw::mac
