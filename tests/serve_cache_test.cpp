#include "serve/result_cache.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/method.hpp"
#include "exp/sweep.hpp"
#include "serve/cache_key.hpp"
#include "serve/record.hpp"
#include "serve/version.hpp"
#include "util/require.hpp"

namespace csmabw::serve {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("csmabw-cache-" + name);
  fs::remove_all(dir);
  return dir;
}

exp::Campaign small_campaign(std::uint64_t seed = 21) {
  exp::SweepSpec spec;
  spec.campaign_seed = seed;
  spec.scenarios = {"contenders=poisson:rate=2M",
                    "contenders=poisson:rate=4M"};
  spec.train_lengths = {30};
  spec.probe_mbps = {5.0};
  spec.repetitions = 4;
  return exp::Campaign(spec);
}

/// The salt of a hypothetical next engine version.
std::string bumped_salt() { return std::string(kEngineVersionSalt) + "+1"; }

TrainRepRecord sample_train_record() {
  TrainRepRecord record;
  record.dropped = false;
  record.access_delays_s = {1e-3, 2.5e-3, -0.0, 4e-3};
  record.output_gap_s = 7.25e-4;
  record.queue_at_arrival = {0.0, 1.0, 3.0};
  return record;
}

TEST(ServeRecord, TrainRoundTripIsExact) {
  const TrainRepRecord record = sample_train_record();
  std::vector<unsigned char> payload;
  encode_train_record(record, payload);

  TrainRepRecord back;
  ASSERT_TRUE(decode_train_record(payload.data(), payload.size(), &back));
  EXPECT_EQ(back, record);

  TrainRepRecord dropped;
  dropped.dropped = true;
  std::vector<unsigned char> dropped_payload;
  encode_train_record(dropped, dropped_payload);
  TrainRepRecord dropped_back;
  ASSERT_TRUE(decode_train_record(dropped_payload.data(),
                                  dropped_payload.size(), &dropped_back));
  EXPECT_TRUE(dropped_back.dropped);
}

TEST(ServeRecord, TrainDecodeRejectsTruncationAndTrailingGarbage) {
  std::vector<unsigned char> payload;
  encode_train_record(sample_train_record(), payload);
  TrainRepRecord out;
  for (std::size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(decode_train_record(payload.data(), n, &out))
        << "accepted a " << n << "-byte prefix";
  }
  payload.push_back(0);
  EXPECT_FALSE(decode_train_record(payload.data(), payload.size(), &out));
}

TEST(ServeRecord, MethodRoundTripIsExact) {
  core::MeasurementReport report;
  report.method = "bisection";
  report.estimate_bps = 4.37e6;
  report.trains_sent = 12;
  report.probes_sent = 480;
  report.trains_lost = 1;
  report.curve.points = {{1e6, 0.99e6}, {8e6, 4.4e6}};
  report.metrics = {{"low_bps", 4.2e6}, {"high_bps", 4.5e6}};

  std::vector<unsigned char> payload;
  encode_method_record(report, payload);
  core::MeasurementReport back;
  ASSERT_TRUE(decode_method_record(payload.data(), payload.size(), &back));
  EXPECT_EQ(back.method, report.method);
  EXPECT_EQ(back.estimate_bps, report.estimate_bps);
  EXPECT_EQ(back.trains_sent, report.trains_sent);
  EXPECT_EQ(back.probes_sent, report.probes_sent);
  EXPECT_EQ(back.trains_lost, report.trains_lost);
  ASSERT_EQ(back.curve.points.size(), 2u);
  EXPECT_EQ(back.curve.points[1].input_bps, 8e6);
  EXPECT_EQ(back.curve.points[1].output_bps, 4.4e6);
  ASSERT_EQ(back.metrics.size(), 2u);
  EXPECT_EQ(back.metrics[0].first, "low_bps");
  EXPECT_EQ(back.metrics[1].second, 4.5e6);

  TrainRepRecord wrong_kind;
  EXPECT_FALSE(decode_train_record(payload.data(), payload.size() / 2,
                                   &wrong_kind));
}

TEST(ResultCache, StoreThenLookupHitsAndCounts) {
  ResultCache cache(fresh_dir("roundtrip").string());
  const exp::Campaign campaign = small_campaign();
  const exp::Cell& cell = campaign.cells()[0];
  const CacheKey key = train_rep_key(cell.scenario, cell.train, false, 0);

  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.misses(), 1);

  std::vector<unsigned char> payload;
  encode_train_record(sample_train_record(), payload);
  cache.store(key, payload);
  EXPECT_EQ(cache.stores(), 1);

  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, payload);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_TRUE(fs::exists(cache.entry_path(key)));
}

TEST(ResultCache, KeyChangesWithEveryAddressedInput) {
  const exp::Campaign a = small_campaign(21);
  const exp::Campaign b = small_campaign(22);  // different campaign seed
  const exp::Cell& cell = a.cells()[0];
  const CacheKey base = train_rep_key(cell.scenario, cell.train, false, 0);

  // Same inputs -> same key (the whole point of content addressing).
  EXPECT_EQ(base.digest,
            train_rep_key(cell.scenario, cell.train, false, 0).digest);
  EXPECT_EQ(base.desc,
            train_rep_key(cell.scenario, cell.train, false, 0).desc);

  // Changed campaign seed (flows into the cell's scenario seed).
  EXPECT_FALSE(base.digest ==
               train_rep_key(b.cells()[0].scenario, b.cells()[0].train,
                             false, 0)
                   .digest);
  // Changed scenario (the other cell's cross rate).
  EXPECT_FALSE(base.digest ==
               train_rep_key(a.cells()[1].scenario, a.cells()[1].train,
                             false, 0)
                   .digest);
  // Changed repetition index.
  EXPECT_FALSE(base.digest ==
               train_rep_key(cell.scenario, cell.train, false, 1).digest);
  // Changed record content knob.
  EXPECT_FALSE(base.digest ==
               train_rep_key(cell.scenario, cell.train, true, 0).digest);
  // Bumped engine version salt.
  EXPECT_FALSE(base.digest == train_rep_key(cell.scenario, cell.train,
                                            false, 0, bumped_salt())
                                  .digest);
  // The default salt is the engine version salt (not the empty string).
  EXPECT_EQ(base.digest, train_rep_key(cell.scenario, cell.train, false, 0,
                                       kEngineVersionSalt)
                             .digest);
}

TEST(ResultCache, RespelledClassicCellKeepsItsKey) {
  // Campaigns once also spelled cells through per-knob axes (contender
  // count, per-contender Poisson rate, PHY preset, FIFO on/off and
  // rate).  The text below is the key description such a cell had: two
  // 3 Mb/s contenders on dot11g with 1.5 Mb/s FIFO cross-traffic.  Its
  // scenario-grammar spelling must keep that key, so caches filled
  // before the axes went keep serving it.
  exp::SweepSpec spec;
  spec.scenarios = {
      "phy=dot11g;contenders=2x poisson:rate=3M;fifo=poisson:rate=1.5M"};
  const exp::Campaign campaign(spec);
  const exp::Cell& cell = campaign.cells()[0];
  EXPECT_EQ(
      train_rep_key(cell.scenario, cell.train, false, 0).desc,
      "salt=csmabw-engine-v2|kind=train|scenario=scenario{slot_ns=9000|"
      "sifs_ns=10000|phy_header_ns=20000|data_rate_bps=5.4e+07|"
      "basic_rate_bps=2.4e+07|cw_min=15|cw_max=1023|retry_limit=7|"
      "mac_header_bytes=28|ack_bytes=14|rts_bytes=20|cts_bytes=14|"
      "rts_threshold_bytes=-1|immediate_access=1|post_backoff=1|"
      "use_eifs=1|topology=clique|contenders=2|"
      "c={poisson:rate=3M/1500}|c={poisson:rate=3M/1500}|"
      "fifo={poisson:rate=1.5M/1500}|seed=1|warmup_ns=500000000|"
      "probe_phase_mean_ns=20000000|}|train_n=600|train_size=1500|"
      "train_gap_ns=2400000|sample_queue=0|rep=0|");
}

TEST(ResultCache, SaltBumpMissesWarmCache) {
  ResultCache cache(fresh_dir("salt").string());
  const exp::Campaign campaign = small_campaign();
  const exp::Cell& cell = campaign.cells()[0];
  std::vector<unsigned char> payload;
  encode_train_record(sample_train_record(), payload);

  cache.store(train_rep_key(cell.scenario, cell.train, false, 0), payload);
  EXPECT_TRUE(
      cache.lookup(train_rep_key(cell.scenario, cell.train, false, 0))
          .has_value());
  EXPECT_FALSE(cache
                   .lookup(train_rep_key(cell.scenario, cell.train, false,
                                         0, bumped_salt()))
                   .has_value());
}

TEST(ResultCache, MethodKeySeparatesSpecAndSeed) {
  const exp::Campaign campaign = small_campaign();
  const exp::Cell& cell = campaign.cells()[0];
  const CacheKey base = method_rep_key(cell.scenario, "bisection", 99, 0);
  EXPECT_EQ(base.digest,
            method_rep_key(cell.scenario, "bisection", 99, 0).digest);
  EXPECT_FALSE(
      base.digest ==
      method_rep_key(cell.scenario, "bisection:something=1", 99, 0).digest);
  EXPECT_FALSE(base.digest ==
               method_rep_key(cell.scenario, "bisection", 100, 0).digest);
}

TEST(ResultCache, CollisionDegradesToMissNeverWrongResult) {
  ResultCache cache(fresh_dir("collision").string());
  const exp::Campaign campaign = small_campaign();
  const exp::Cell& cell = campaign.cells()[0];
  const CacheKey key = train_rep_key(cell.scenario, cell.train, false, 0);
  std::vector<unsigned char> payload;
  encode_train_record(sample_train_record(), payload);
  cache.store(key, payload);

  // A hypothetical 128-bit collision: same digest, different canonical
  // description.  The stored description comparison must turn the
  // lookup into a miss.
  CacheKey collider = key;
  collider.desc += ";something-else";
  EXPECT_FALSE(cache.lookup(collider).has_value());
}

TEST(ResultCache, TruncatedEntryIsAMissAndRecoverable) {
  ResultCache cache(fresh_dir("torn").string());
  const exp::Campaign campaign = small_campaign();
  const exp::Cell& cell = campaign.cells()[0];
  const CacheKey key = train_rep_key(cell.scenario, cell.train, false, 0);
  std::vector<unsigned char> payload;
  encode_train_record(sample_train_record(), payload);
  cache.store(key, payload);

  const fs::path entry = cache.entry_path(key);
  const auto full = fs::file_size(entry);
  fs::resize_file(entry, full - 5);
  EXPECT_FALSE(cache.lookup(key).has_value());

  // The next store overwrites the corrupt entry and lookups recover.
  cache.store(key, payload);
  EXPECT_TRUE(cache.lookup(key).has_value());
}

TEST(ResultCache, VersionOrMagicMismatchIsAHardError) {
  ResultCache cache(fresh_dir("version").string());
  const exp::Campaign campaign = small_campaign();
  const exp::Cell& cell = campaign.cells()[0];
  const CacheKey key = train_rep_key(cell.scenario, cell.train, false, 0);
  std::vector<unsigned char> payload;
  encode_train_record(sample_train_record(), payload);
  cache.store(key, payload);

  const fs::path entry = cache.entry_path(key);
  {
    // Bump the u16 format version at offset 4 (after the 4-byte magic).
    std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    const unsigned char v99[2] = {99, 0};
    f.write(reinterpret_cast<const char*>(v99), 2);
  }
  EXPECT_THROW((void)cache.lookup(key), util::PreconditionError);

  {
    std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("NOPE", 4);
  }
  EXPECT_THROW((void)cache.lookup(key), util::PreconditionError);
}

}  // namespace
}  // namespace csmabw::serve
