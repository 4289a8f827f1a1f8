#include "serve/campaign_io.hpp"

#include <stdexcept>

#include "util/require.hpp"

namespace csmabw::serve {

ShardSel parse_shard(const std::string& text) {
  const std::size_t slash = text.find('/');
  CSMABW_REQUIRE(slash != std::string::npos && slash > 0 &&
                     slash + 1 < text.size(),
                 "--shard expects I/N (e.g. 0/3), got `" + text + "`");
  ShardSel sel;
  try {
    std::size_t used = 0;
    sel.index = std::stoi(text.substr(0, slash), &used);
    CSMABW_REQUIRE(used == slash, "--shard index is not a number");
    sel.count = std::stoi(text.substr(slash + 1), &used);
    CSMABW_REQUIRE(used == text.size() - slash - 1,
                   "--shard count is not a number");
  } catch (const std::invalid_argument&) {
    CSMABW_REQUIRE(false, "--shard expects I/N (e.g. 0/3), got `" + text +
                              "`");
  } catch (const std::out_of_range&) {
    CSMABW_REQUIRE(false, "--shard value out of range: `" + text + "`");
  }
  CSMABW_REQUIRE(sel.count >= 1 && sel.index >= 0 && sel.index < sel.count,
                 "--shard needs 0 <= I < N, got `" + text + "`");
  return sel;
}

}  // namespace csmabw::serve
