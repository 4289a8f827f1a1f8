#include "serve/campaign_io.hpp"

#include <optional>
#include <string_view>

#include "util/options.hpp"
#include "util/require.hpp"

namespace csmabw::serve {

ShardSel parse_shard(const std::string& text) {
  const std::string_view view = text;
  const std::size_t slash = view.find('/');
  std::optional<int> index;
  std::optional<int> count;
  if (slash != std::string_view::npos) {
    index = util::parse_number<int>(view.substr(0, slash));
    count = util::parse_number<int>(view.substr(slash + 1));
  }
  CSMABW_REQUIRE(index.has_value() && count.has_value(),
                 "--shard expects I/N (e.g. 0/3), got `" + text + "`");
  CSMABW_REQUIRE(*count >= 1 && *index >= 0 && *index < *count,
                 "--shard needs 0 <= I < N, got `" + text + "`");
  return ShardSel{*index, *count};
}

}  // namespace csmabw::serve
