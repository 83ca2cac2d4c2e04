#ifndef POSTBLOCK_COMMON_STATS_H_
#define POSTBLOCK_COMMON_STATS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

namespace postblock {

/// A named bag of monotonically increasing counters. Each subsystem
/// exposes one; benches and tests read them to assert behaviour (e.g.
/// write amplification = pages_programmed / host_pages_written).
/// Names are looked up without building a std::string (the map's
/// comparator is transparent), so bumping an existing counter never
/// touches the heap, however long its name.
class Counters {
 public:
  using Map = std::map<std::string, std::uint64_t, std::less<>>;

  void Add(std::string_view name, std::uint64_t delta) {
    auto it = counters_.lower_bound(name);
    if (it != counters_.end() && it->first == name) {
      it->second += delta;
    } else {
      counters_.emplace_hint(it, std::string(name), delta);
    }
  }
  void Increment(std::string_view name) { Add(name, 1); }

  /// Returns 0 for unknown counters — absence means "never happened".
  std::uint64_t Get(std::string_view name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  void Reset() { counters_.clear(); }

  const Map& All() const { return counters_; }

  /// Multi-line "name = value" dump, sorted by name.
  std::string ToString() const;

 private:
  Map counters_;
};

}  // namespace postblock

#endif  // POSTBLOCK_COMMON_STATS_H_
