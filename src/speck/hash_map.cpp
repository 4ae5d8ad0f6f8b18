#include "speck/hash_map.h"

namespace speck {

// One-slot-at-a-time reference probe: the exact linear scan the paper's
// scratchpad map performs. Every visited slot is one probe; the first empty
// slot or key match stops the scan; a full cycle without either overflows.
DeviceHashMap::Probe DeviceHashMap::probe_scalar(key64_t key, std::size_t start,
                                                 std::uint8_t tag) {
  std::size_t slot = start;
  for (std::size_t step = 0; step < capacity_; ++step) {
    ++probes_;
    materialize_group(slot / simd::kGroupWidth);
    const std::uint8_t c = ctrl_[slot];
    if (c == kCtrlEmpty) return Probe{slot, false};
    if (c == tag && keys_[slot] == key) return Probe{slot, true};
    slot = slot + 1 == capacity_ ? 0 : slot + 1;
  }
  return Probe{kNoSlot, false};
}

// Group-probing variant: scans one 16-byte control group per iteration and
// derives the same stop slot — and the same probe count (slots a scalar scan
// would visit) — from the match/empty masks. The first iteration masks off
// lanes before the start slot; sentinel bytes past the logical capacity
// match neither the tag nor kEmpty, so partial tail groups need no special
// casing. `visited` counts in-range slots scanned by previous iterations;
// when it reaches the capacity without a stop, the map has cycled and the
// probe overflows with exactly `capacity_` probes, like the scalar scan.
DeviceHashMap::Probe DeviceHashMap::probe_groups(key64_t key, std::size_t start,
                                                 std::uint8_t tag) {
  std::size_t visited = 0;
  std::size_t slot = start;
  while (visited < capacity_) {
    const std::size_t g = slot / simd::kGroupWidth;
    const std::size_t base = g * simd::kGroupWidth;
    const auto off = static_cast<unsigned>(slot - base);
    materialize_group(g);
    const simd::GroupMasks m =
        simd::group_masks16(ctrl_.data() + base, tag, kCtrlEmpty, backend_);
    // Walk candidate stop lanes in ascending order: the first empty lane
    // ends the probe exactly like the scalar scan would, so tag matches
    // past it are never examined.
    std::uint32_t stops = (m.tag_mask | m.empty_mask) & (0xFFFFu << off);
    while (stops != 0) {
      const unsigned p = simd::lowest_bit(stops);
      if ((m.empty_mask >> p) & 1u) {
        probes_ += visited + (p - off) + 1;
        return Probe{base + p, false};
      }
      if (keys_[base + p] == key) {
        probes_ += visited + (p - off) + 1;
        return Probe{base + p, true};
      }
      stops &= stops - 1;
    }
    const std::size_t in_range =
        std::min<std::size_t>(simd::kGroupWidth, capacity_ - base);
    visited += in_range - off;
    slot = base + simd::kGroupWidth >= capacity_ ? 0 : base + simd::kGroupWidth;
  }
  probes_ += capacity_;
  return Probe{kNoSlot, false};
}

bool DeviceHashMap::lookup_touched(key64_t key, value_t* value) {
  const std::uint64_t h = key * kHashPrime;
  const Probe p = probe(key, hash_slot(h), hash_tag(h));
  if (p.index == kNoSlot || !p.found || touched_[p.index] == 0) return false;
  *value = vals_[p.index];
  return true;
}

std::vector<DeviceHashMap::Entry> DeviceHashMap::extract() const {
  std::vector<Entry> out;
  out.reserve(size_);
  extract_into(out);
  return out;
}

void DeviceHashMap::extract_into(std::vector<Entry>& out) const {
  for_each([&](key64_t key, value_t value) { out.push_back(Entry{key, value}); });
}

void DeviceHashMap::reset() {
  ++epoch_;
  size_ = 0;
  overflowed_ = false;
}

void DeviceHashMap::reconfigure(std::size_t capacity) {
  SPECK_REQUIRE(capacity > 0, "hash map capacity must be positive");
  groups_ = (capacity + simd::kGroupWidth - 1) / simd::kGroupWidth;
  if (groups_ * simd::kGroupWidth > ctrl_.size()) {
    ctrl_.resize(groups_ * simd::kGroupWidth);
    group_epoch_.resize(groups_, 0);
    keys_.resize(groups_ * simd::kGroupWidth);
    vals_.resize(groups_ * simd::kGroupWidth);
    touched_.resize(groups_ * simd::kGroupWidth);
  }
  capacity_ = capacity;
  ++epoch_;
  size_ = 0;
  probes_ = 0;
  overflowed_ = false;
}

}  // namespace speck
