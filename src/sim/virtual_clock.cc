#include "mm/sim/virtual_clock.h"

#include <algorithm>

namespace mm::sim {

BusyChannel::Fit BusyChannel::FindFit(SimTime earliest,
                                      SimTime duration) const {
  SimTime t = std::max(earliest, floor_);
  bool skew = earliest < floor_ && floor_last_start_ > earliest;
  // At or after the last booking: extend or append at the back.
  if (busy_.empty() || t >= busy_.back().begin) {
    if (!busy_.empty() && t < busy_.back().end) {
      t = busy_.back().end;
      skew = skew || busy_.back().last_start > earliest;
    }
    return {t, busy_.size(), skew};
  }
  std::size_t i = static_cast<std::size_t>(
      std::partition_point(busy_.begin(), busy_.end(),
                           [t](const Busy& b) { return b.end <= t; }) -
      busy_.begin());
  for (; i < busy_.size() && busy_[i].begin < t + duration; ++i) {
    t = std::max(t, busy_[i].end);
    skew = skew || busy_[i].last_start > earliest;
  }
  return {t, i, skew};
}

SimTime BusyChannel::EarliestFit(SimTime earliest, SimTime duration) const {
  MutexLock lock(mu_);
  return FindFit(earliest, duration).start;
}

bool BusyChannel::BookIfEarliest(SimTime start, SimTime earliest,
                                 SimTime duration) {
  MutexLock lock(mu_);
  const Fit fit = FindFit(earliest, duration);
  if (fit.start != start) return false;
  wait_.wait_s += start - earliest;
  if (fit.skew) wait_.skew_s += start - earliest;
  const SimTime end = start + duration;
  const std::size_t i = fit.at;
  const bool join_prev = i > 0 && busy_[i - 1].end == start;
  const bool join_next = i < busy_.size() && busy_[i].begin == end;
  if (join_prev && join_next) {
    busy_[i - 1].end = busy_[i].end;
    busy_[i - 1].last_start = busy_[i].last_start;
    busy_.erase(busy_.begin() + static_cast<std::ptrdiff_t>(i));
  } else if (join_prev) {
    busy_[i - 1].end = end;
    busy_[i - 1].last_start = start;
  } else if (join_next) {
    busy_[i].begin = start;
  } else {
    busy_.insert(busy_.begin() + static_cast<std::ptrdiff_t>(i),
                 Busy{start, end, start});
    if (busy_.size() > kKeep) {
      floor_ = busy_.front().end;
      floor_last_start_ =
          std::max(floor_last_start_, busy_.front().last_start);
      busy_.erase(busy_.begin());
    }
  }
  return true;
}

ChannelWait BusyChannel::wait() const {
  MutexLock lock(mu_);
  return wait_;
}

std::size_t BusyChannel::intervals() const {
  MutexLock lock(mu_);
  return busy_.size();
}

SimTime BusyChannel::floor() const {
  MutexLock lock(mu_);
  return floor_;
}

void BusyChannel::Reset() {
  MutexLock lock(mu_);
  busy_.clear();
  floor_ = 0.0;
  floor_last_start_ = 0.0;
  wait_ = {};
}

}  // namespace mm::sim
