#include "advisor/feed.h"

#include <cmath>
#include <string>

#include "common/check.h"

namespace dot {

namespace {

/// OK iff `event` is something the virtual clock and the drift machinery
/// can digest. `clock_hours` is the virtual time the previous event ended
/// at; the comparison is written so that a NaN start also fails it.
/// `num_objects` is the object count the I/O map must cover.
Status ValidateEvent(const TraceEvent& event, double clock_hours,
                     size_t num_objects) {
  const std::string where = "trace window " + std::to_string(event.window);
  if (!(event.start_hours >= clock_hours - 1e-9) ||
      !std::isfinite(event.start_hours)) {
    return Status::InvalidArgument(
        where + ": events must arrive in virtual-time order");
  }
  if (!(event.duration_hours > 0.0) || !std::isfinite(event.duration_hours)) {
    return Status::InvalidArgument(where + ": non-positive duration");
  }
  if (event.io_by_object.empty()) {
    return Status::InvalidArgument(where + ": empty window (no observed "
                                           "objects)");
  }
  if (event.io_by_object.size() != num_objects) {
    return Status::InvalidArgument(
        where + ": observes " + std::to_string(event.io_by_object.size()) +
        " objects, the problem has " + std::to_string(num_objects));
  }
  for (const IoVector& io : event.io_by_object) {
    for (IoType t : kAllIoTypes) {
      const double count = io[t];
      if (!(count >= 0.0) || !std::isfinite(count)) {
        return Status::InvalidArgument(
            where + ": negative or non-finite I/O count");
      }
    }
  }
  return Status::OK();
}

}  // namespace

RecordedTraceFeed::RecordedTraceFeed(const WorkloadTrace* trace)
    : trace_(trace) {
  DOT_CHECK(trace_ != nullptr);
}

bool RecordedTraceFeed::Next(TraceEvent* event) {
  DOT_CHECK(event != nullptr);
  if (next_ >= trace_->events.size()) return false;
  *event = trace_->events[next_++];
  return true;
}

FeedPlayer::FeedPlayer(TraceFeed* feed, size_t num_objects)
    : feed_(feed), num_objects_(num_objects) {
  DOT_CHECK(feed_ != nullptr);
}

Status FeedPlayer::Play(const Observer& observe, int* delivered) {
  DOT_CHECK(observe != nullptr);
  int count = 0;
  if (delivered != nullptr) *delivered = 0;
  TraceEvent event;
  while (feed_->Next(&event)) {
    const Status valid = ValidateEvent(event, clock_hours_, num_objects_);
    if (!valid.ok()) return valid;
    observe(event);
    clock_hours_ = event.start_hours + event.duration_hours;
    ++count;
    if (delivered != nullptr) *delivered = count;
  }
  return Status::OK();
}

}  // namespace dot
