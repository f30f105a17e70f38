#ifndef DOTPROV_ADVISOR_FEED_H_
#define DOTPROV_ADVISOR_FEED_H_

#include <cstddef>
#include <functional>

#include "common/status.h"
#include "workload/trace.h"

namespace dot {

/// Source of trace events in virtual-time order. The advisor consumes this
/// interface only, so a live monitoring pipe and a recorded file replay
/// are interchangeable; this reproduction ships the recorded kind.
class TraceFeed {
 public:
  virtual ~TraceFeed() = default;

  /// Fills `*event` with the next observation and returns true, or returns
  /// false when the feed is exhausted.
  virtual bool Next(TraceEvent* event) = 0;
};

/// Replays a recorded WorkloadTrace event by event.
class RecordedTraceFeed : public TraceFeed {
 public:
  /// `trace` must outlive the feed.
  explicit RecordedTraceFeed(const WorkloadTrace* trace);

  bool Next(TraceEvent* event) override;

  /// Rewinds to the first event (replay the same trace again).
  void Reset() { next_ = 0; }

 private:
  const WorkloadTrace* trace_;
  size_t next_ = 0;
};

/// Drives a feed against a virtual clock: events must arrive in
/// non-decreasing start order, and the clock advances to each event's end
/// before the next is pulled. This is the advisor's only notion of time —
/// no wall clock, so a million-hour trace replays in milliseconds and two
/// runs of the same feed are bit-identical.
class FeedPlayer {
 public:
  using Observer = std::function<void(const TraceEvent&)>;

  /// `feed` must outlive the player. Every event's I/O map must cover
  /// exactly `num_objects` objects (the advisor passes its problem's).
  FeedPlayer(TraceFeed* feed, size_t num_objects);

  /// Drains the feed, invoking `observe` once per event in order.
  /// Malformed events — non-monotone or non-finite start times, a
  /// non-positive duration, an empty I/O map or one of the wrong object
  /// count, negative or non-finite counts — stop the drain with
  /// InvalidArgument naming the offending window instead of crashing: a
  /// live feed is untrusted input, and the always-on loop must degrade
  /// gracefully. Events *before* the bad one stay delivered (the observer
  /// has already seen them), and `delivered` (if non-null) receives the
  /// count either way.
  Status Play(const Observer& observe, int* delivered = nullptr);

  /// Virtual time after the last delivered event, hours.
  double clock_hours() const { return clock_hours_; }

 private:
  TraceFeed* feed_;
  size_t num_objects_;
  double clock_hours_ = 0.0;
};

}  // namespace dot

#endif  // DOTPROV_ADVISOR_FEED_H_
