#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.h"

namespace splicer::sim {
namespace {

/// An event carrying `tag` in its primary payload field.
EngineEvent tagged(std::uint64_t tag) {
  return EngineEvent{.kind = EngineEvent::Kind::kRouterTimer, .a = tag};
}

/// Registers itself as the scheduler's sink and records every event it
/// receives with its firing time, in dispatch order. `react` (optional)
/// runs after each record, so a test can schedule or cancel events from
/// inside a handler.
class RecordingSink final : public EventSink {
 public:
  explicit RecordingSink(Scheduler& scheduler) : scheduler_(scheduler) {
    scheduler.set_sink(this);
  }

  void handle_event(const EngineEvent& event) override {
    events.push_back(event);
    tags.push_back(event.a);
    times.push_back(scheduler_.now());
    if (react) react(event);
  }

  std::vector<EngineEvent> events;
  std::vector<std::uint64_t> tags;
  std::vector<double> times;
  std::function<void(const EngineEvent&)> react;

 private:
  Scheduler& scheduler_;
};

using Tags = std::vector<std::uint64_t>;

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler s;
  RecordingSink sink(s);
  s.at(3.0, tagged(3));
  s.at(1.0, tagged(1));
  s.at(2.0, tagged(2));
  s.run();
  EXPECT_EQ(sink.tags, (Tags{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(Scheduler, TiesBreakBySchedulingOrder) {
  Scheduler s;
  RecordingSink sink(s);
  s.at(1.0, tagged(1));
  s.at(1.0, tagged(2));
  s.at(1.0, tagged(3));
  s.run();
  EXPECT_EQ(sink.tags, (Tags{1, 2, 3}));
}

TEST(Scheduler, AfterIsRelative) {
  Scheduler s;
  RecordingSink sink(s);
  sink.react = [&](const EngineEvent& event) {
    if (event.a == 1) s.after(2.5, tagged(2));
  };
  s.at(5.0, tagged(1));
  s.run();
  ASSERT_EQ(sink.tags, (Tags{1, 2}));
  EXPECT_DOUBLE_EQ(sink.times[1], 7.5);
}

TEST(Scheduler, PastTimesClampToNow) {
  Scheduler s;
  RecordingSink sink(s);
  sink.react = [&](const EngineEvent& event) {
    if (event.a == 1) s.at(1.0, tagged(2));  // in the past
  };
  s.at(5.0, tagged(1));
  s.run();
  ASSERT_EQ(sink.tags, (Tags{1, 2}));
  EXPECT_DOUBLE_EQ(sink.times[1], 5.0);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  RecordingSink sink(s);
  const auto id = s.at(1.0, tagged(1));
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_TRUE(sink.tags.empty());
}

TEST(Scheduler, CancelTwiceReturnsFalse) {
  Scheduler s;
  RecordingSink sink(s);
  const auto id = s.at(1.0, tagged(1));
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
  EXPECT_FALSE(s.cancel(9999));  // unknown id
}

TEST(Scheduler, RunUntilStopsEarly) {
  Scheduler s;
  RecordingSink sink(s);
  s.at(1.0, tagged(1));
  s.at(2.0, tagged(2));
  s.at(10.0, tagged(3));
  const std::size_t executed = s.run(5.0);
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(sink.tags, (Tags{1, 2}));
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, MaxEventsLimit) {
  Scheduler s;
  RecordingSink sink(s);
  for (std::uint64_t i = 0; i < 10; ++i) s.at(static_cast<double>(i), tagged(i));
  s.run(Scheduler::kForever, 4);
  EXPECT_EQ(sink.tags, (Tags{0, 1, 2, 3}));
}

TEST(Scheduler, PendingCountsLiveEvents) {
  Scheduler s;
  RecordingSink sink(s);
  EXPECT_TRUE(s.empty());
  const auto a = s.at(1.0, tagged(1));
  s.at(2.0, tagged(2));
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler s;
  RecordingSink sink(s);
  s.at(1.0, tagged(1));
  s.at(2.0, tagged(2));
  EXPECT_TRUE(s.step());
  EXPECT_EQ(sink.tags, (Tags{1}));
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, AtNextBoundaryCoalescesOntoEpochGrid) {
  Scheduler s;
  RecordingSink sink(s);
  sink.react = [&](const EngineEvent& event) {
    if (event.a != 1) return;
    // Both requests from inside one epoch land on the same boundary.
    s.at_next_boundary(0.010, tagged(2));
    s.at_next_boundary(0.010, tagged(3));
  };
  s.at(0.013, tagged(1));
  s.run();
  ASSERT_EQ(sink.tags, (Tags{1, 2, 3}));
  EXPECT_NEAR(sink.times[1], 0.020, 1e-12);
  // Coalescing requires the two boundary timestamps to be bit-identical.
  EXPECT_EQ(sink.times[1], sink.times[2]);
}

TEST(Scheduler, AtNextBoundaryIsStrictlyAfterNow) {
  Scheduler s;
  RecordingSink sink(s);
  sink.react = [&](const EngineEvent& event) {
    // Exactly on a boundary: the next one must be chosen, not this one.
    if (event.a == 1) s.at_next_boundary(0.010, tagged(2));
  };
  s.at(0.020, tagged(1));
  s.run();
  ASSERT_EQ(sink.tags, (Tags{1, 2}));
  EXPECT_NEAR(sink.times[1], 0.030, 1e-12);
  EXPECT_GT(sink.times[1], 0.020);
}

TEST(Scheduler, AtNextBoundaryRejectsNonPositivePeriod) {
  Scheduler s;
  RecordingSink sink(s);
  for (const double period : {0.0, -1.0, std::nan(""),
                              std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(s.at_next_boundary(period, tagged(1)), std::invalid_argument)
        << period;
  }
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, RunCountsOnlyRealExecutions) {
  Scheduler s;
  RecordingSink sink(s);
  s.at(1.0, tagged(1));
  const auto cancelled = s.at(2.0, tagged(2));
  s.at(3.0, tagged(3));
  EXPECT_TRUE(s.cancel(cancelled));
  // Cancelled events are skipped without being counted as executed.
  EXPECT_EQ(s.run(), 2u);
}

TEST(Scheduler, EventsScheduledDuringRunExecute) {
  Scheduler s;
  RecordingSink sink(s);
  sink.react = [&](const EngineEvent& event) {
    if (event.a == 1) s.at(1.5, tagged(2));
  };
  s.at(1.0, tagged(1));
  s.at(2.0, tagged(3));
  s.run();
  EXPECT_EQ(sink.tags, (Tags{1, 2, 3}));
}

TEST(Scheduler, TypedEventsDispatchThroughSinkInOrder) {
  // Every payload field reaches the sink verbatim.
  Scheduler s;
  RecordingSink sink(s);
  s.at(2.0, EngineEvent{.kind = EngineEvent::Kind::kArriveNext,
                        .channel = 7,
                        .aux = 1,
                        .a = 42,
                        .b = 5});
  s.at(1.0, EngineEvent{.kind = EngineEvent::Kind::kAttemptHop, .a = 9});
  s.after(0.5, EngineEvent{.kind = EngineEvent::Kind::kDeadline, .a = 3});
  s.run();
  ASSERT_EQ(sink.events.size(), 3u);
  EXPECT_EQ(sink.events[0].kind, EngineEvent::Kind::kDeadline);
  EXPECT_EQ(sink.events[0].a, 3u);
  EXPECT_EQ(sink.events[1].kind, EngineEvent::Kind::kAttemptHop);
  EXPECT_EQ(sink.events[2].kind, EngineEvent::Kind::kArriveNext);
  EXPECT_EQ(sink.events[2].channel, 7u);
  EXPECT_EQ(sink.events[2].aux, 1u);
  EXPECT_EQ(sink.events[2].a, 42u);
  EXPECT_EQ(sink.events[2].b, 5u);
}

TEST(Scheduler, TypedEventWithoutSinkThrows) {
  Scheduler s;
  EXPECT_THROW(s.at(1.0, EngineEvent{.kind = EngineEvent::Kind::kFlush}),
               std::logic_error);
}

TEST(Scheduler, TypedEventWithKindNoneIsRejectedAtScheduleTime) {
  // kNone is the unset payload no sink handles: it must fail loudly up
  // front, not at fire time.
  Scheduler s;
  RecordingSink sink(s);
  EXPECT_THROW(s.at(1.0, EngineEvent{}), std::invalid_argument);
  EXPECT_TRUE(s.empty());
}

// ---- Eager cancellation / pool generations ---------------------------------

TEST(Scheduler, CancelAfterFireReturnsFalseAndKeepsAccounting) {
  // Regression: the tombstone scheduler accepted a cancel() of an already-
  // fired id, inserting a never-collected tombstone and corrupting
  // pending()/empty(). The generation counter now detects it.
  Scheduler s;
  RecordingSink sink(s);
  const auto fired = s.at(1.0, tagged(1));
  s.at(2.0, tagged(2));
  EXPECT_TRUE(s.step());  // fires the first event
  EXPECT_FALSE(s.cancel(fired));
  EXPECT_EQ(s.pending(), 1u);  // untouched by the stale cancel
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.run(), 1u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, GenerationReuseInvalidatesOldIds) {
  Scheduler s;
  RecordingSink sink(s);
  const auto first = s.at(1.0, tagged(1));
  EXPECT_TRUE(s.cancel(first));
  // The pool slot is recycled; the old id must not cancel the new event.
  const auto second = s.at(1.0, tagged(2));
  EXPECT_NE(first, second);
  EXPECT_FALSE(s.cancel(first));
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(sink.tags, (Tags{2}));
  EXPECT_FALSE(s.cancel(second));  // fired: detected stale
}

TEST(Scheduler, CancelRemovesEagerly) {
  Scheduler s;
  RecordingSink sink(s);
  std::vector<Scheduler::EventId> ids;
  for (std::uint64_t i = 0; i < 10; ++i) {
    ids.push_back(s.at(1.0 + static_cast<double>(i), tagged(i)));
  }
  // Cancel from the middle of the heap; pending must track exactly.
  EXPECT_TRUE(s.cancel(ids[4]));
  EXPECT_TRUE(s.cancel(ids[9]));
  EXPECT_TRUE(s.cancel(ids[0]));
  EXPECT_EQ(s.pending(), 7u);
  EXPECT_EQ(s.run(), 7u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(sink.tags, (Tags{1, 2, 3, 5, 6, 7, 8}));
}

TEST(Scheduler, DrainWithInterleavedCancelsIsDeterministic) {
  // The same schedule/cancel/step sequence must produce the identical
  // firing order on independent schedulers (the substrate of the N-thread
  // ParallelRunner bit-identity guarantee).
  const auto run_once = [] {
    Scheduler s;
    RecordingSink sink(s);
    common::Rng rng(1234);
    std::vector<Scheduler::EventId> live;
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 20; ++i) {
        const double when = rng.uniform(0.0, 100.0);
        const std::uint64_t tag =
            static_cast<std::uint64_t>(round) * 100 + static_cast<std::uint64_t>(i);
        live.push_back(s.at(when, tagged(tag)));
      }
      // Cancel a random half of the still-known ids (stale ones no-op).
      for (int i = 0; i < 10; ++i) {
        s.cancel(live[rng.index(live.size())]);
      }
      s.run(Scheduler::kForever, 5);  // interleave partial drains
    }
    s.run();
    return sink.tags;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Scheduler, PoolStressReusesSlotsConsistently) {
  // ASan food for the free list: heavy schedule/cancel/fire churn over a
  // small time window forces constant slot recycling and heap growth.
  Scheduler s;
  RecordingSink sink(s);
  common::Rng rng(99);
  std::vector<Scheduler::EventId> ids;
  std::size_t cancelled = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 50; ++i) {
      ids.push_back(s.after(rng.uniform(0.0, 2.0), tagged(0)));
    }
    for (int i = 0; i < 25; ++i) {
      if (s.cancel(ids[rng.index(ids.size())])) ++cancelled;
    }
    s.run(s.now() + 0.5);
  }
  s.run();
  EXPECT_EQ(sink.tags.size() + cancelled, 200u * 50u);
  EXPECT_TRUE(s.empty());
}

}  // namespace
}  // namespace splicer::sim
