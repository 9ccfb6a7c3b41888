#include <gtest/gtest.h>

#include <memory>

#include "core/check.hpp"
#include "core/event_list.hpp"
#include "stats/monitors.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

namespace mpsim::stats {
namespace {

TEST(Summary, JainPerfectFairness) {
  EXPECT_DOUBLE_EQ(jain_index({5, 5, 5, 5}), 1.0);
}

TEST(Summary, JainWorstCase) {
  // One flow hogging everything: index = 1/n.
  EXPECT_NEAR(jain_index({10, 0, 0, 0}), 0.25, 1e-12);
}

TEST(Summary, JainPaperTorusValue) {
  // Sanity on the formula with a mildly uneven allocation:
  // (2.8)^2 / (3 * 2.64) = 0.98990.
  EXPECT_NEAR(jain_index({1.0, 1.0, 0.8}), 0.98990, 0.0001);
}

TEST(Summary, JainEdgeCases) {
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({0, 0}), 1.0);
}

TEST(Summary, BasicAggregates) {
  const std::vector<double> xs = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(minimum(xs), 1.0);
  EXPECT_DOUBLE_EQ(maximum(xs), 4.0);
  EXPECT_NEAR(stddev(xs), 1.2909944, 1e-6);
}

TEST(Summary, PercentileNearestRank) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 100.0);
  EXPECT_NEAR(percentile(xs, 0.5), 50.0, 1.0);
}

TEST(Monitors, CounterSeriesComputesDeltas) {
  EventList events;
  std::uint64_t counter = 0;
  CounterSeries series(events, "s", from_ms(100), [&] { return counter; });
  series.start(0);
  // Counter grows by 10 per 100 ms via a driver event.
  struct Driver : EventSource {
    Driver(EventList& e, std::uint64_t& c) : EventSource(e, "d"), ev(e), c(c) {}
    void on_event() override {
      c += 10;
      if (++n < 20) ev.schedule_in(*this, from_ms(100));
    }
    EventList& ev;
    std::uint64_t& c;
    int n = 0;
  } driver(events, counter);
  events.schedule_at(driver, from_ms(50));
  events.run_until(from_sec(2));
  ASSERT_GE(series.points().size(), 15u);
  for (const auto& p : series.points()) EXPECT_EQ(p.delta, 10u);
  EXPECT_NEAR(series.mean_rate(), 100.0, 1.0);  // 10 per 0.1 s
}

TEST(Monitors, PktsToMbps) {
  // 1000 pkts x 1500 B x 8 over 1 s = 12 Mb/s.
  EXPECT_DOUBLE_EQ(pkts_to_mbps(1000, from_sec(1)), 12.0);
  EXPECT_DOUBLE_EQ(pkts_to_mbps(0, from_sec(1)), 0.0);
  EXPECT_DOUBLE_EQ(pkts_to_mbps(1000, 0), 0.0);
}

TEST(Monitors, PeriodicSamplerStops) {
  EventList events;
  int calls = 0;
  PeriodicSampler s(events, "s", from_ms(10), [&](SimTime) { ++calls; });
  s.start(0);
  events.run_until(from_ms(55));
  s.stop();
  events.run_until(from_ms(200));
  EXPECT_EQ(calls, 6);  // t = 0,10,...,50
}

// Regression: destroying a sampler (or calling stop()) while its next
// wake-up is still queued used to leave a dangling EventSource* in the
// event list — dispatched later as use-after-free — and kept run_all()
// ticking on a sampler that does nothing. stop() now cancels eagerly.
TEST(Monitors, SamplerDestructionCancelsPendingWakeup) {
  ScopedThrowingChecks guard;
  EventList events;
  int calls = 0;
  {
    PeriodicSampler s(events, "s", from_ms(10), [&](SimTime) { ++calls; });
    s.start(0);
    events.run_until(from_ms(25));  // last tick at 20 ms rescheduled to 30 ms
    EXPECT_EQ(events.pending(), 1u);
  }  // destroyed with the 30 ms wake-up still queued
  EXPECT_EQ(events.pending(), 0u);
  events.run_all();  // would dispatch the dangling pointer pre-fix
  EXPECT_EQ(calls, 3);  // t = 0, 10, 20
}

TEST(Monitors, SamplerStopRemovesPendingWakeup) {
  EventList events;
  int calls = 0;
  PeriodicSampler s(events, "s", from_ms(10), [&](SimTime) { ++calls; });
  s.start(0);
  events.run_until(from_ms(25));
  s.stop();
  // A stopped sampler must not keep a run-until-empty simulation alive.
  EXPECT_EQ(events.pending(), 0u);
  events.run_all();
  EXPECT_EQ(calls, 3);
}

// Regression: stop() from inside the sampling callback used to be undone by
// the unconditional reschedule that followed the callback.
TEST(Monitors, SamplerStopFromCallbackDoesNotReschedule) {
  EventList events;
  int calls = 0;
  std::unique_ptr<PeriodicSampler> s;
  s = std::make_unique<PeriodicSampler>(events, "s", from_ms(10),
                                        [&](SimTime) {
                                          if (++calls == 3) s->stop();
                                        });
  s->start(0);
  events.run_until(from_ms(25));  // ticks at 0, 10, 20; stop() on the third
  EXPECT_EQ(calls, 3);
  // The tick whose callback called stop() must not have re-armed the
  // sampler (pre-fix: the post-callback reschedule ran unconditionally,
  // leaving a ghost wake-up).
  EXPECT_EQ(events.pending(), 0u);
  EXPECT_FALSE(s->running());
  events.run_all();
  EXPECT_EQ(calls, 3);
}

// Regression: mean_rate() used interval * point-count for elapsed time,
// which is wrong across a stop()/start() gap (the first post-restart delta
// spans the gap but the formula only credits one interval for it).
TEST(Monitors, CounterSeriesMeanRateAcrossStopRestart) {
  EventList events;
  std::uint64_t counter = 0;
  CounterSeries series(events, "s", from_ms(100), [&] { return counter; });
  // Counter grows by 10 every 100 ms for the whole run, sampled or not.
  struct Driver : EventSource {
    Driver(EventList& e, std::uint64_t& c) : EventSource(e, "d"), ev(e), c(c) {}
    void on_event() override {
      c += 10;
      if (++n < 60) ev.schedule_in(*this, from_ms(100));
    }
    EventList& ev;
    std::uint64_t& c;
    int n = 0;
  } driver(events, counter);
  events.schedule_at(driver, from_ms(50));

  series.start(0);
  events.run_until(from_ms(550));
  series.stop();              // sampled [0, 500 ms]
  events.run_until(from_sec(5));
  series.start(from_sec(5));  // 4.5 s gap, then sample [5 s, 5.5 s]
  events.run_until(from_ms(5550));
  series.stop();

  // True rate is 100/s throughout. The pre-fix formula divides by
  // (#points * 100 ms) ~ 1.1 s while the deltas span 5.5 s, reporting
  // ~500/s.
  EXPECT_NEAR(series.mean_rate(), 100.0, 5.0);
}

TEST(Table, AlignedOutputContainsCells) {
  Table t({"algo", "tp1", "tp2"});
  t.add_row("MPTCP", {95.0, 97.0});
  t.add_row({"SINGLE", "51", "94"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("MPTCP"), std::string::npos);
  EXPECT_NE(s.find("95.0"), std::string::npos);
  EXPECT_NE(s.find("SINGLE"), std::string::npos);
  EXPECT_NE(s.find("tp2"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, FmtDoublePrecision) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
}

}  // namespace
}  // namespace mpsim::stats
