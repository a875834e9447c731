// Tier-1 coverage of the deterministic simulation soak harness: a bank of
// seeds must hold every global invariant, identical seeds must replay
// bit-identically, an injected store corruption must be detected, minimized
// by a large factor, and reproduced from a round-tripped repro file; a
// schedule shape may change only the lookup picks inside its window.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sim/churn_schedule.h"
#include "src/sim/sim_runner.h"

namespace past {
namespace {

SimConfig SmallConfig(uint64_t seed) {
  SimConfig config;
  config.seed = seed;
  return config;  // defaults: 24 nodes, 160 events, checkpoint every 40
}

TEST(ChurnSchedule, GenerationIsPureFunctionOfSeed) {
  ScheduleOptions options;
  options.num_events = 64;
  std::vector<ScheduledEvent> a = ChurnScheduler(11, options).Generate();
  std::vector<ScheduledEvent> b = ChurnScheduler(11, options).Generate();
  ASSERT_EQ(a.size(), 64u);
  EXPECT_EQ(SerializeSchedule(a), SerializeSchedule(b));
  EXPECT_EQ(ScheduleFingerprint(a), ScheduleFingerprint(b));

  std::vector<ScheduledEvent> c = ChurnScheduler(12, options).Generate();
  EXPECT_NE(ScheduleFingerprint(a), ScheduleFingerprint(c));
}

TEST(ChurnSchedule, CoversEveryEventClass) {
  ScheduleOptions options;
  options.num_events = 400;
  // kRecover defaults to weight 0 (pre-existing schedules must stay
  // bit-identical); give it weight here so coverage includes it.
  options.recover_weight = 1.0;
  std::vector<ScheduledEvent> schedule = ChurnScheduler(5, options).Generate();
  std::vector<size_t> counts(kSimEventClassCount, 0);
  for (const ScheduledEvent& ev : schedule) {
    ++counts[static_cast<size_t>(ev.cls)];
  }
  for (size_t c = 0; c < kSimEventClassCount; ++c) {
    EXPECT_GT(counts[c], 0u) << "class " << ToString(static_cast<SimEventClass>(c))
                             << " never scheduled";
  }
}

class SimulationSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimulationSeeds, HoldsEveryInvariant) {
  SimResult result = SimRunner(SmallConfig(GetParam())).Run();
  EXPECT_TRUE(result.ok) << "seed " << GetParam() << ": " << result.failure;
  EXPECT_GT(result.files_inserted, 0u);
  EXPECT_GE(result.checkpoints, 4u);
}

INSTANTIATE_TEST_SUITE_P(Soak, SimulationSeeds,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

TEST(Simulation, SameSeedReplaysBitIdentically) {
  SimResult first = SimRunner(SmallConfig(42)).Run();
  SimResult second = SimRunner(SmallConfig(42)).Run();
  ASSERT_TRUE(first.ok) << first.failure;
  EXPECT_EQ(first.schedule_fingerprint, second.schedule_fingerprint);
  EXPECT_EQ(first.state_fingerprint, second.state_fingerprint);
  EXPECT_EQ(first.events_executed, second.events_executed);
  EXPECT_EQ(first.files_inserted, second.files_inserted);
  EXPECT_EQ(first.files_reclaimed, second.files_reclaimed);
  EXPECT_EQ(first.files_lost, second.files_lost);
  EXPECT_EQ(first.crashes, second.crashes);
  EXPECT_EQ(first.partitions, second.partitions);
}

TEST(Simulation, DifferentSeedsDiverge) {
  SimResult a = SimRunner(SmallConfig(42)).Run();
  SimResult b = SimRunner(SmallConfig(43)).Run();
  EXPECT_NE(a.schedule_fingerprint, b.schedule_fingerprint);
  EXPECT_NE(a.state_fingerprint, b.state_fingerprint);
}

TEST(Simulation, InjectedCorruptionIsDetectedAtNextCheckpoint) {
  SimConfig config = SmallConfig(7);
  config.corrupt_at_event = 12;
  SimResult result = SimRunner(config).Run();
  ASSERT_FALSE(result.ok);
  // The sabotage hook leaves used() charging for a dropped replica; the
  // store accounting invariant must flag it.
  EXPECT_NE(result.failure.find("store:"), std::string::npos) << result.failure;
  // Detection happened at the first checkpoint after the corruption, not at
  // the end of the run.
  EXPECT_LE(result.events_executed, 40u);
}

TEST(Simulation, MinimizationShrinksInjectedFailureAtLeastFiveFold) {
  SimConfig config = SmallConfig(7);
  config.corrupt_at_event = 12;
  std::optional<MinimizeOutcome> outcome = MinimizeFailure(config);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_NE(outcome->failure.find("store:"), std::string::npos) << outcome->failure;
  ASSERT_GT(outcome->minimized_events, 0u);
  EXPECT_GE(outcome->original_events, 5 * outcome->minimized_events)
      << "original " << outcome->original_events << " events, minimized to "
      << outcome->minimized_events;
  // The corruption only needs inserts; every other class should be pruned.
  EXPECT_GE(outcome->pruned_classes.size(), 4u);
  // The timeline prefix shrank too: the corruption fires at position 12, so
  // nothing past position 13 is needed.
  EXPECT_LE(outcome->minimized.max_events, 14u);
}

TEST(Simulation, ReproFileRoundTripsAndReproducesDeterministically) {
  SimConfig config = SmallConfig(7);
  config.corrupt_at_event = 12;
  std::optional<MinimizeOutcome> outcome = MinimizeFailure(config);
  ASSERT_TRUE(outcome.has_value());

  std::string text = SerializeSimConfig(outcome->minimized, outcome->failure);
  std::optional<SimConfig> parsed = ParseSimConfig(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seed, outcome->minimized.seed);
  EXPECT_EQ(parsed->max_events, outcome->minimized.max_events);
  EXPECT_EQ(parsed->enabled, outcome->minimized.enabled);
  EXPECT_EQ(parsed->corrupt_at_event, outcome->minimized.corrupt_at_event);

  SimResult replay1 = SimRunner(*parsed).Run();
  SimResult replay2 = SimRunner(*parsed).Run();
  ASSERT_FALSE(replay1.ok);
  EXPECT_EQ(replay1.failure, outcome->failure);
  EXPECT_EQ(replay1.failure, replay2.failure);
  EXPECT_EQ(replay1.state_fingerprint, replay2.state_fingerprint);
  EXPECT_EQ(replay1.schedule_fingerprint, replay2.schedule_fingerprint);
}

SimConfig OverlapConfig(uint64_t seed) {
  SimConfig config = SmallConfig(seed);
  config.max_in_flight = 8;
  return config;
}

class OverlappedSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OverlappedSeeds, HoldsEveryInvariantWithOpsInFlight) {
  SimResult result = SimRunner(OverlapConfig(GetParam())).Run();
  EXPECT_TRUE(result.ok) << "seed " << GetParam() << ": " << result.failure;
  EXPECT_GT(result.files_inserted, 0u);
  EXPECT_GE(result.checkpoints, 4u);
}

INSTANTIATE_TEST_SUITE_P(Soak, OverlappedSeeds,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

TEST(Simulation, OverlappedSameSeedReplaysBitIdentically) {
  SimResult first = SimRunner(OverlapConfig(42)).Run();
  SimResult second = SimRunner(OverlapConfig(42)).Run();
  ASSERT_TRUE(first.ok) << first.failure;
  EXPECT_EQ(first.schedule_fingerprint, second.schedule_fingerprint);
  EXPECT_EQ(first.state_fingerprint, second.state_fingerprint);
  EXPECT_EQ(first.events_executed, second.events_executed);
  EXPECT_EQ(first.files_inserted, second.files_inserted);
  EXPECT_EQ(first.files_reclaimed, second.files_reclaimed);
  EXPECT_EQ(first.files_lost, second.files_lost);
}

TEST(Simulation, OverlappedModeSharesScheduleWithSerializedMode) {
  // max_in_flight changes execution, not the timeline: the generated
  // schedule (and thus its fingerprint) is a pure function of the seed.
  SimResult serialized = SimRunner(SmallConfig(42)).Run();
  SimResult overlapped = SimRunner(OverlapConfig(42)).Run();
  ASSERT_TRUE(overlapped.ok) << overlapped.failure;
  EXPECT_EQ(serialized.schedule_fingerprint, overlapped.schedule_fingerprint);
}

TEST(Simulation, MaxInFlightRoundTripsThroughReproFile) {
  SimConfig config = SmallConfig(3);
  config.max_in_flight = 8;
  std::optional<SimConfig> parsed = ParseSimConfig(SerializeSimConfig(config));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->max_in_flight, 8u);
  // Parsing clamps nonsense to the serialized minimum.
  std::optional<SimConfig> clamped = ParseSimConfig("seed=1\nmax_in_flight=0\n");
  ASSERT_TRUE(clamped.has_value());
  EXPECT_EQ(clamped->max_in_flight, 1u);
}

TEST(Simulation, RecoverAndDurableRoundTripThroughReproFile) {
  SimConfig config = SmallConfig(3);
  config.durable_store = true;
  config.schedule.recover_weight = 1.25;
  std::optional<SimConfig> parsed = ParseSimConfig(SerializeSimConfig(config));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->durable_store);
  EXPECT_DOUBLE_EQ(parsed->schedule.recover_weight, 1.25);
  // A failing crash-recover run reproduces bit-for-bit from the round-
  // tripped config (same schedule, same final state).
  SimResult a = SimRunner(*parsed).Run();
  SimResult b = SimRunner(*parsed).Run();
  ASSERT_TRUE(a.ok) << a.failure;
  EXPECT_GT(a.recoveries, 0u);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.replicas_recovered, b.replicas_recovered);
  EXPECT_EQ(a.schedule_fingerprint, b.schedule_fingerprint);
  EXPECT_EQ(a.state_fingerprint, b.state_fingerprint);
  // Defaults serialize to "off" and parse back to off.
  std::optional<SimConfig> plain = ParseSimConfig(SerializeSimConfig(SmallConfig(3)));
  ASSERT_TRUE(plain.has_value());
  EXPECT_FALSE(plain->durable_store);
  EXPECT_DOUBLE_EQ(plain->schedule.recover_weight, 0.0);
}

TEST(Simulation, ShapeRoundTripsThroughReproFile) {
  SimConfig config = SmallConfig(9);
  config.schedule.shape = ScheduleShape::kFlashCrowd;
  config.schedule.shape_start = 0.25;
  config.schedule.shape_end = 0.75;
  config.schedule.shape_hot_files = 3;
  std::optional<SimConfig> parsed = ParseSimConfig(SerializeSimConfig(config));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->schedule.shape, ScheduleShape::kFlashCrowd);
  EXPECT_DOUBLE_EQ(parsed->schedule.shape_start, 0.25);
  EXPECT_DOUBLE_EQ(parsed->schedule.shape_end, 0.75);
  EXPECT_EQ(parsed->schedule.shape_hot_files, 3u);
  EXPECT_FALSE(ParseSimConfig("seed=1\nshape=tsunami\n").has_value());
}

TEST(Simulation, ParseRejectsMalformedRepro) {
  EXPECT_FALSE(ParseSimConfig("").has_value());
  EXPECT_FALSE(ParseSimConfig("# only comments\n").has_value());
  EXPECT_FALSE(ParseSimConfig("seed=1\nnot a key value line\n").has_value());
  EXPECT_FALSE(ParseSimConfig("seed=1\nenabled=insert,warp\n").has_value());
  // Zero capacity or k: a join would divide by zero, a store hold nothing.
  EXPECT_FALSE(ParseSimConfig("seed=1\ncapacity_per_node=0\nnum_events=60\n").has_value());
  EXPECT_FALSE(ParseSimConfig("seed=1\nk=0\n").has_value());
  // The k closest come from one leaf set (l = 32), which is sound only for
  // k <= l/2 + 1 = 17; a larger k once failed reclaim checks spuriously.
  EXPECT_FALSE(ParseSimConfig("seed=1\nk=18\n").has_value());
  EXPECT_TRUE(ParseSimConfig("seed=1\nk=17\n").has_value());
  // Numbers must parse in full, not read as their valid prefix (or 0).
  for (const char* bad : {"capacity_per_node=abc", "capacity_per_node=4M", "seed=", "seed=-1",
                          "seed= 5", "seed=99999999999999999999", "k=3.5", "num_nodes=0x20",
                          "drop_probability=0.1x", "drop_probability=", "delay_ms=nan",
                          "corrupt_at_event=never", "max_events=all"}) {
    EXPECT_FALSE(ParseSimConfig(std::string("seed=1\n") + bad + "\n").has_value()) << bad;
  }
  // The serialized form still round-trips, scientific doubles included.
  std::optional<SimConfig> exact =
      ParseSimConfig("seed=1\ncapacity_per_node=4000000\ndelay_ms=1e-05\n");
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->capacity_per_node, 4'000'000u);
  EXPECT_DOUBLE_EQ(exact->faults.delay_ms, 1e-05);
  // Unknown keys are tolerated for forward compatibility.
  std::optional<SimConfig> lenient = ParseSimConfig("seed=9\nfuture_knob=3\n");
  ASSERT_TRUE(lenient.has_value());
  EXPECT_EQ(lenient->seed, 9u);
}

TEST(ScheduleShapeTest, NoneShapeLeavesScheduleByteIdentical) {
  ScheduleOptions plain;
  plain.num_events = 256;
  ScheduleOptions shaped = plain;
  shaped.shape = ScheduleShape::kNone;  // explicit, same as default
  std::vector<ScheduledEvent> a = ChurnScheduler(33, plain).Generate();
  std::vector<ScheduledEvent> b = ChurnScheduler(33, shaped).Generate();
  EXPECT_EQ(SerializeSchedule(a), SerializeSchedule(b));
}

TEST(ScheduleShapeTest, FlashShapeOnlyCollapsesWindowLookupPicks) {
  ScheduleOptions plain;
  plain.num_events = 400;
  ScheduleOptions shaped = plain;
  shaped.shape = ScheduleShape::kFlashCrowd;
  shaped.shape_hot_files = 2;
  std::vector<ScheduledEvent> a = ChurnScheduler(21, plain).Generate();
  std::vector<ScheduledEvent> b = ChurnScheduler(21, shaped).Generate();
  ASSERT_EQ(a.size(), b.size());
  size_t collapsed = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    // The shape is a pure per-index transform: classes and aux entropy are
    // untouched, and only lookups inside the window change their pick.
    ASSERT_EQ(a[i].cls, b[i].cls) << "event " << i;
    EXPECT_EQ(a[i].aux, b[i].aux) << "event " << i;
    double t = static_cast<double>(i) / static_cast<double>(plain.num_events);
    bool in_window = t >= shaped.shape_start && t < shaped.shape_end;
    if (b[i].cls == SimEventClass::kLookup && in_window) {
      EXPECT_EQ(b[i].pick, a[i].pick % shaped.shape_hot_files) << "event " << i;
      if (a[i].pick != b[i].pick) {
        ++collapsed;
      }
    } else {
      EXPECT_EQ(a[i].pick, b[i].pick) << "event " << i;
    }
  }
  EXPECT_GT(collapsed, 0u) << "flash window never altered a lookup pick";
}

}  // namespace
}  // namespace past
