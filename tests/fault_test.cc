#include "fault/failpoint.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/exposition.h"
#include "obs/metrics.h"

namespace caddb {
namespace fault {
namespace {

// ---------------------------------------------------------------------------
// Spec grammar.

TEST(FailpointSpec, ParsesKindsAndModifiers) {
  auto spec = FailpointSpec::ParseString(
      "delay=2ms --skip=3 --every=4 --times=2 --p=0.5 --seed=9");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->kind, ActionKind::kDelay);
  EXPECT_EQ(spec->delay_us, 2000u);
  EXPECT_EQ(spec->skip, 3u);
  EXPECT_EQ(spec->every, 4u);
  EXPECT_EQ(spec->times, 2u);
  EXPECT_DOUBLE_EQ(spec->probability, 0.5);
  EXPECT_EQ(spec->seed, 9u);

  spec = FailpointSpec::ParseString("error=disk-on-fire");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->kind, ActionKind::kError);
  EXPECT_EQ(spec->message, "disk-on-fire");

  spec = FailpointSpec::ParseString("cut=4096");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->kind, ActionKind::kCut);
  EXPECT_EQ(spec->arg, 4096u);

  for (const char* kind :
       {"drop", "truncate", "reset", "corrupt", "duplicate", "reorder",
        "stall", "abort"}) {
    spec = FailpointSpec::ParseString(kind);
    ASSERT_TRUE(spec.ok()) << kind << ": " << spec.status().ToString();
    EXPECT_EQ(ActionKindName(spec->kind), std::string(kind));
  }
}

TEST(FailpointSpec, ToStringRoundTrips) {
  const char* cases[] = {
      "drop",
      "error",
      "delay=1500us --every=3",
      "truncate --skip=2 --times=1",
      "drop --p=0.25 --seed=7",
      "cut=512",
  };
  for (const char* text : cases) {
    auto spec = FailpointSpec::ParseString(text);
    ASSERT_TRUE(spec.ok()) << text;
    auto again = FailpointSpec::ParseString(spec->ToString());
    ASSERT_TRUE(again.ok()) << spec->ToString();
    EXPECT_EQ(again->ToString(), spec->ToString()) << text;
  }
}

TEST(FailpointSpec, RejectsMalformedInput) {
  EXPECT_FALSE(FailpointSpec::ParseString("").ok());
  EXPECT_FALSE(FailpointSpec::ParseString("frobnicate").ok());
  EXPECT_FALSE(FailpointSpec::ParseString("delay").ok());       // no duration
  EXPECT_FALSE(FailpointSpec::ParseString("cut").ok());         // no budget
  EXPECT_FALSE(FailpointSpec::ParseString("drop --every=0").ok());
  EXPECT_FALSE(FailpointSpec::ParseString("drop --p=1.5").ok());
  EXPECT_FALSE(FailpointSpec::ParseString("drop --bogus=1").ok());
  // Numbers are digits only: a sign used to wrap to a huge skip or delay.
  EXPECT_FALSE(FailpointSpec::ParseString("delay=-1ms").ok());
  EXPECT_FALSE(FailpointSpec::ParseString("delay=99999999999999s").ok());
  EXPECT_FALSE(FailpointSpec::ParseString("drop --skip=-1").ok());
  EXPECT_FALSE(FailpointSpec::ParseString("drop --times=+2").ok());
  EXPECT_FALSE(FailpointSpec::ParseString("drop --seed=4294967296").ok());
  EXPECT_FALSE(FailpointSpec::ParseString("drop --p=nan").ok());
  EXPECT_FALSE(FailpointSpec::ParseString("drop --p=0.5x").ok());
}

// ---------------------------------------------------------------------------
// Arm/disarm error contract: failing site name + errno in the message.

TEST(FailpointRegistry, ArmErrorsNameSiteAndErrno) {
  FailpointRegistry reg;
  auto spec = FailpointSpec::ParseString("drop");
  ASSERT_TRUE(spec.ok());

  Status s = reg.Arm("no.such.site", *spec);
  EXPECT_EQ(s.code(), Code::kNotFound);
  EXPECT_NE(s.message().find("no.such.site"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("errno 2"), std::string::npos) << s.ToString();

  // wal.append.pre_fsync supports the generic kinds only; drop is a
  // network action.
  s = reg.Arm(sites::kWalAppendPreFsync, *spec);
  EXPECT_EQ(s.code(), Code::kInvalidArgument);
  EXPECT_NE(s.message().find(sites::kWalAppendPreFsync), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("errno 22"), std::string::npos) << s.ToString();

  s = reg.Disarm("no.such.site");
  EXPECT_EQ(s.code(), Code::kNotFound);
  EXPECT_NE(s.message().find("no.such.site"), std::string::npos);
  EXPECT_NE(s.message().find("errno 2"), std::string::npos);

  s = reg.ArmFromString("net.session.write frobnicate");
  EXPECT_EQ(s.code(), Code::kInvalidArgument);
  EXPECT_NE(s.message().find("net.session.write"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("errno 22"), std::string::npos) << s.ToString();
}

// ---------------------------------------------------------------------------
// Trigger matrix: skip / every / times / probability.

uint64_t CountFires(FailpointRegistry* reg, const std::string& site,
                    int hits, std::vector<int>* fired_at = nullptr) {
  uint64_t fires = 0;
  for (int i = 0; i < hits; ++i) {
    FiredAction action;
    if (reg->Hit(site, &action)) {
      ++fires;
      if (fired_at != nullptr) fired_at->push_back(i);
    }
  }
  return fires;
}

TEST(FailpointRegistry, SkipEveryTimesWalkTheHitStream) {
  FailpointRegistry reg;
  ASSERT_TRUE(reg.Declare("t.site", "test site",
                          KindBit(ActionKind::kError))
                  .ok());

  // skip=2 every=3: hits 0,1 pass; the first eligible hit fires, then
  // every 3rd after it.
  auto spec = FailpointSpec::ParseString("error --skip=2 --every=3");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(reg.Arm("t.site", *spec).ok());
  std::vector<int> fired_at;
  EXPECT_EQ(CountFires(&reg, "t.site", 12, &fired_at), 4u);
  EXPECT_EQ(fired_at, (std::vector<int>{2, 5, 8, 11}));

  // times=2 caps the fires no matter how many hits follow.
  spec = FailpointSpec::ParseString("error --times=2");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(reg.Arm("t.site", *spec).ok());
  EXPECT_EQ(CountFires(&reg, "t.site", 100), 2u);

  // Arm resets the counters: a re-arm starts the walk over.
  ASSERT_TRUE(reg.Arm("t.site", *spec).ok());
  EXPECT_EQ(CountFires(&reg, "t.site", 100), 2u);
}

TEST(FailpointRegistry, ProbabilityIsDeterministicPerSeed) {
  auto run = [](uint32_t seed) {
    FailpointRegistry reg;
    EXPECT_TRUE(reg.Declare("t.site", "test site",
                            KindBit(ActionKind::kError))
                    .ok());
    auto spec =
        FailpointSpec::ParseString("error --p=0.3 --seed=" +
                                   std::to_string(seed));
    EXPECT_TRUE(spec.ok());
    EXPECT_TRUE(reg.Arm("t.site", *spec).ok());
    std::vector<int> fired_at;
    CountFires(&reg, "t.site", 200, &fired_at);
    return fired_at;
  };
  std::vector<int> a = run(42);
  std::vector<int> b = run(42);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  EXPECT_LT(a.size(), 200u);  // p=0.3 must not fire on every hit
}

TEST(FailpointRegistry, DisarmAllKeepsCountersForPostRunTables) {
  FailpointRegistry reg;
  ASSERT_TRUE(reg.Declare("t.site", "test site",
                          KindBit(ActionKind::kError))
                  .ok());
  auto spec = FailpointSpec::ParseString("error");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(reg.Arm("t.site", *spec).ok());
  EXPECT_EQ(CountFires(&reg, "t.site", 5), 5u);
  EXPECT_TRUE(reg.any_armed());
  EXPECT_EQ(reg.DisarmAll(), 1u);
  EXPECT_FALSE(reg.any_armed());
  for (const SiteInfo& site : reg.List()) {
    if (site.name != "t.site") continue;
    EXPECT_FALSE(site.armed);
    EXPECT_EQ(site.hits, 5u);
    EXPECT_EQ(site.fired, 5u);
    return;
  }
  FAIL() << "t.site missing from List()";
}

// ---------------------------------------------------------------------------
// Inject: the generic actions.

TEST(FailpointRegistry, InjectReturnsErrorNamingSite) {
  FailpointRegistry reg;
  ASSERT_TRUE(reg.Declare("t.site", "test site",
                          KindBit(ActionKind::kError))
                  .ok());
  auto spec = FailpointSpec::ParseString("error=simulated-disk-loss");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(reg.Arm("t.site", *spec).ok());
  Status s = reg.Inject("t.site");
  EXPECT_EQ(s.code(), Code::kUnavailable);
  EXPECT_NE(s.message().find("t.site"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("simulated-disk-loss"), std::string::npos);
  // Disarmed sites inject nothing.
  reg.DisarmAll();
  EXPECT_TRUE(reg.Inject("t.site").ok());
}

TEST(FailpointRegistry, InjectDelaySleepsThroughInjectedSleeper) {
  FailpointRegistry reg;
  ASSERT_TRUE(reg.Declare("t.site", "test site",
                          KindBit(ActionKind::kDelay))
                  .ok());
  std::vector<uint64_t> slept;
  reg.set_sleeper([&slept](uint64_t us) { slept.push_back(us); });
  auto spec = FailpointSpec::ParseString("delay=7ms --times=2");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(reg.Arm("t.site", *spec).ok());
  EXPECT_TRUE(reg.Inject("t.site").ok());
  EXPECT_TRUE(reg.Inject("t.site").ok());
  EXPECT_TRUE(reg.Inject("t.site").ok());  // times=2: third is quiet
  EXPECT_EQ(slept, (std::vector<uint64_t>{7000, 7000}));
}

// ---------------------------------------------------------------------------
// Metrics parity: every armed site exports caddb_fault_fired_total{site=}.

TEST(FailpointRegistry, FiredCounterExportsThroughMetrics) {
  FailpointRegistry reg;
  obs::MetricsRegistry metrics;
  ASSERT_TRUE(reg.Declare("t.one", "one", KindBit(ActionKind::kError)).ok());
  ASSERT_TRUE(reg.Declare("t.two", "two", KindBit(ActionKind::kError)).ok());
  auto spec = FailpointSpec::ParseString("error");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(reg.Arm("t.one", *spec, &metrics).ok());
  ASSERT_TRUE(reg.Arm("t.two", *spec, &metrics).ok());
  EXPECT_EQ(CountFires(&reg, "t.one", 3), 3u);
  EXPECT_EQ(CountFires(&reg, "t.two", 1), 1u);

  obs::MetricsSnapshot snap = metrics.Snapshot();
  const obs::CounterSample* one =
      snap.FindCounter("caddb_fault_fired_total{site=\"t.one\"}");
  ASSERT_NE(one, nullptr);
  EXPECT_EQ(one->value, 3u);
  const obs::CounterSample* two =
      snap.FindCounter("caddb_fault_fired_total{site=\"t.two\"}");
  ASSERT_NE(two, nullptr);
  EXPECT_EQ(two->value, 1u);
  reg.DisarmAll();
}

TEST(FailpointRegistry, PrometheusRenderingOfLabeledSeries) {
  FailpointRegistry reg;
  obs::MetricsRegistry metrics;
  ASSERT_TRUE(reg.Declare("t.one", "one", KindBit(ActionKind::kError)).ok());
  ASSERT_TRUE(reg.Declare("t.two", "two", KindBit(ActionKind::kError)).ok());
  auto spec = FailpointSpec::ParseString("error");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(reg.Arm("t.one", *spec, &metrics).ok());
  ASSERT_TRUE(reg.Arm("t.two", *spec, &metrics).ok());
  CountFires(&reg, "t.one", 2);
  CountFires(&reg, "t.two", 5);

  const std::string text = obs::RenderPrometheus(metrics.Snapshot());
  std::string error;
  EXPECT_TRUE(obs::ValidatePrometheusText(text, &error)) << error << "\n"
                                                         << text;
  // One TYPE header for the family, two labeled samples.
  size_t type_count = 0;
  for (size_t pos = text.find("# TYPE caddb_fault_fired_total counter");
       pos != std::string::npos;
       pos = text.find("# TYPE caddb_fault_fired_total counter", pos + 1)) {
    ++type_count;
  }
  EXPECT_EQ(type_count, 1u) << text;
  EXPECT_NE(text.find("caddb_fault_fired_total{site=\"t.one\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("caddb_fault_fired_total{site=\"t.two\"} 5"),
            std::string::npos)
      << text;
  reg.DisarmAll();
}

// ---------------------------------------------------------------------------
// The global registry (what production call sites consult).

TEST(FailpointRegistry, GlobalWrappersFastPathWhenDisarmed) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  reg.DisarmAll();
  EXPECT_FALSE(reg.any_armed());
  FiredAction action;
  EXPECT_FALSE(Hit(sites::kWalAppendPreFsync, &action));
  EXPECT_TRUE(Inject(sites::kWalAppendPreFsync).ok());

  ASSERT_TRUE(
      reg.ArmFromString("wal.append.pre_fsync error=armed-via-string").ok());
  Status s = Inject(sites::kWalAppendPreFsync);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("armed-via-string"), std::string::npos);
  reg.DisarmAll();
  EXPECT_TRUE(Inject(sites::kWalAppendPreFsync).ok());
}

TEST(FailpointRegistry, GlobalDeclaresCanonicalSiteTable) {
  std::vector<SiteInfo> sites = FailpointRegistry::Global().List();
  auto has = [&sites](const char* name) {
    for (const SiteInfo& s : sites) {
      if (s.name == name) return true;
    }
    return false;
  };
  for (const char* name :
       {sites::kWalAppendPreFsync, sites::kWalFileCut,
        sites::kWalCheckpointPublish, sites::kStoragePageWrite,
        sites::kStoragePageFlush, sites::kStorageFileCut,
        sites::kReplicationShip, sites::kReplicationShipManifest,
        sites::kNetSessionWrite, sites::kNetSessionRead,
        sites::kNetClientWrite, sites::kNetClientRead}) {
    EXPECT_TRUE(has(name)) << name;
  }
  // The page-file cut is a byte budget only: a clean error belongs on
  // storage.page.write, so arming the cut site with one is refused.
  Status s =
      FailpointRegistry::Global().ArmFromString("storage.file.cut error");
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find(sites::kStorageFileCut), std::string::npos)
      << s.ToString();
  EXPECT_TRUE(FailpointRegistry::Global()
                  .ArmFromString("storage.file.cut cut=4096")
                  .ok());
  FailpointRegistry::Global().DisarmAll();
}

// ---------------------------------------------------------------------------
// Concurrency: hitters race arm/disarm (the TSan stage runs this).

TEST(FailpointRegistry, ConcurrentHitArmDisarm) {
  FailpointRegistry reg;
  ASSERT_TRUE(reg.Declare("t.site", "test site",
                          KindBit(ActionKind::kError))
                  .ok());
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> fires{0};
  std::vector<std::thread> hitters;
  for (int t = 0; t < 4; ++t) {
    hitters.emplace_back([&reg, &stop, &fires] {
      FiredAction action;
      while (!stop.load(std::memory_order_relaxed)) {
        if (reg.any_armed() && reg.Hit("t.site", &action)) {
          fires.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  auto spec = FailpointSpec::ParseString("error --p=0.5");
  ASSERT_TRUE(spec.ok());
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(reg.Arm("t.site", *spec).ok());
    (void)reg.List();
    reg.DisarmAll();
  }
  stop.store(true);
  for (std::thread& t : hitters) t.join();
  // No assertion on the count — the point is a clean run under TSan.
  EXPECT_FALSE(reg.any_armed());
}

}  // namespace
}  // namespace fault
}  // namespace caddb
