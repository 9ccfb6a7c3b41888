// Spec-parser and grid-expansion rejection tests: every malformed spec
// must fail loudly, with a file:line diagnostic — never parse as something
// surprising or silently sweep nothing.
#include "scenario/engine.hpp"
#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include "core/event_list.hpp"
#include "core/rng.hpp"
#include "net/packet.hpp"
#include "scenario/registry.hpp"
#include "topo/network.hpp"

namespace mpsim::scenario {
namespace {

// A minimal spec that validates cleanly; rejection tests splice errors in.
constexpr const char* kBase = R"(
[topology]
kind = "two_link"
link1_rate = "12Mbps"
link1_delay = "20ms"
link2_rate = "12Mbps"
link2_delay = "20ms"

[algorithm]
kind = "mptcp"

[traffic]
kind = "persistent"
count = 1
subflows = 2

[run]
warmup = "1s"
measure = "2s"
)";

Scenario load(const std::string& text) {
  return Scenario::from_string(text, "test.toml");
}

// Capture the SpecError a callable throws (fails the test if it doesn't).
SpecError error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const SpecError& e) {
    return e;
  }
  ADD_FAILURE() << "expected a SpecError";
  return SpecError("", 0, "");
}

TEST(SpecParser, BaseSpecValidates) {
  Scenario s = load(kBase);
  EXPECT_EQ(s.name(), "test");
  const auto runs = s.expand();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].name, "test");  // no sweep, single seed: no suffixes
  EXPECT_EQ(runs[0].seed, 1u);
  EXPECT_NO_THROW(s.validate());
}

TEST(SpecParser, ScenarioNameOverridesFileStem) {
  Scenario s = load(std::string("[scenario]\nname = \"custom\"\n") + kBase);
  EXPECT_EQ(s.name(), "custom");
  EXPECT_EQ(s.expand()[0].name, "custom");
}

TEST(SpecParser, DuplicateSectionRejected) {
  const SpecError e =
      error_of([] { Spec::parse_string("[run]\n[run]\n", "dup.toml"); });
  EXPECT_EQ(e.line(), 2);
  EXPECT_NE(std::string(e.what()).find("dup.toml:2"), std::string::npos);
  EXPECT_NE(std::string(e.what()).find("duplicate section"),
            std::string::npos);
}

TEST(SpecParser, DuplicateKeyRejected) {
  const SpecError e = error_of(
      [] { Spec::parse_string("[run]\na = 1\na = 2\n", "dup.toml"); });
  EXPECT_EQ(e.line(), 3);
  EXPECT_NE(std::string(e.what()).find("duplicate key 'a'"),
            std::string::npos);
}

TEST(SpecParser, BareWordValueRejected) {
  const SpecError e = error_of([] {
    Spec::parse_string("[algorithm]\nkind = mptcp\n", "bare.toml");
  });
  EXPECT_EQ(e.line(), 2);
  EXPECT_NE(std::string(e.what()).find("bare words"), std::string::npos);
}

TEST(SpecParser, NestedArrayRejected) {
  EXPECT_THROW(Spec::parse_string("[a]\nx = [[1, 2], [3]]\n", "n.toml"),
               SpecError);
}

TEST(SpecParser, MixedKindArrayRejected) {
  const SpecError e = error_of(
      [] { Spec::parse_string("[a]\nx = [1, \"two\"]\n", "mix.toml"); });
  EXPECT_NE(std::string(e.what()).find("mixes"), std::string::npos);
}

TEST(SpecParser, UppercaseSectionRejected) {
  EXPECT_THROW(Spec::parse_string("[Run]\n", "u.toml"), SpecError);
}

TEST(SpecParser, KeyBeforeAnySectionRejected) {
  EXPECT_THROW(Spec::parse_string("a = 1\n", "k.toml"), SpecError);
}

TEST(SpecParser, MissingValueRejected) {
  EXPECT_THROW(Spec::parse_string("[run]\na =\n", "m.toml"), SpecError);
}

TEST(SpecUnits, TimeParsing) {
  EXPECT_EQ(parse_time("20ms", "t", 1), from_ms(20));
  EXPECT_EQ(parse_time("1.5s", "t", 1), from_sec(1.5));
  EXPECT_EQ(parse_time("9min", "t", 1), from_sec(540));
  EXPECT_THROW(parse_time("20", "t", 3), SpecError);       // unit-less
  EXPECT_THROW(parse_time("5parsec", "t", 3), SpecError);  // unknown unit
  EXPECT_THROW(parse_time("fast", "t", 3), SpecError);
  // Out of range: the integer conversion would be undefined behaviour.
  EXPECT_THROW(parse_time("-5ms", "t", 3), SpecError);
  EXPECT_THROW(parse_time("1e300s", "t", 3), SpecError);
  EXPECT_THROW(parse_time("1e10s", "t", 3), SpecError);  // >= 2^63 ns
  EXPECT_EQ(parse_time("9e9s", "t", 3), from_sec(9e9));  // just below
}

TEST(SpecUnits, RateParsing) {
  EXPECT_DOUBLE_EQ(parse_rate_bps("14.4Mbps", "r", 1), 14.4e6);
  EXPECT_DOUBLE_EQ(parse_rate_bps("2kbps", "r", 1), 2e3);
  EXPECT_DOUBLE_EQ(parse_rate_bps("1Gbps", "r", 1), 1e9);
  EXPECT_DOUBLE_EQ(parse_rate_bps("1000pps", "r", 1),
                   1000.0 * net::kDataPacketBytes * 8.0);
  EXPECT_THROW(parse_rate_bps("48", "r", 1), SpecError);
  EXPECT_THROW(parse_rate_bps("10mph", "r", 1), SpecError);
}

TEST(SpecUnits, SizeParsing) {
  EXPECT_EQ(parse_bytes("3B", "b", 1), 3u);
  EXPECT_EQ(parse_bytes("64kB", "b", 1), 64000u);
  EXPECT_EQ(parse_bytes("1MB", "b", 1), 1000000u);
  EXPECT_EQ(parse_bytes("25pkt", "b", 1),
            25u * net::kDataPacketBytes);
  EXPECT_THROW(parse_bytes("64", "b", 1), SpecError);
  EXPECT_THROW(parse_bytes("64KB", "b", 1), SpecError);  // units exact-case
  EXPECT_THROW(parse_bytes("1e25B", "b", 1), SpecError);  // >= 2^64 bytes
  EXPECT_THROW(parse_bytes("2e19B", "b", 1), SpecError);
  EXPECT_EQ(parse_bytes("1e19B", "b", 1), 10000000000000000000u);
}

TEST(SpecErrors, DiagnosticsCarryFileAndLine) {
  const SpecError e = error_of([] {
    // Line 4 holds the malformed unit.
    Spec spec = Spec::parse_string(
        "[run]\nwarmup = \"1s\"\nmeasure = \"2s\"\nextra = \"20\"\n",
        "diag.toml");
    spec.require_section("run").get_time("extra");
  });
  EXPECT_EQ(e.file(), "diag.toml");
  EXPECT_EQ(e.line(), 4);
  EXPECT_NE(std::string(e.what()).find("diag.toml:4"), std::string::npos);

  // Out-of-range times and sizes fail at their own line instead of
  // reaching a float-to-integer conversion (undefined behaviour) or the
  // event list ("cannot schedule in the past"). So do topology keys: a zero
  // link rate, an integer that would wrap when narrowed, or an element
  // count beyond the uint32 order-id space (reported at the [topology]
  // header), rather than an abort or an allocation failure in the build.
  constexpr const char* kTwoLink =
      "kind = \"two_link\"\nlink1_rate = \"12Mbps\"\nlink1_delay = \"20ms\"\n"
      "link2_rate = \"12Mbps\"\nlink2_delay = \"20ms\"";
  struct Case {
    const char* find;     // text in kBase to replace
    const char* replace;  // its out-of-range replacement
    int line;             // the replacement's line in the spec
    const char* message;
  };
  const Case cases[] = {
      {"link1_delay = \"20ms\"", "link1_delay = \"1e300s\"", 5,
       "out of range"},
      {"link1_delay = \"20ms\"", "link1_delay = \"-5ms\"", 5,
       "out of range"},
      {"link1_delay = \"20ms\"", "link1_buf = \"1e25B\"", 5, "out of range"},
      {"subflows = 2", "start = \"-1s\"", 15, "out of range"},
      {"link1_rate = \"12Mbps\"", "link1_rate = \"0Mbps\"", 4,
       "link1_rate: link rate must be above 0"},
      {kTwoLink, "kind = \"parking_lot\"\nlink_rate = \"0Mbps\"", 4,
       "link_rate: link rate must be above 0"},
      {kTwoLink, "kind = \"torus\"\nrate_pps = 0", 4,
       "rate_pps: link rate must be above 0"},
      {kTwoLink, "kind = \"fat_tree\"\nk = 4294967304", 4,
       "k: value 4294967304 is out of range"},
      {kTwoLink, "kind = \"bcube\"\nn = 100000", 2, "the order-id space"},
      {kTwoLink, "kind = \"bcube\"\nk = 40", 2, "the order-id space"},
      // Traffic and [path_manager] integers: no wrap, no negative count,
      // no allocation failure.
      {"count = 1", "count = 4294967297", 14,
       "count: value 4294967297 is out of range"},
      {"count = 1", "count = -5", 14, "count: value -5 is out of range"},
      {"subflows = 2", "subflows = 4294967298", 15,
       "subflows: value 4294967298 is out of range"},
      {"subflows = 2", "recv_buffer_pkts = -1", 15,
       "recv_buffer_pkts: value -1 is out of range"},
      {"kind = \"persistent\"\ncount = 1\nsubflows = 2",
       "kind = \"churn\"\nmp_count = 4294967298", 14,
       "mp_count: value 4294967298 is out of range"},
      {"measure = \"2s\"", "measure = \"2s\"\n[path_manager]\nndiffports = -1",
       21, "ndiffports: value -1 is out of range"},
      // The optional two_link keys: loss probability, BDP-relative buffer
      // and the on/off CBR switch.
      {"link1_delay = \"20ms\"", "link1_loss = 1.5", 5,
       "link1_loss: loss probability must be in [0, 1]"},
      {"link1_delay = \"20ms\"", "link1_loss = -0.1", 5,
       "link1_loss: loss probability must be in [0, 1]"},
      {"link1_delay = \"20ms\"", "link1_loss = nan", 5, "bare word"},
      {"link2_delay = \"20ms\"", "buffer_bdp = 0", 7,
       "buffer_bdp: must be above 0"},
      {"link2_delay = \"20ms\"", "link2_buf = \"9kB\"\nbuffer_bdp = 1", 7,
       "link2_buf: mutually exclusive with 'buffer_bdp'"},
      {"link1_delay = \"20ms\"",
       "link1_delay = \"5000000000s\"\nbuffer_bdp = 1000", 6,
       "buffer_bdp: sizes a buffer of 2^62 B or more"},
      {"link2_delay = \"20ms\"", "cbr = \"yes\"", 7, "true or false"},
  };
  for (const Case& c : cases) {
    std::string text = kBase;
    text.replace(text.find(c.find), std::string(c.find).size(), c.replace);
    const SpecError oor = error_of([&] { load(text).validate(); });
    EXPECT_EQ(oor.file(), "test.toml") << c.replace;
    EXPECT_EQ(oor.line(), c.line) << c.replace;
    EXPECT_NE(std::string(oor.what()).find(c.message), std::string::npos)
        << c.replace << ": " << oor.what();
  }
}

TEST(SpecValidation, UnknownKeyRejected) {
  Scenario s = load(std::string(kBase) + "typo_key = 1\n");
  const SpecError e = error_of([&] { s.validate(); });
  EXPECT_NE(std::string(e.what()).find("unknown key 'typo_key'"),
            std::string::npos);
}

// The legacy wireless rate-schedule keys are gone ([faults] replaces
// them): they now fail like any other unknown key, at their own line.
TEST(SpecValidation, LegacyWirelessScheduleKeyRejected) {
  Scenario s = Scenario::from_string(
      "[topology]\nkind = \"wireless\"\n"
      "wifi_schedule = [\"9min:0bps\"]\n"
      "[algorithm]\nkind = \"mptcp\"\n"
      "[traffic]\nkind = \"persistent\"\n"
      "[run]\nwarmup = \"1s\"\nmeasure = \"1s\"\n",
      "legacy.toml");
  const SpecError e = error_of([&] { s.validate(); });
  EXPECT_EQ(e.line(), 3);
  EXPECT_NE(std::string(e.what()).find(
                "legacy.toml:3: unknown key 'wifi_schedule' in [topology]"),
            std::string::npos);
}

// Without linkN_loss, buffer_bdp or cbr, a two_link topology
// builds its six classic elements in their classic order and nothing else:
// event order, and so every golden built on it, depends on the order ids.
TEST(SpecValidation, TwoLinkWithoutOptionalKeysBuildsClassicElements) {
  const Spec spec = Spec::parse_string(kBase, "test.toml");
  const Section& s = spec.require_section("topology");
  EventList events;
  topo::Network net(events);
  auto built = builtin_registry().topology("two_link", s)(net, s, BuildEnv{});
  Rng rng(1);
  std::vector<std::string> names;
  std::vector<std::uint32_t> ids;
  for (const auto& [fwd, rev] : built->flow_paths(0, 2, rng)) {
    for (const topo::Path* path : {&fwd, &rev}) {
      for (net::PacketSink* hop : *path) {
        names.push_back(hop->sink_name());
        ids.push_back(dynamic_cast<EventSource&>(*hop).order_id());
      }
    }
  }
  EXPECT_EQ(names, (std::vector<std::string>{"link1/q", "link1/p",
                                             "link1/ack", "link2/q",
                                             "link2/p", "link2/ack"}));
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(events.alloc_order_id(), 7u);  // no hidden source was built
  EXPECT_EQ(net.fault_targets().known_names(), "link1/q, link2/q");
}

TEST(SpecValidation, UnknownTopologyKindRejected) {
  std::string text = kBase;
  const std::size_t pos = text.find("\"two_link\"");
  text.replace(pos, 10, "\"ring\"");
  EXPECT_THROW(load(text).validate(), SpecError);
}

TEST(SpecValidation, UnknownMetricRejected) {
  Scenario s = load(std::string(kBase) +
                    "\n[output]\nmetrics = [\"bogus\"]\n");
  const SpecError e = error_of([&] { s.validate(); });
  EXPECT_NE(std::string(e.what()).find("unknown metric 'bogus'"),
            std::string::npos);
}

TEST(SpecValidation, MalformedLossRatioRejected) {
  Scenario s = load(std::string(kBase) +
                    "\n[output]\nmetrics = [\"loss_ratio:a:b\"]\n");
  EXPECT_THROW(s.validate(), SpecError);
}

TEST(SpecValidation, MutuallyExclusiveFlowForms) {
  std::string text = kBase;
  const std::size_t pos = text.find("count = 1");
  text.insert(pos, "flows = [\"0+1\"]\n");
  const SpecError e = error_of([&] { load(text).validate(); });
  EXPECT_NE(std::string(e.what()).find("mutually exclusive"),
            std::string::npos);
}

TEST(SpecValidation, MutuallyExclusiveStartForms) {
  std::string text = kBase;
  const std::size_t pos = text.find("count = 1");
  text.insert(pos, "starts = [\"0s\"]\nstagger = \"10ms\"\n");
  const SpecError e = error_of([&] { load(text).validate(); });
  EXPECT_NE(std::string(e.what()).find("mutually exclusive"),
            std::string::npos);
}

TEST(SweepExpansion, EmptyAxisRejected) {
  Scenario s =
      load(std::string(kBase) + "\n[sweep]\ntraffic.subflows = []\n");
  const SpecError e = error_of([&] { s.expand(); });
  EXPECT_NE(std::string(e.what()).find("no values"), std::string::npos);
}

TEST(SweepExpansion, UnknownSectionRejected) {
  Scenario s = load(std::string(kBase) + "\n[sweep]\nnosuch.key = [1]\n");
  EXPECT_THROW(s.expand(), SpecError);
}

TEST(SweepExpansion, KeyNotPresentRejected) {
  // A sweep axis must name an existing key so a typo cannot silently
  // sweep nothing.
  Scenario s = load(std::string(kBase) + "\n[sweep]\ntraffic.cuont = [1]\n");
  const SpecError e = error_of([&] { s.expand(); });
  EXPECT_NE(std::string(e.what()).find("not present"), std::string::npos);
}

TEST(SweepExpansion, UndottedAxisRejected) {
  Scenario s = load(std::string(kBase) + "\n[sweep]\nsubflows = [1]\n");
  const SpecError e = error_of([&] { s.expand(); });
  EXPECT_NE(std::string(e.what()).find("section.key"), std::string::npos);
}

TEST(SweepExpansion, BadSeedsRejected) {
  EXPECT_THROW(load(std::string(kBase) + "seeds = [1.5]\n").expand(),
               SpecError);
  EXPECT_THROW(load(std::string(kBase) + "seeds = [-1]\n").expand(),
               SpecError);
  EXPECT_THROW(load(std::string(kBase) + "seeds = []\n").expand(),
               SpecError);
}

TEST(SweepExpansion, GridOrderAndNames) {
  Scenario s = load(std::string(kBase) +
                    "seeds = [7, 8]\n"
                    "\n[sweep]\n"
                    "algorithm.kind = [\"mptcp\", \"ewtcp\"]\n"
                    "traffic.subflows = [1, 2]\n");
  const auto runs = s.expand();
  ASSERT_EQ(runs.size(), 8u);  // 2 x 2 axes, 2 seeds

  // First axis slowest, seeds innermost.
  EXPECT_EQ(runs[0].name, "test/algorithm.kind=mptcp,traffic.subflows=1/s7");
  EXPECT_EQ(runs[1].name, "test/algorithm.kind=mptcp,traffic.subflows=1/s8");
  EXPECT_EQ(runs[2].name, "test/algorithm.kind=mptcp,traffic.subflows=2/s7");
  EXPECT_EQ(runs[4].name, "test/algorithm.kind=ewtcp,traffic.subflows=1/s7");
  EXPECT_EQ(runs[7].name, "test/algorithm.kind=ewtcp,traffic.subflows=2/s8");

  // The machine-readable spec echo matches the substituted values.
  ASSERT_EQ(runs[0].point.size(), 3u);
  EXPECT_EQ(runs[0].point[0],
            (std::pair<std::string, std::string>{"algorithm.kind", "mptcp"}));
  EXPECT_EQ(runs[0].point[1],
            (std::pair<std::string, std::string>{"traffic.subflows", "1"}));
  EXPECT_EQ(runs[0].point[2],
            (std::pair<std::string, std::string>{"seed", "7"}));

  // Substitution actually landed in the copied spec.
  EXPECT_EQ(runs[4].spec.require_section("algorithm").get_string("kind"),
            "ewtcp");
  EXPECT_EQ(runs[4].spec.require_section("traffic").get_int("subflows"), 1);

  // Every grid point still dry-builds.
  EXPECT_NO_THROW(s.validate());
}

TEST(SweepExpansion, ScalarAxisActsAsSingleValue) {
  Scenario s = load(std::string(kBase) +
                    "\n[sweep]\ntraffic.subflows = 1\n");
  const auto runs = s.expand();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].name, "test/traffic.subflows=1");
}

}  // namespace
}  // namespace mpsim::scenario
