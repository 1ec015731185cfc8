// Hostile-locale regression suite (mirrors the PR 8 persistence locale
// tests): the FaultSpec grammar, the test-support JSON parser and the
// observability JSON number formatter must be immune to a comma-decimal
// LC_NUMERIC. The pre-fix code routed numbers
// through std::strtod, which reads the C locale — under de_DE-style
// LC_NUMERIC it stops parsing "0.1" at the '.', so a valid `--faults
// dvfs=0.1` was rejected as malformed.
//
// The C-locale half needs a real comma-decimal locale, not a C++ facet
// (std::locale::global with an unnamed facet locale never touches
// setlocale). Containers often ship only C/POSIX, so the fixture compiles
// de_DE.UTF-8 with localedef into a temp directory and points LOCPATH at
// it; when neither an installed candidate nor localedef works, the C-locale
// tests skip rather than silently pass.
#include "fault/fault_spec.hpp"
#include "obs/json.hpp"
#include "support/json_parser.hpp"
#include "util/numeric.hpp"

#include <gtest/gtest.h>

#include <clocale>
#include <cstdlib>
#include <locale>
#include <string>

namespace powerlens::fault {
namespace {

// Swaps LC_NUMERIC to a comma-decimal locale for one scope; restores on
// destruction. hostile() reports whether activation actually succeeded.
class HostileNumericLocale {
 public:
  HostileNumericLocale() {
    previous_ = std::setlocale(LC_NUMERIC, nullptr);
    static const char* const kCandidates[] = {
        "de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8", "de_DE"};
    for (const char* name : kCandidates) {
      if (std::setlocale(LC_NUMERIC, name) != nullptr && comma_decimal()) {
        hostile_ = true;
        return;
      }
    }
    // No comma-decimal locale installed: compile one. glibc honours LOCPATH
    // when resolving locale names, so a localedef output directory works
    // without touching the system locale archive.
    const std::string dir = "/tmp/powerlens_locale_regression";
    const std::string cmd = "mkdir -p " + dir +
                            " && localedef -i de_DE -f UTF-8 " + dir +
                            "/de_DE.UTF-8 >/dev/null 2>&1";
    if (std::system(cmd.c_str()) == 0) {
      ::setenv("LOCPATH", dir.c_str(), 1);
      locpath_set_ = true;
      if (std::setlocale(LC_NUMERIC, "de_DE.UTF-8") != nullptr &&
          comma_decimal()) {
        hostile_ = true;
        return;
      }
    }
    restore();
  }
  ~HostileNumericLocale() { restore(); }
  HostileNumericLocale(const HostileNumericLocale&) = delete;
  HostileNumericLocale& operator=(const HostileNumericLocale&) = delete;

  bool hostile() const noexcept { return hostile_; }

 private:
  static bool comma_decimal() {
    const char* point = std::localeconv()->decimal_point;
    return point != nullptr && point[0] == ',';
  }
  void restore() {
    std::setlocale(LC_NUMERIC, previous_.c_str());
    if (locpath_set_) {
      ::unsetenv("LOCPATH");
      locpath_set_ = false;
    }
  }
  std::string previous_;
  bool hostile_ = false;
  bool locpath_set_ = false;
};

// The PR 8 facet guard: hostile C++ global locale (affects freshly created
// streams, not the C locale). Both guards together cover every numeric path
// a wire format could accidentally take.
class CommaDecimalPunct : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

class GlobalLocaleGuard {
 public:
  GlobalLocaleGuard()
      : previous_(std::locale::global(
            std::locale(std::locale::classic(), new CommaDecimalPunct))) {}
  ~GlobalLocaleGuard() { std::locale::global(previous_); }
  GlobalLocaleGuard(const GlobalLocaleGuard&) = delete;
  GlobalLocaleGuard& operator=(const GlobalLocaleGuard&) = delete;

 private:
  std::locale previous_;
};

TEST(LocaleRegressionTest, FaultSpecParsesUnderCommaDecimalLcNumeric) {
  HostileNumericLocale hostile;
  if (!hostile.hostile()) {
    GTEST_SKIP() << "no comma-decimal locale available (setlocale and "
                    "localedef both failed)";
  }
  // Sanity: the locale really is hostile to strtod.
  char* end = nullptr;
  const double probe = std::strtod("0.5", &end);
  ASSERT_EQ(probe, 0.0) << "locale did not change strtod decimal parsing";
  ASSERT_EQ(end - "0.5", 1);

  const FaultSpec spec = FaultSpec::parse(
      "dvfs=0.1,sticky=0.25,thermal=0.05,thermal_s=0.5,latency=0.02,"
      "latency_x=2.5,seed=7");
  EXPECT_DOUBLE_EQ(spec.dvfs_fail_rate, 0.1);
  EXPECT_DOUBLE_EQ(spec.dvfs_sticky_s, 0.25);
  EXPECT_DOUBLE_EQ(spec.thermal_rate_hz, 0.05);
  EXPECT_DOUBLE_EQ(spec.thermal_duration_s, 0.5);
  EXPECT_DOUBLE_EQ(spec.latency_rate, 0.02);
  EXPECT_DOUBLE_EQ(spec.latency_factor, 2.5);
  EXPECT_EQ(spec.seed, 7u);
  // Malformed input still fails loudly — locale immunity must not mean
  // accepting junk.
  EXPECT_THROW(FaultSpec::parse("dvfs=abc"), std::invalid_argument);
}

TEST(LocaleRegressionTest, FaultSpecRoundTripsUnderHostileLocales) {
  HostileNumericLocale hostile_c;
  GlobalLocaleGuard hostile_cpp;
  FaultSpec spec;
  spec.dvfs_fail_rate = 0.1;
  spec.dvfs_sticky_s = 0.25;
  spec.latency_rate = 0.5;
  spec.latency_factor = 1.75;
  spec.seed = 42;
  // to_string must emit classic-locale numbers ("0.1", never "0,1") and
  // parse must read them back exactly, whatever the process locale.
  const std::string text = spec.to_string();
  EXPECT_EQ(text.find(','), text.find("dvfs") - 1)
      << "separator commas only — a decimal comma leaked into: " << text;
  const FaultSpec round = FaultSpec::parse(text);
  EXPECT_DOUBLE_EQ(round.dvfs_fail_rate, spec.dvfs_fail_rate);
  EXPECT_DOUBLE_EQ(round.dvfs_sticky_s, spec.dvfs_sticky_s);
  EXPECT_DOUBLE_EQ(round.latency_rate, spec.latency_rate);
  EXPECT_DOUBLE_EQ(round.latency_factor, spec.latency_factor);
  EXPECT_EQ(round.seed, spec.seed);
}

TEST(LocaleRegressionTest, JsonParserReadsNumbersUnderCommaDecimalLcNumeric) {
  HostileNumericLocale hostile;
  if (!hostile.hostile()) {
    GTEST_SKIP() << "no comma-decimal locale available";
  }
  // The other audited strtod site: the test-support JSON parser every
  // observability suite reads exports through.
  using test_support::JsonParser;
  using test_support::JsonValue;
  const JsonValue root =
      JsonParser("{\"x\": 1.5, \"y\": -2.25e-3, \"z\": 10}").parse();
  EXPECT_DOUBLE_EQ(root.object().at("x").number(), 1.5);
  EXPECT_DOUBLE_EQ(root.object().at("y").number(), -2.25e-3);
  EXPECT_DOUBLE_EQ(root.object().at("z").number(), 10.0);
}

TEST(LocaleRegressionTest, JsonNumbersKeepTheDecimalPointUnderCommaLcNumeric) {
  HostileNumericLocale hostile;
  if (!hostile.hostile()) {
    GTEST_SKIP() << "no comma-decimal locale available";
  }
  // printf reads LC_NUMERIC; the number formatter behind the journal,
  // residual, report and metrics exports must not, or "0,5" would split
  // one JSON value in two.
  EXPECT_EQ(obs::json_number(0.5), "0.5");
  EXPECT_EQ(obs::json_number(-2.25e-3), "-0.00225");
  EXPECT_EQ(obs::json_number(1e300), "1e+300");
  EXPECT_EQ(obs::JsonWriter().field("x", 1.5).str(), "{\"x\": 1.5}");
}

TEST(LocaleRegressionTest, ParseDoubleHelperIsStrictAndLocaleFree) {
  HostileNumericLocale hostile_c;
  GlobalLocaleGuard hostile_cpp;
  double v = 0.0;
  EXPECT_TRUE(util::parse_double("0.125", v));
  EXPECT_DOUBLE_EQ(v, 0.125);
  EXPECT_TRUE(util::parse_double("-1e-3", v));
  EXPECT_DOUBLE_EQ(v, -1e-3);
  // Whole-string discipline: trailing junk and empty input fail.
  EXPECT_FALSE(util::parse_double("0.5x", v));
  EXPECT_FALSE(util::parse_double("", v));
  EXPECT_FALSE(util::parse_double("0,5", v));
  // Formatting side: shortest round-trip, classic decimal point.
  EXPECT_EQ(util::format_double(0.1), "0.1");
  EXPECT_EQ(util::format_double(1.75), "1.75");
}

}  // namespace
}  // namespace powerlens::fault
