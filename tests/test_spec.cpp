// The shared DOOC_* spec grammar (common/spec) and the five grammars built
// on it: hostile inputs, whitespace, a seeded mutation sweep over the
// documented examples, and the documented key tables.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fault/fault_plan.hpp"
#include "jobs/job_manager.hpp"
#include "obs/telemetry.hpp"
#include "spmv/codec.hpp"
#include "storage/types.hpp"

using namespace dooc;

namespace {

/// Every grammar by its variable name. The fault plan is also constructed,
/// so a config parse() accepts can never be one the plan rejects.
const std::map<std::string, std::function<void(const std::string&)>>& parsers() {
  static const std::map<std::string, std::function<void(const std::string&)>> kParsers = {
      {"DOOC_FAULTS",
       [](const std::string& s) { fault::FaultPlan plan(fault::FaultPlan::parse(s)); }},
      {"DOOC_JOBS", [](const std::string& s) { (void)jobs::JobManagerConfig::parse(s); }},
      {"DOOC_CODEC", [](const std::string& s) { (void)spmv::codec::CodecConfig::parse(s); }},
      {"DOOC_TELEMETRY",
       [](const std::string& s) { (void)obs::telemetry::TelemetryConfig::parse(s); }},
      {"DOOC_REPLICATION",
       [](const std::string& s) { (void)storage::ReplicationConfig::parse(s); }},
  };
  return kParsers;
}

std::string operations_md() {
  std::ifstream in(std::string(DOOC_SOURCE_DIR) + "/docs/OPERATIONS.md");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// `VAR="spec"` / `VAR=spec` examples for the five grammars in OPERATIONS.md.
std::vector<std::pair<std::string, std::string>> documented_examples() {
  static const std::regex kExample(
      R"re((DOOC_(?:FAULTS|JOBS|CODEC|TELEMETRY|REPLICATION))=(?:"([^"]*)"|([\w.,=:@+]*\w)))re");
  std::vector<std::pair<std::string, std::string>> out;
  const std::string doc = operations_md();
  for (auto it = std::sregex_iterator(doc.begin(), doc.end(), kExample);
       it != std::sregex_iterator(); ++it) {
    out.emplace_back((*it)[1], (*it)[2].matched ? (*it)[2].str() : (*it)[3].str());
  }
  return out;
}

std::string error_of(const std::string& env, const std::string& spec) {
  try {
    parsers().at(env)(spec);
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

}  // namespace

TEST(SpecGrammar, HostileInputsAreRejectedWithTheKeyNamed) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      // Each of these used to parse into something other than what it says.
      {"DOOC_FAULTS", "read_error=0.5junk"},
      {"DOOC_FAULTS", "retries=3x"},
      {"DOOC_FAULTS", "retries=-5"},
      {"DOOC_FAULTS", "seed=-1"},
      {"DOOC_FAULTS", "down=1@-1"},
      {"DOOC_FAULTS", "latency=0.1:-5ms"},
      {"DOOC_FAULTS", "backoff=10ms:1ms"},
      {"DOOC_FAULTS", "deadline=nan"},
      {"DOOC_FAULTS", "read_error=1.5"},
      {"DOOC_FAULTS", "retries=0"},
      {"DOOC_FAULTS", "deadline=inf"},
      {"DOOC_FAULTS", "latency=2:5ms"},
      {"DOOC_FAULTS", "down=1@5+-3"},
      {"DOOC_FAULTS", "down=-2@5"},
      {"DOOC_JOBS", "active=1e2"},
      {"DOOC_JOBS", "queued=99999999999"},
      {"DOOC_CODEC", "min_ratio=inf"},
      {"DOOC_CODEC", "shuffle=yes"},
      {"DOOC_CODEC", "read_ahead=65"},
      {"DOOC_TELEMETRY", "interval=1e3"},
      {"DOOC_TELEMETRY", "zscore=nan"},
      {"DOOC_REPLICATION", "max_replicas=2.5"},
      {"DOOC_REPLICATION", "decay=0x10"},
  };
  for (const auto& [env, spec] : cases) {
    const std::string key = spec.substr(0, spec.find('='));
    EXPECT_EQ(error_of(env, spec).rfind(env + ": " + key + " wants ", 0), 0u)
        << env << "=" << spec << " -> '" << error_of(env, spec) << "'";
  }
}

TEST(SpecGrammar, UnknownKeysListTheKnownOnes) {
  EXPECT_EQ(error_of("DOOC_JOBS", "zz=1"), "DOOC_JOBS: unknown key 'zz' (known: active, queued)");
  EXPECT_EQ(error_of("DOOC_REPLICATION", "=5"),
            "DOOC_REPLICATION: unknown key '' (known: mode, hot_threshold, max_replicas, decay)");
}

TEST(SpecGrammar, BareTokensOnlyWhereTheGrammarHasOne) {
  EXPECT_EQ(error_of("DOOC_FAULTS", "read_error"),
            "DOOC_FAULTS: read_error wants a value (key=value), got 'read_error'");
  EXPECT_EQ(error_of("DOOC_CODEC", "sideways"),
            "DOOC_CODEC: mode wants one of off|on|adaptive, got 'sideways'");
  EXPECT_NE(error_of("DOOC_TELEMETRY", "interval=5,off"), "") << "bare token past position 0";
}

TEST(SpecGrammar, WhitespaceIsAcceptedInEveryGrammar) {
  const fault::FaultConfig f = fault::FaultPlan::parse(
      " seed = 7 ,\tread_error=0.05 , latency = 0.1:5ms , down = 1@40+10 ");
  EXPECT_EQ(f.seed, 7u);
  EXPECT_DOUBLE_EQ(f.read_error_rate, 0.05);
  EXPECT_DOUBLE_EQ(f.latency_s, 0.005);
  ASSERT_EQ(f.outages.size(), 1u);
  EXPECT_EQ(f.outages[0].duration_ops, 10u);

  const auto j = jobs::JobManagerConfig::parse(" active = 2 ,\tqueued=8 ");
  EXPECT_EQ(j.max_active, 2);
  EXPECT_EQ(j.max_queued, 8);

  const auto c = spmv::codec::CodecConfig::parse("on, read_ahead=2");
  EXPECT_EQ(c.mode, spmv::codec::Mode::On);
  EXPECT_EQ(c.read_ahead, 2);

  const auto t = obs::telemetry::TelemetryConfig::parse("\ton , interval = 100 ");
  EXPECT_TRUE(t.enabled);
  EXPECT_EQ(t.interval_ms, 100);
  EXPECT_FALSE(obs::telemetry::TelemetryConfig::parse(" , ").enabled)
      << "a spec with no token in it is the empty spec";

  const auto r = storage::ReplicationConfig::parse(" off ,max_replicas= 2 ");
  EXPECT_FALSE(r.enabled);
  EXPECT_EQ(r.max_replicas, 2);
}

TEST(SpecGrammar, RepeatedKeysLastOneWinsAndDownAccumulates) {
  EXPECT_EQ(jobs::JobManagerConfig::parse("active=1,active=3").max_active, 3);
  EXPECT_EQ(fault::FaultPlan::parse("down=0@1,down=1@2").outages.size(), 2u);
}

TEST(SpecGrammar, DocumentedExamplesParse) {
  const auto examples = documented_examples();
  ASSERT_GE(examples.size(), 8u) << "OPERATIONS.md examples not found";
  for (const auto& [env, spec] : examples) {
    EXPECT_NO_THROW(parsers().at(env)(spec)) << env << "=" << spec;
  }
}

TEST(SpecGrammar, MutatedExamplesParseOrThrowInvalidArgument) {
  const auto examples = documented_examples();
  ASSERT_FALSE(examples.empty());
  static const std::string kAlphabet = ",=:@+-. \t0123456789eEinfamsux\xff";
  SplitMix64 rng(12);
  int parsed = 0;
  int rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const auto& [env, example] = examples[rng.next_below(examples.size())];
    std::string s = example;
    for (std::uint64_t m = 1 + rng.next_below(3); m > 0; --m) {
      const std::size_t pos = rng.next_below(s.size() + 1);
      const char ch = kAlphabet[rng.next_below(kAlphabet.size())];
      switch (rng.next_below(5)) {
        case 0: if (pos < s.size()) s.erase(pos, 1); break;
        case 1: s.insert(pos, 1, ch); break;
        case 2: if (pos < s.size()) s[pos] = ch; break;
        case 3: s.insert(pos, s.substr(rng.next_below(s.size() + 1), 6)); break;
        default: s.resize(pos); break;
      }
    }
    try {
      parsers().at(env)(s);
      ++parsed;
    } catch (const InvalidArgument& e) {
      ++rejected;
      EXPECT_EQ(std::string(e.what()).rfind(env + ": ", 0), 0u) << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << env << "='" << s << "' threw a non-InvalidArgument: " << e.what();
    }
  }
  EXPECT_GT(parsed, 100) << "mutations too destructive to reach the readers";
  EXPECT_GT(rejected, 100);
}

TEST(SpecGrammar, OperationsTablesListExactlyTheKnownKeys) {
  const std::string doc = operations_md();
  for (const auto& [env, parse] : parsers()) {
    const std::size_t at = doc.find("### `" + env + "=<spec>`");
    ASSERT_NE(at, std::string::npos) << env << " has no section";
    const std::size_t end = doc.find("\n### ", at + 1);
    std::set<std::string> documented;
    std::istringstream section(doc.substr(at, end - at));
    for (std::string line; std::getline(section, line);) {
      if (line.rfind("| `", 0) == 0) documented.insert(line.substr(3, line.find('=') - 3));
    }
    const std::string err = error_of(env, "zz=1");
    const std::size_t known = err.find("(known: ");
    ASSERT_NE(known, std::string::npos) << err;
    std::set<std::string> parsed;
    std::istringstream list(err.substr(known + 8, err.size() - known - 9));
    for (std::string key; std::getline(list >> std::ws, key, ',');) parsed.insert(key);
    EXPECT_EQ(documented, parsed) << env;
  }
}
