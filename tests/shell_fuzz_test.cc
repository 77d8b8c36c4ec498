// Robustness sweep over the shell line parser: every mutation of an
// every-verb script must come back from ExecuteLine — ok or error, never a
// crash or a hang — on a writable and on a read-only dispatcher, and the
// read-only one must leave the database's dump byte-identical whatever it
// is fed.

#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/failpoint.h"
#include "obs/history.h"
#include "persist/dump.h"
#include "shell/dispatcher.h"
#include "util/string_util.h"

namespace caddb {
namespace shell {
namespace {

/// Every verb, most subverbs, and the argument shapes the helpers parse
/// (refs, numbers, roles, values, flags). Paths are relative: the suite runs
/// in its own scratch directory, so a mutated `dump` writes nowhere else.
constexpr const char* kScript = R"(schema <<<
obj-type Box = attributes: W, H: integer; end Box;
rel-type Wire = relates: A, B: object-of-type Box; end Wire;
obj-type Asm = types-of-subclasses: Parts: Box;
  types-of-subrels: Wires: Wire; end Asm;
inher-rel-type R = transmitter: object-of-type Box;
  inheritor: object; inheriting: W; end R;
obj-type Impl = inheritor-in: R; end Impl;
>>>
class boxes Box
create Box boxes
set @1 W i:3
set @1 H i:4
create Asm
sub @2 Parts
rel Wire A=@1 B=@3
subrel @2 Wires A=@1,@3 B=@3
create Impl
bind @6 @1 R
get @6 W
set @1 W i:5
set @1 H s:"a quoted value"
pending @6
ack @6
members @2 Parts
holds @1 W * H = 20
expand @2
expand @2 1
expand-dot @2 2
components @2
where-used @1
select Box W H where W > 2
select boxes W
print-schema
check
check schema --format=json
check store --repair
check @1
check-deep @2
check-all
check disk
violations
stats --format=json
metrics --format=prom
metrics --watch --window=1000 --format=json
fault list --format=json
fault arm wal.checkpoint.publish error --times=1
fault disarm --all
trace on
trace threshold 5
trace dump --slow-only --format=json
trace off
log tail 3 --format=json
log level warn
log
cache reset-stats
cache
dump fuzz.cdb
load fuzz.cdb
schema-file fuzz.ddl
wal status --format=json
checkpoint
storage status
server status
ship replica
replica status --format=json
replica poll
echo done
unbind @6
delete @3 detach
quit
)";

/// Substitutes for a number or an @ref: signs, trailing junk, overflow,
/// empties and bases the helpers must reject.
const char* const kEdgeTokens[] = {
    "@",   "@-1",  "@+1", "@0",   "@18446744073709551615",
    "@18446744073709551616", "@1x", "@0x1", "-1", "+5", "0",
    "99999999999999999999", "5ms", "1e3", "2147483648", "--window=-5",
    "\"",  "=",    ",",   "<<<",  ">>>", "where", "--format=", "#"};

std::string DeleteSlice(const std::string& text, std::mt19937* rng) {
  if (text.size() < 4) return text;
  size_t start = (*rng)() % text.size();
  size_t len = 1 + (*rng)() % std::min<size_t>(30, text.size() - start);
  std::string out = text;
  out.erase(start, len);
  return out;
}

std::string FlipChar(const std::string& text, std::mt19937* rng) {
  if (text.empty()) return text;
  std::string out = text;
  out[(*rng)() % out.size()] = static_cast<char>(' ' + (*rng)() % ('~' - ' '));
  return out;
}

std::string DuplicateSlice(const std::string& text, std::mt19937* rng) {
  if (text.size() < 4) return text;
  size_t start = (*rng)() % text.size();
  size_t len = 1 + (*rng)() % std::min<size_t>(60, text.size() - start);
  std::string out = text;
  out.insert(start, text.substr(start, len));
  return out;
}

std::string StrayQuote(const std::string& text, std::mt19937* rng) {
  std::string out = text;
  out.insert((*rng)() % (out.size() + 1), 1, '"');
  return out;
}

/// Replaces one @ref or number (the digits run at a random position) with
/// an edge token.
std::string EdgeToken(const std::string& text, std::mt19937* rng) {
  std::vector<size_t> starts;
  for (size_t i = 0; i < text.size(); ++i) {
    const char prev = i > 0 ? text[i - 1] : ' ';
    const bool digit_run_start =
        std::isdigit(static_cast<unsigned char>(text[i])) &&
        !std::isdigit(static_cast<unsigned char>(prev)) && prev != '@';
    if (text[i] == '@' || digit_run_start) starts.push_back(i);
  }
  if (starts.empty()) return text;
  size_t start = starts[(*rng)() % starts.size()];
  size_t end = start + 1;
  while (end < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[end]))) {
    ++end;
  }
  std::string out = text;
  out.replace(start, end - start,
              kEdgeTokens[(*rng)() % std::size(kEdgeTokens)]);
  return out;
}

std::string Mutate(std::string text, std::mt19937* rng) {
  const int mutations = 1 + static_cast<int>((*rng)() % 4);
  for (int m = 0; m < mutations; ++m) {
    switch ((*rng)() % 5) {
      case 0:
        text = DeleteSlice(text, rng);
        break;
      case 1:
        text = FlipChar(text, rng);
        break;
      case 2:
        text = DuplicateSlice(text, rng);
        break;
      case 3:
        text = StrayQuote(text, rng);
        break;
      default:
        text = EdgeToken(text, rng);
        break;
    }
  }
  return text;
}

/// Feeds every line, past `quit` too: each must return.
size_t Feed(Dispatcher* dispatcher, const std::string& script) {
  std::ostringstream out;
  for (const std::string& line : Split(script, '\n')) {
    dispatcher->ExecuteLine(line, out);
  }
  return dispatcher->error_count();
}

/// Two samples and a running (idle) snapshotter: `metrics --watch` answers
/// from the ring instead of sleeping for inline samples.
void FillHistory(Database* db) {
  obs::MetricsHistory& history = db->observability()->history;
  history.Tick();
  history.Tick();
  history.Start(60000);
}

std::string DumpOf(const Database& db) {
  Result<std::string> dump = persist::Dumper::Dump(db);
  EXPECT_TRUE(dump.ok()) << dump.status().ToString();
  return dump.ok() ? *dump : "";
}

class ShellFuzzTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  static void SetUpTestSuite() {
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "shell_fuzz";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::filesystem::current_path(dir);
  }

  void TearDown() override { fault::FailpointRegistry::Global().DisarmAll(); }
};

TEST_P(ShellFuzzTest, MutatedScriptsReturnAndReadOnlyChangesNothing) {
  std::mt19937 rng(GetParam());
  size_t errors = 0;
  for (int round = 0; round < 150; ++round) {
    const std::string script = Mutate(kScript, &rng);

    // Writable: anything may happen to the database, but every line returns.
    Database writable;
    FillHistory(&writable);
    Dispatcher writer(&writable);
    errors += Feed(&writer, script);
    writable.observability()->history.Stop();
    fault::FailpointRegistry::Global().DisarmAll();

    // Read-only over a populated database: the dump stays byte-identical.
    Database populated;
    FillHistory(&populated);
    Dispatcher seeder(&populated);
    Feed(&seeder, kScript);
    const std::string before = DumpOf(populated);
    Dispatcher reader(&populated);
    reader.set_read_only(true);
    errors += Feed(&reader, script);
    populated.observability()->history.Stop();
    EXPECT_EQ(DumpOf(populated), before) << "round " << round << ":\n"
                                          << script;
  }
  // The sweep must provoke errors to be meaningful.
  EXPECT_GT(errors, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShellFuzzTest,
                         ::testing::Values(3u, 17u, 134u, 2026u));

}  // namespace
}  // namespace shell
}  // namespace caddb
