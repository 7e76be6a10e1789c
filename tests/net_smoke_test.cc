// Multi-process smoke test: spawns the real dssj_cli coordinator plus
// dssj_worker processes over localhost TCP and requires the printed result
// set to be byte-identical to the single-process run — including a run with
// a scripted mid-stream link disconnect and a remote task kill recovered
// via checkpoint/replay, and one over a corpus with binary-garbage lines.
// This is the only test that exercises the actual binaries and fork/exec
// path; net_transport_test covers the same stack in-process.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/transport.h"

#ifndef DSSJ_CLI_BIN
#error "build must define DSSJ_CLI_BIN"
#endif
#ifndef DSSJ_WORKER_BIN
#error "build must define DSSJ_WORKER_BIN"
#endif

namespace dssj {
namespace {

/// Deterministic corpus with heavy near-duplicate structure: every line
/// draws words from a small vocabulary by LCG, and every third line mutates
/// the line three back.
std::string WriteCorpus(const std::string& path, int lines) {
  static const char* kWords[] = {"alpha", "bravo", "charlie", "delta",  "echo",  "foxtrot",
                                 "golf",  "hotel", "india",   "juliet", "kilo",  "lima",
                                 "mike",  "nov",   "oscar",   "papa",   "quebec", "romeo"};
  constexpr int kVocab = sizeof(kWords) / sizeof(kWords[0]);
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(state >> 33);
  };
  std::vector<std::string> all;
  all.reserve(lines);
  for (int i = 0; i < lines; ++i) {
    std::string line;
    if (i >= 3 && i % 3 == 0) {
      line = all[i - 3];  // near-duplicate: partner for the join
      line += ' ';
      line += kWords[next() % kVocab];
    } else {
      const int n = 3 + static_cast<int>(next() % 8);
      for (int w = 0; w < n; ++w) {
        if (w > 0) line += ' ';
        line += kWords[next() % kVocab];
      }
    }
    all.push_back(line);
  }
  std::ofstream out(path);
  for (const std::string& line : all) out << line << '\n';
  return path;
}

/// Deterministic corpus in which every 20th line is 5-300 random bytes
/// (anything but '\n'). The rest draw 3-10 words from a 400-word
/// vocabulary, and every third line extends the line three back by one
/// word, so garbage lines have near-duplicates too.
std::string WriteGarbageCorpus(const std::string& path, int lines) {
  uint64_t state = 0x243f6a8885a308d3ull;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(state >> 33);
  };
  const auto word = [&next] { return std::string("w").append(std::to_string(next() % 400)); };
  std::vector<std::string> all;
  all.reserve(lines);
  for (int i = 0; i < lines; ++i) {
    std::string line;
    if (i % 20 == 19) {
      const int n = 5 + static_cast<int>(next() % 296);
      for (int b = 0; b < n; ++b) {
        const char c = static_cast<char>(next() & 0xff);
        line += c == '\n' ? ' ' : c;
      }
    } else if (i >= 3 && i % 3 == 0) {
      line = all[i - 3];
      line.append(1, ' ').append(word());
    } else {
      const int n = 3 + static_cast<int>(next() % 8);
      for (int w = 0; w < n; ++w) line.append(w > 0 ? " " : "").append(word());
    }
    all.push_back(std::move(line));
  }
  std::ofstream out(path, std::ios::binary);
  for (const std::string& line : all) out << line << '\n';
  return path;
}

/// fork/execs `argv`, redirecting stdout+stderr to `output_path`.
pid_t Spawn(const std::vector<std::string>& argv, const std::string& output_path) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  FILE* out = std::fopen(output_path.c_str(), "w");
  if (out != nullptr) {
    ::dup2(fileno(out), STDOUT_FILENO);
    ::dup2(fileno(out), STDERR_FILENO);
  }
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) cargv.push_back(const_cast<char*>(arg.c_str()));
  cargv.push_back(nullptr);
  ::execv(cargv[0], cargv.data());
  std::perror("execv");
  ::_exit(127);
}

int WaitFor(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Extracts the sorted "line X ~ line Y" result lines from CLI output —
/// the result set, independent of arrival order at the sink.
std::vector<std::string> PairLines(const std::string& output) {
  std::vector<std::string> pairs;
  std::stringstream in(output);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("line ", 0) == 0) pairs.push_back(line);
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

class NetSmokeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = WriteCorpus(::testing::TempDir() + "/net_smoke_corpus.txt", 150);
  }

  std::vector<std::string> BaseArgs(const char* bin) {
    return {bin, corpus_, threshold_, "--joiners=4", "--max-pairs=1000000"};
  }

  /// Runs single-process and 2-worker TCP with identical join flags and
  /// returns (reference pair lines, tcp pair lines) after asserting clean
  /// exits. `extra` is appended to every process's argv.
  void RunBoth(const std::vector<std::string>& extra, std::vector<std::string>* reference,
               std::vector<std::string>* tcp) {
    const std::string dir = ::testing::TempDir();

    std::vector<std::string> single = BaseArgs(DSSJ_CLI_BIN);
    single.insert(single.end(), extra.begin(), extra.end());
    const pid_t single_pid = Spawn(single, dir + "/single.out");
    ASSERT_EQ(WaitFor(single_pid), 0) << ReadFileOrEmpty(dir + "/single.out");
    *reference = PairLines(ReadFileOrEmpty(dir + "/single.out"));
    ASSERT_FALSE(reference->empty()) << "vacuous corpus";

    const std::vector<uint16_t> ports = net::PickFreePorts(2);
    if (ports.empty()) GTEST_SKIP() << "no localhost sockets available";
    const std::string cluster = "127.0.0.1:" + std::to_string(ports[0]) + ",127.0.0.1:" +
                                std::to_string(ports[1]);

    std::vector<std::string> worker = {DSSJ_WORKER_BIN, "--rank=1", "--transport=tcp",
                                       "--connect=" + cluster, "--joiners=4", threshold_};
    worker.insert(worker.end(), extra.begin(), extra.end());
    const pid_t worker_pid = Spawn(worker, dir + "/worker.out");

    std::vector<std::string> coord = BaseArgs(DSSJ_CLI_BIN);
    coord.push_back("--transport=tcp");
    coord.push_back("--connect=" + cluster);
    coord.insert(coord.end(), extra.begin(), extra.end());
    const pid_t coord_pid = Spawn(coord, dir + "/coord.out");

    const int coord_exit = WaitFor(coord_pid);
    const int worker_exit = WaitFor(worker_pid);
    ASSERT_EQ(coord_exit, 0) << ReadFileOrEmpty(dir + "/coord.out");
    ASSERT_EQ(worker_exit, 0) << ReadFileOrEmpty(dir + "/worker.out");
    *tcp = PairLines(ReadFileOrEmpty(dir + "/coord.out"));
  }

  std::string corpus_;
  std::string threshold_ = "--threshold=500";
};

TEST_F(NetSmokeTest, TwoWorkersMatchSingleProcess) {
  for (const char* batch : {"--batch_size=1", "--batch_size=64"}) {
    std::vector<std::string> reference, tcp;
    RunBoth({batch}, &reference, &tcp);
    if (::testing::Test::IsSkipped()) return;
    EXPECT_EQ(tcp, reference) << batch;
  }
}

TEST_F(NetSmokeTest, DisconnectAndRemoteKillRecoverExactly) {
  // joiner:1 lives on rank 1, so the kill and its checkpoint/replay recovery
  // happen in the worker process while the dispatcher's link to it is also
  // severed mid-stream for 20ms.
  std::vector<std::string> reference, tcp;
  RunBoth({"--fault_script=disconnect:dispatcher:0->joiner:1@50x20000; kill:joiner:1@30",
           "--checkpoint_interval=8"},
          &reference, &tcp);
  if (::testing::Test::IsSkipped()) return;
  EXPECT_EQ(tcp, reference);
}

// Binary-garbage lines cost the TCP path no pairs: the pair set over a
// corpus that is 5% random bytes matches the single-process run's.
TEST_F(NetSmokeTest, GarbageLinesMatchSingleProcess) {
  corpus_ = WriteGarbageCorpus(::testing::TempDir() + "/net_smoke_garbage.txt", 6000);
  threshold_ = "--threshold=800";
  std::vector<std::string> reference, tcp;
  RunBoth({}, &reference, &tcp);
  if (::testing::Test::IsSkipped()) return;
  EXPECT_EQ(tcp, reference);
}

// A malformed flag value, an out-of-range value or an unsupported
// combination is a usage error: both binaries exit 2 with a message naming
// the flag or the fault statement, never a CHECK abort (134) and never a
// silent default. Needs no sockets — every case fails before the transport
// starts.
TEST_F(NetSmokeTest, BadFlagsAreUsageErrors) {
  const std::string dir = ::testing::TempDir();
  const std::vector<std::string> cli = {DSSJ_CLI_BIN, corpus_};
  const std::vector<std::string> worker = {DSSJ_WORKER_BIN, "--rank=1", "--transport=tcp",
                                           "--connect=127.0.0.1:1,127.0.0.1:2"};
  const auto with = [](std::vector<std::string> argv, std::vector<std::string> extra) {
    argv.insert(argv.end(), extra.begin(), extra.end());
    return argv;
  };
  const struct {
    std::vector<std::string> argv;
    std::string expected;
  } cases[] = {
      {with(cli, {"--threshold=abc"}), "--threshold expects an integer"},
      {with(cli, {"--arrival_rate=fast"}), "--arrival_rate expects a number"},
      {with(cli, {"--elastic=maybe"}), "--elastic expects a boolean"},
      {with(cli, {"--local=bundle", "--strategy=prefix"}),
       "--local=bundle does not support --strategy=prefix"},
      {with(worker, {"--joiners=4x"}), "--joiners expects an integer"},
      // Out-of-range values that used to abort or run as if absent.
      {with(cli, {"--joiners=0"}), "--joiners must be >= 1"},
      {with(cli, {"--joiners=-2"}), "--joiners must be >= 1"},
      {with(worker, {"--joiners=0"}), "--joiners must be >= 1"},
      {with(cli, {"--threshold=0"}), "--threshold must be in [1, 1000]"},
      {with(cli, {"--threshold=-5"}), "--threshold must be in [1, 1000]"},
      {with(cli, {"--threshold=1001"}), "--threshold must be in [1, 1000]"},
      {with(worker, {"--threshold=1001"}), "--threshold must be in [1, 1000]"},
      {with(cli, {"--window=-3"}), "--window and --qgram must be >= 0"},
      {with(worker, {"--window=-3"}), "--window and --qgram must be >= 0"},
      {with(cli, {"--qgram=-1"}), "--window and --qgram must be >= 0"},
      {with(worker, {"--rank=2"}), "--rank must be below the --connect cluster size"},
      // Fault statements that parse but do not fit the join topology.
      {with(cli, {"--fault_script=kill:joiner:9@5"}),
       "kill joiner:9: task index 9 out of range for joiner"},
      {with(worker, {"--fault_script=kill:joiner:9@5"}),
       "kill joiner:9: task index 9 out of range for joiner"},
      {with(cli, {"--fault_script=kill:nosuch:0@5"}),
       "kill nosuch:0: unknown component 'nosuch'"},
      {with(cli, {"--fault_script=migrate:joiner:0->7@100"}),
       "migrate joiner:0->7: target 7 outside [0, 4)"},
      {with(cli, {"--fault_script=drop:joiner:0->dispatcher:0@3"}),
       "link joiner:0->dispatcher:0: joiner->dispatcher is not an edge"},
      {with(worker, {"--fault_script=migrate:joiner:1->0@5"}),
       "migrate joiner:1->0: kill_worker and migrate need a single-process topology"},
      {with(worker, {"--fault_script=drop:dispatcher:0->joiner:1@3"}),
       "link dispatcher:0->joiner:1: drop/dup must stay within one process"},
      // The deleted codec flag, and codec names that earlier versions
      // accepted.
      {with(cli, {"--wire_codec=delta"}), "unknown flag --wire_codec"},
      {with(cli, {"--wire_codec=delta-lz"}), "unknown flag --wire_codec"},
      {with(worker, {"--wire_codec=raw"}), "unknown flag --wire_codec"},
  };
  for (const auto& c : cases) {
    const pid_t pid = Spawn(c.argv, dir + "/usage.out");
    const int exit_code = WaitFor(pid);
    const std::string output = ReadFileOrEmpty(dir + "/usage.out");
    EXPECT_EQ(exit_code, 2) << c.expected << "\n" << output;
    EXPECT_NE(output.find(c.expected), std::string::npos) << output;
  }
}

}  // namespace
}  // namespace dssj
