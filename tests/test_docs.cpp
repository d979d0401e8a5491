// The documentation plane is part of the contract: docs/scenarios.md's
// catalogue table must mirror the live scenario registry (name, protocol,
// fault class, default n, default t — in registry order), and the docs the
// README links to must exist. These tests read the markdown from the source
// tree (LFT_SOURCE_DIR is injected by CMake), so a registry change that
// forgets the catalogue — or a doc rename that breaks links — fails CTest.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "forensics/replay.hpp"
#include "forensics/shrink.hpp"
#include "scenarios/scenarios.hpp"
#include "service/wire.hpp"

namespace lft {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string docs_path(const char* name) {
  return std::string(LFT_SOURCE_DIR) + "/docs/" + name;
}

/// One parsed row of the scenarios.md catalogue table.
struct DocRow {
  std::string name;
  std::string protocol;
  std::string fault;
  NodeId n = 0;
  std::int64_t t = 0;
};

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t`");
  const auto end = s.find_last_not_of(" \t`");
  if (begin == std::string::npos) return "";
  return s.substr(begin, end - begin + 1);
}

/// Extracts the catalogue rows: markdown table lines whose first cell is a
/// `code`-quoted scenario name.
std::vector<DocRow> parse_catalogue(const std::string& markdown) {
  std::vector<DocRow> rows;
  std::istringstream lines(markdown);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("| `", 0) != 0) continue;
    std::vector<std::string> cells;
    std::size_t pos = 1;  // skip the leading '|'
    while (pos < line.size()) {
      const std::size_t bar = line.find('|', pos);
      if (bar == std::string::npos) break;
      cells.push_back(trim(line.substr(pos, bar - pos)));
      pos = bar + 1;
    }
    if (cells.size() < 5) continue;
    DocRow row;
    row.name = cells[0];
    row.protocol = cells[1];
    row.fault = cells[2];
    row.n = static_cast<NodeId>(std::stol(cells[3]));
    row.t = std::stoll(cells[4]);
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(DocsScenarioCatalogue, MatchesLiveRegistryExactly) {
  const auto markdown = read_file(docs_path("scenarios.md"));
  const auto rows = parse_catalogue(markdown);
  const auto& registry = scenarios::all_scenarios();

  ASSERT_EQ(rows.size(), registry.size())
      << "docs/scenarios.md lists " << rows.size() << " scenarios, the registry has "
      << registry.size() << " — update the catalogue table";

  for (std::size_t i = 0; i < registry.size(); ++i) {
    const auto& s = registry[i];
    const auto& row = rows[i];
    EXPECT_EQ(row.name, s.name) << "catalogue row " << i << " out of registry order";
    EXPECT_EQ(row.protocol, s.protocol) << s.name;
    EXPECT_EQ(row.fault, s.fault_kind) << s.name;
    EXPECT_EQ(row.n, s.n) << s.name;
    EXPECT_EQ(row.t, s.t) << s.name;
  }
}

TEST(DocsScenarioCatalogue, EveryFaultClassAppears) {
  const auto markdown = read_file(docs_path("scenarios.md"));
  for (const char* kind :
       {"crash", "omission", "partition", "link", "byzantine", "delay", "gst", "mixed"}) {
    bool found = false;
    for (const auto& row : parse_catalogue(markdown)) found = found || row.fault == kind;
    EXPECT_TRUE(found) << "no catalogue row with fault class " << kind;
  }
}

TEST(Docs, ArchitectureDocCoversTheContracts) {
  const auto markdown = read_file(docs_path("architecture.md"));
  // Section anchors the README and other docs rely on.
  for (const char* needle :
       {"round pipeline", "PayloadArena lifetime", "FaultInjector contract",
        "fleet scheduling model", "pre_round", "on_round", "EngineScratch",
        "normal form", "forensics plane", "TraceSink", "RoundDigest",
        "forensics::shrink"}) {
    EXPECT_NE(markdown.find(needle), std::string::npos)
        << "docs/architecture.md lacks '" << needle << "'";
  }
}

TEST(Docs, ArchitectureDocCoversTheTimingFaultPlane) {
  const auto markdown = read_file(docs_path("architecture.md"));
  for (const char* needle :
       {"due-round delay queue", "FaultPlan::gst", "delay_all", "pure-hash",
        "held, never lost", "delays_armed_", "coordinator_lag",
        "RoundDigest::delayed"}) {
    EXPECT_NE(markdown.find(needle), std::string::npos)
        << "docs/architecture.md lacks '" << needle << "'";
  }
}

TEST(Docs, ArchitectureDocCoversTheSimdMessagePlane) {
  const auto markdown = read_file(docs_path("architecture.md"));
  for (const char* needle :
       {"## The message plane", "one scalar implementation", "There is one code path",
        "scatter_records40", "MADV_HUGEPAGE", "NUMA", "kill switches",
        "0005-scalar-message-plane.json", "threads {1, 4} x scratch", "hotpath_baseline.json",
        "check_hotpath_regression", "bench_report", "bench/history"}) {
    EXPECT_NE(markdown.find(needle), std::string::npos)
        << "docs/architecture.md lacks '" << needle << "'";
  }
}

TEST(Docs, ArchitectureDocCoversTheTransportSeam) {
  const auto markdown = read_file(docs_path("architecture.md"));
  for (const char* needle :
       {"transport seam", "Transport", "RoundDriver", "LoopbackTransport",
        "SocketTransport", "step_round", "twin property", "service_slot_commit",
        "docs/service.md"}) {
    EXPECT_NE(markdown.find(needle), std::string::npos)
        << "docs/architecture.md lacks '" << needle << "'";
  }
}

TEST(Docs, ReadmeLinksTheDocsPlane) {
  const auto readme = read_file(std::string(LFT_SOURCE_DIR) + "/README.md");
  EXPECT_NE(readme.find("docs/architecture.md"), std::string::npos);
  EXPECT_NE(readme.find("docs/scenarios.md"), std::string::npos);
  EXPECT_NE(readme.find("docs/forensics.md"), std::string::npos)
      << "README must link the forensics plane";
  EXPECT_NE(readme.find("docs/service.md"), std::string::npos)
      << "README must link the service plane";
  EXPECT_NE(readme.find("lft_fleet"), std::string::npos)
      << "README must document the fleet quickstart";
  EXPECT_NE(readme.find("lft_forensics"), std::string::npos)
      << "README must document the forensics quickstart";
  EXPECT_NE(readme.find("lft_serve"), std::string::npos)
      << "README must document the service quickstart";
  EXPECT_NE(readme.find("one scalar message plane"), std::string::npos)
      << "README must say the message plane has one code path";
  EXPECT_NE(readme.find("bench_report.py"), std::string::npos)
      << "README must document the perf-history dashboard";
}

/// Stable doc name of a wire message type. The switch has no default on
/// purpose: a new enumerator breaks the build here (-Werror=switch) until
/// it is named — and the test below demands docs/service.md documents it.
const char* msg_type_name(service::MsgType type) {
  using service::MsgType;
  switch (type) {
    case MsgType::kHello: return "kHello";
    case MsgType::kWelcome: return "kWelcome";
    case MsgType::kPropose: return "kPropose";
    case MsgType::kAck: return "kAck";
    case MsgType::kRead: return "kRead";
    case MsgType::kState: return "kState";
    case MsgType::kSubscribe: return "kSubscribe";
    case MsgType::kCommit: return "kCommit";
    case MsgType::kShutdown: return "kShutdown";
    case MsgType::kBye: return "kBye";
    case MsgType::kError: return "kError";
    case MsgType::kStatsRequest: return "kStatsRequest";
    case MsgType::kStatsReply: return "kStatsReply";
  }
  return nullptr;
}

TEST(DocsService, NamesEveryWireMessageType) {
  const auto markdown = read_file(docs_path("service.md"));
  using service::MsgType;
  for (const MsgType type :
       {MsgType::kHello, MsgType::kWelcome, MsgType::kPropose, MsgType::kAck,
        MsgType::kRead, MsgType::kState, MsgType::kSubscribe, MsgType::kCommit,
        MsgType::kShutdown, MsgType::kBye, MsgType::kError, MsgType::kStatsRequest,
        MsgType::kStatsReply}) {
    const std::string needle = std::string("`") + msg_type_name(type) + "`";
    EXPECT_NE(markdown.find(needle), std::string::npos)
        << "docs/service.md lacks wire message " << needle;
  }
}

TEST(DocsService, CoversTheServicePlaneContracts) {
  const auto markdown = read_file(docs_path("service.md"));
  for (const char* needle :
       {"StateMachine", "dedup", "chained digest", "ReplicaGroup", "consensus slot",
        "RoundDriver", "LoopbackTransport", "SocketTransport", "service_slot_commit",
        "LFTTRACE", "lft_forensics replay", "lft_serve", "lft_bench_client",
        "5t < n", "BENCH_service"}) {
    EXPECT_NE(markdown.find(needle), std::string::npos)
        << "docs/service.md lacks '" << needle << "'";
  }
}

TEST(DocsService, CoversThePipelinedReactorServicePlane) {
  const auto markdown = read_file(docs_path("service.md"));
  for (const char* needle :
       {"slot pipeline", "pipeline of depth", "take_head", "net::Reactor",
        "EpollLoop", "IoUringReactor", "LFT_IOURING", "falls back to epoll",
        "ByteRing", "writev", "EPOLLOUT", "backpressure", "max_pending",
        "--backend", "--pipeline", "--open-loop", "p99",
        "check_service_smoke.py", "service_baseline.json", "bench_service"}) {
    EXPECT_NE(markdown.find(needle), std::string::npos)
        << "docs/service.md lacks '" << needle << "'";
  }
}

TEST(Docs, ArchitectureDocCoversTheServiceSeams) {
  const auto markdown = read_file(docs_path("architecture.md"));
  for (const char* needle :
       {"slot pipeline", "reactor seam", "net::Reactor", "EpollLoop",
        "IoUringReactor", "LFT_IOURING", "ByteRing", "FrameParser", "writev"}) {
    EXPECT_NE(markdown.find(needle), std::string::npos)
        << "docs/architecture.md lacks '" << needle << "'";
  }
}

TEST(DocsObservability, CoversTheTelemetryPlane) {
  const auto markdown = read_file(docs_path("observability.md"));
  for (const char* needle :
       {"obs::Registry", "Counter", "Gauge", "Histogram", "log-linear",
        "single-writer", "merge", "Snapshot", "Prometheus", "`kStatsRequest`",
        "`kStatsReply`", "--stats-dump", "--server-stats", "--telemetry",
        "lft_service_request_ns", "lft_engine_step_ns", "lft_engine_lost_total",
        "bit-identical", "FleetRunner::telemetry", "EngineConfig::telemetry",
        "RunOptions::telemetry", "never changes a Report bit"}) {
    EXPECT_NE(markdown.find(needle), std::string::npos)
        << "docs/observability.md lacks '" << needle << "'";
  }
}

TEST(DocsObservability, ReadmeAndArchitectureLinkTheTelemetryPlane) {
  const auto readme = read_file(std::string(LFT_SOURCE_DIR) + "/README.md");
  EXPECT_NE(readme.find("docs/observability.md"), std::string::npos)
      << "README must link the observability plane";
  EXPECT_NE(readme.find("--server-stats"), std::string::npos)
      << "README must document the live stats fetch";
  const auto architecture = read_file(docs_path("architecture.md"));
  for (const char* needle :
       {"telemetry plane", "obs::Registry", "kStatsRequest", "out-of-band"}) {
    EXPECT_NE(architecture.find(needle), std::string::npos)
        << "docs/architecture.md lacks '" << needle << "'";
  }
}

TEST(DocsForensics, NamesEveryDigestComponentOfTheLiveApi) {
  const auto markdown = read_file(docs_path("forensics.md"));
  // Every component the diff can report must be documented under its stable
  // name — walking the live enum keeps this in lockstep with the code.
  using forensics::Component;
  for (const Component c :
       {Component::kFaultActions, Component::kSent, Component::kLostCrash,
        Component::kLostFault, Component::kLostDead, Component::kDelayed,
        Component::kDelivered, Component::kActiveSet, Component::kPayload,
        Component::kBodies, Component::kRoundCount, Component::kFingerprint}) {
    const std::string needle = std::string("`") + forensics::component_name(c) + "`";
    EXPECT_NE(markdown.find(needle), std::string::npos)
        << "docs/forensics.md lacks component " << needle;
  }
}

TEST(DocsForensics, CoversTheTraceFormatShrinkPassesAndEveryShrinkCase) {
  const auto markdown = read_file(docs_path("forensics.md"));
  for (const char* needle :
       {"LFTTRACE", "version", "Event ddmin", "Window narrowing",
        "Partition-set shrinking", "Size shrinking", "EngineConfig::trace",
        "bench_trace", "check_trace_overhead"}) {
    EXPECT_NE(markdown.find(needle), std::string::npos)
        << "docs/forensics.md lacks '" << needle << "'";
  }
  // Every registered shrink case is documented by name.
  for (const auto& c : forensics::shrink_cases()) {
    EXPECT_NE(markdown.find("`" + c.name + "`"), std::string::npos)
        << "docs/forensics.md lacks shrink case " << c.name;
  }
}

}  // namespace
}  // namespace lft
