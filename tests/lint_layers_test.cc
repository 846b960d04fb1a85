// Pins the ci/layers.txt grammar and the cycle detector of subdex-lint
// (tools/subdex-lint/layers.h). The fixture suite (tests/lint/) exercises
// the checks end to end through the binary; this test pins the parser's
// rejection set and the detector's exact cycle reporting, plus the real
// repo graph: ci/layers.txt must parse, cover what it declares, and stay
// acyclic — and must become cyclic the moment an edge is inverted.

#include "tools/subdex-lint/layers.h"

#include <fstream>
#include <sstream>
#include <string>

#include "gtest/gtest.h"

namespace subdex_lint {
namespace {

LayerGraph MustParse(const std::string& text) {
  LayerGraph graph;
  std::string error;
  EXPECT_TRUE(ParseLayersFile(text, &graph, &error)) << error;
  return graph;
}

std::string MustFail(const std::string& text) {
  LayerGraph graph;
  std::string error;
  EXPECT_FALSE(ParseLayersFile(text, &graph, &error));
  return error;
}

TEST(LayersParse, ParsesDeclarationsCommentsAndBlanks) {
  LayerGraph g = MustParse(
      "# comment\n"
      "\n"
      "util:\n"
      "storage: util\n"
      "core: storage util  # trailing comment\n");
  ASSERT_EQ(g.subsystems.size(), 3u);
  EXPECT_EQ(g.subsystems[0], "util");
  EXPECT_TRUE(g.EdgeAllowed("storage", "util"));
  EXPECT_TRUE(g.EdgeAllowed("core", "storage"));
  EXPECT_FALSE(g.EdgeAllowed("util", "core"));
  EXPECT_FALSE(g.EdgeAllowed("storage", "core"));
}

TEST(LayersParse, EdgesAreExplicitNotTransitive) {
  LayerGraph g = MustParse("util:\nstorage: util\ncore: storage\n");
  // core -> storage -> util is declared, but core -> util is not: the
  // graph is an allowlist of direct edges, never a reachability closure.
  EXPECT_TRUE(g.EdgeAllowed("core", "storage"));
  EXPECT_FALSE(g.EdgeAllowed("core", "util"));
}

TEST(LayersParse, RejectsMissingColon) {
  EXPECT_NE(MustFail("util\n").find("expected '<subsystem>:"),
            std::string::npos);
}

TEST(LayersParse, RejectsDuplicateSubsystem) {
  EXPECT_NE(MustFail("util:\nutil:\n").find("duplicate"),
            std::string::npos);
}

TEST(LayersParse, RejectsSelfDependency) {
  EXPECT_NE(MustFail("util: util\n").find("itself"), std::string::npos);
}

TEST(LayersParse, RejectsInvalidNames) {
  MustFail("Util:\n");
  MustFail("ut il:\n");
  MustFail("util: Core\n");
}

TEST(LayersValidate, ReportsUndeclaredDependency) {
  LayerGraph g = MustParse("storage: util\n");
  std::string error;
  EXPECT_FALSE(ValidateDeclaredDeps(g, &error));
  EXPECT_NE(error.find("util"), std::string::npos);
}

TEST(LayersCycle, FindsDirectAndTransitiveCycles) {
  LayerGraph two = MustParse("a: b\nb: a\n");
  EXPECT_FALSE(FindCycle(two).empty());

  LayerGraph three = MustParse("a: b\nb: c\nc: a\n");
  const std::vector<std::string> cycle = FindCycle(three);
  ASSERT_GE(cycle.size(), 3u);
  // The path closes on itself: the report is a walkable cycle, not just
  // a yes/no bit.
  EXPECT_EQ(cycle.front(), cycle.back());
}

TEST(LayersCycle, AcyclicGraphReportsNoCycle) {
  LayerGraph g = MustParse("util:\nstorage: util\ncore: storage util\n");
  EXPECT_TRUE(FindCycle(g).empty());
}

// ---------------------------------------------------------------------------
// The real repo graph.

std::string ReadRepoLayers() {
  const std::string path = std::string(SUBDEX_REPO_ROOT) + "/ci/layers.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(RepoLayers, ParsesValidatesAndIsAcyclic) {
  LayerGraph g = MustParse(ReadRepoLayers());
  std::string error;
  EXPECT_TRUE(ValidateDeclaredDeps(g, &error)) << error;
  EXPECT_TRUE(FindCycle(g).empty());
  // Spot-pin the arc direction: the wire front end may reach down into
  // the engine, never the reverse.
  EXPECT_TRUE(g.EdgeAllowed("server", "engine"));
  EXPECT_FALSE(g.EdgeAllowed("engine", "server"));
  EXPECT_FALSE(g.EdgeAllowed("util", "storage"));
}

TEST(RepoLayers, InvertedEdgeCreatesADetectedCycle) {
  // Invert an edge of the real graph and the detector must light up, or
  // L1 could not catch a real inversion either.
  LayerGraph g = MustParse(ReadRepoLayers() + "\nutil2: server\n");
  EXPECT_TRUE(FindCycle(g).empty())
      << "a fresh subsystem pointing at server is not a cycle";
  LayerGraph bad;
  std::string error;
  std::string text = ReadRepoLayers();
  // util gains a dependency on server: util -> server -> ... -> util.
  const size_t at = text.find("util:");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 5, "util: server\n#");
  ASSERT_TRUE(ParseLayersFile(text, &bad, &error)) << error;
  EXPECT_FALSE(FindCycle(bad).empty());
}

}  // namespace
}  // namespace subdex_lint
