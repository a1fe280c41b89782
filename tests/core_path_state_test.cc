#include "core/path_state.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "gen/datasets.h"
#include "graph/geo.h"
#include "graph/transit_network.h"
#include "linalg/rng.h"

namespace ctbus::core {
namespace {

// A tiny hand-built transit layout (all coordinates in meters):
//
//   s0 --- s1 --- s2 --- s3     (horizontal line, y = 0)
//                  |
//                 s4 at (220, 100): ~79-degree turn from the line
//   s5 at (400, 50): ~27-degree deviation from s3 (no turn)
//
// The universe is built through the public Build API with tau = 1 so that
// it contains exactly the existing transit edges.
graph::TransitNetwork LineTransit() {
  graph::TransitNetwork t;
  t.AddStop(0, {0, 0});
  t.AddStop(1, {100, 0});
  t.AddStop(2, {200, 0});
  t.AddStop(3, {300, 0});
  t.AddStop(4, {220, 100});
  t.AddStop(5, {400, 50});
  t.AddEdge(0, 1, 100, {});
  t.AddEdge(1, 2, 100, {});
  t.AddEdge(2, 3, 100, {});
  t.AddEdge(2, 4, 102, {});
  t.AddEdge(3, 5, 112, {});
  t.AddRoute({0, 1, 2, 3});
  t.AddRoute({4, 2});
  t.AddRoute({3, 5});
  return t;
}

// A road network that makes Build treat the transit edges as existing with
// empty road paths is not needed: transit edges already carry empty road
// paths here, and tau = 1 produces no new candidates.
graph::RoadNetwork EmptyRoad() {
  graph::Graph g;
  g.AddVertex({0, 0});
  g.AddVertex({1, 0});
  g.AddEdge(0, 1, 1.0);
  return graph::RoadNetwork(std::move(g));
}

EdgeUniverse LineUniverse(const graph::RoadNetwork& road,
                          const graph::TransitNetwork& transit) {
  EdgeUniverseOptions options;
  options.tau = 1.0;  // no new candidates; universe = existing edges
  return EdgeUniverse::Build(road, transit, options);
}

int UniverseEdgeBetween(const EdgeUniverse& u, int a, int b) {
  for (int e = 0; e < u.num_edges(); ++e) {
    if ((u.edge(e).u == a && u.edge(e).v == b) ||
        (u.edge(e).u == b && u.edge(e).v == a)) {
      return e;
    }
  }
  return -1;
}

TEST(CandidatePathTest, SeedPathBasics) {
  const auto road = EmptyRoad();
  const auto transit = LineTransit();
  const auto u = LineUniverse(road, transit);
  const int e01 = UniverseEdgeBetween(u, 0, 1);
  ASSERT_GE(e01, 0);
  const CandidatePath path(u, e01);
  EXPECT_EQ(path.num_edges(), 1);
  EXPECT_EQ(path.turns(), 0);
  EXPECT_FALSE(path.closed());
  EXPECT_EQ(path.begin_edge(), e01);
  EXPECT_EQ(path.end_edge(), e01);
}

TEST(CandidatePathTest, ExtendAtEndGrowsPath) {
  const auto road = EmptyRoad();
  const auto transit = LineTransit();
  const auto u = LineUniverse(road, transit);
  const int e01 = UniverseEdgeBetween(u, 0, 1);
  const int e12 = UniverseEdgeBetween(u, 1, 2);
  CandidatePath path(u, e01);
  const int end = path.end_stop() == 1 ? 1 : path.begin_stop();
  ASSERT_TRUE(path.CanExtend(u, transit, e12, end));
  path.Extend(u, transit, e12, end);
  EXPECT_EQ(path.num_edges(), 2);
  EXPECT_EQ(path.turns(), 0);  // straight line
  EXPECT_DOUBLE_EQ(path.demand(),
                   u.edge(e01).demand + u.edge(e12).demand);
}

TEST(CandidatePathTest, StraightLineHasNoTurns) {
  const auto road = EmptyRoad();
  const auto transit = LineTransit();
  const auto u = LineUniverse(road, transit);
  CandidatePath path(u, UniverseEdgeBetween(u, 0, 1));
  for (const auto& [from, to] : {std::pair{1, 2}, std::pair{2, 3}}) {
    const int e = UniverseEdgeBetween(u, from, to);
    const int at = path.end_stop() == from ? path.end_stop()
                                           : path.begin_stop();
    ASSERT_TRUE(path.CanExtend(u, transit, e, at));
    path.Extend(u, transit, e, at);
  }
  EXPECT_EQ(path.turns(), 0);
}

TEST(CandidatePathTest, SteepTurnCountsOne) {
  // 1-2 then 2-4 deviates ~79 degrees: counted as one turn (pi/4 < angle
  // <= pi/2), not a sharp-turn kill.
  const auto road = EmptyRoad();
  const auto transit = LineTransit();
  const auto u = LineUniverse(road, transit);
  CandidatePath path(u, UniverseEdgeBetween(u, 1, 2));
  // Orient: make sure end is stop 2.
  int at = path.end_stop() == 2 ? path.end_stop() : path.begin_stop();
  const int e24 = UniverseEdgeBetween(u, 2, 4);
  ASSERT_TRUE(path.CanExtend(u, transit, e24, at));
  path.Extend(u, transit, e24, at);
  EXPECT_GE(path.turns(), 1);
  EXPECT_LT(path.turns(), CandidatePath::kSharpTurnPenalty);
}

TEST(CandidatePathTest, ShallowDeviationIsNotATurn) {
  // 2-3 then 3-5: deviation ~27 degrees < pi/4, so no turn is counted.
  const auto road = EmptyRoad();
  const auto transit = LineTransit();
  const auto u = LineUniverse(road, transit);
  CandidatePath path(u, UniverseEdgeBetween(u, 2, 3));
  const int at = path.end_stop() == 3 ? path.end_stop() : path.begin_stop();
  const int e35 = UniverseEdgeBetween(u, 3, 5);
  ASSERT_TRUE(path.CanExtend(u, transit, e35, at));
  path.Extend(u, transit, e35, at);
  EXPECT_EQ(path.turns(), 0);
}

TEST(CandidatePathTest, CannotReuseEdge) {
  const auto road = EmptyRoad();
  const auto transit = LineTransit();
  const auto u = LineUniverse(road, transit);
  const int e01 = UniverseEdgeBetween(u, 0, 1);
  const CandidatePath path(u, e01);
  EXPECT_FALSE(path.CanExtend(u, transit, e01, path.end_stop()));
  EXPECT_FALSE(path.CanExtend(u, transit, e01, path.begin_stop()));
}

TEST(CandidatePathTest, CannotRevisitStop) {
  // Path 0-1-2; extending at 2 with edge 2-4 is fine, but after 0-1-2-4,
  // nothing may return to stop 1.
  const auto road = EmptyRoad();
  const auto transit = LineTransit();
  const auto u = LineUniverse(road, transit);
  CandidatePath path(u, UniverseEdgeBetween(u, 0, 1));
  int at = path.end_stop() == 1 ? path.end_stop() : path.begin_stop();
  path.Extend(u, transit, UniverseEdgeBetween(u, 1, 2), at);
  // Try to extend the 2-end back toward 1 via edge 1-2: edge reuse, blocked.
  EXPECT_FALSE(path.CanExtend(u, transit, UniverseEdgeBetween(u, 1, 2),
                              path.end_stop() == 2 ? path.end_stop()
                                                   : path.begin_stop()));
}

TEST(CandidatePathTest, ExtendAtBeginPrepends) {
  const auto road = EmptyRoad();
  const auto transit = LineTransit();
  const auto u = LineUniverse(road, transit);
  const int e12 = UniverseEdgeBetween(u, 1, 2);
  CandidatePath path(u, e12);
  // Extend toward 0 at whichever end is stop 1.
  const int e01 = UniverseEdgeBetween(u, 0, 1);
  const int at = path.begin_stop() == 1 ? path.begin_stop() : path.end_stop();
  ASSERT_TRUE(path.CanExtend(u, transit, e01, at));
  path.Extend(u, transit, e01, at);
  EXPECT_EQ(path.num_edges(), 2);
  // Stops must be a contiguous chain 0-1-2 (in either direction).
  const auto& stops = path.stops();
  const bool forward = stops == std::vector<int>({0, 1, 2});
  const bool backward = stops == std::vector<int>({2, 1, 0});
  EXPECT_TRUE(forward || backward);
}

TEST(CandidatePathTest, RoadEdgeConflictBlocksExtension) {
  // Craft transit edges sharing a road edge.
  graph::Graph g;
  g.AddVertex({0, 0});
  g.AddVertex({100, 0});
  g.AddVertex({200, 0});
  g.AddEdge(0, 1, 100.0);
  g.AddEdge(1, 2, 100.0);
  graph::RoadNetwork road(std::move(g));
  graph::TransitNetwork transit;
  transit.AddStop(0, {0, 0});
  transit.AddStop(1, {100, 0});
  transit.AddStop(2, {200, 0});
  transit.AddEdge(0, 1, 100, {0});
  transit.AddEdge(1, 2, 200, {1, 0});  // loops back over road edge 0
  transit.AddRoute({0, 1});
  transit.AddRoute({1, 2});
  EdgeUniverseOptions options;
  options.tau = 1.0;
  const auto u = EdgeUniverse::Build(road, transit, options);
  const int e01 = UniverseEdgeBetween(u, 0, 1);
  const int e12 = UniverseEdgeBetween(u, 1, 2);
  ASSERT_GE(e01, 0);
  ASSERT_GE(e12, 0);
  const CandidatePath path(u, e01);
  const int at = path.end_stop() == 1 ? path.end_stop() : path.begin_stop();
  EXPECT_FALSE(path.CanExtend(u, transit, e12, at));
}

// A unit square of stops with a spur (all coordinates in meters):
//
//   s3 --- s2
//    |      |
//   s0 --- s1 --- s4
//
// Every side and the spur are transit edges, so the universe (tau = 1)
// holds exactly these five edges.
graph::TransitNetwork SquareTransit() {
  graph::TransitNetwork t;
  t.AddStop(0, {0, 0});
  t.AddStop(1, {100, 0});
  t.AddStop(2, {100, 100});
  t.AddStop(3, {0, 100});
  t.AddStop(4, {200, 0});
  t.AddEdge(0, 1, 100, {});
  t.AddEdge(1, 2, 100, {});
  t.AddEdge(2, 3, 100, {});
  t.AddEdge(3, 0, 100, {});
  t.AddEdge(1, 4, 100, {});
  t.AddRoute({0, 1, 2, 3, 0});
  t.AddRoute({1, 4});
  return t;
}

// Extends `path` with `edge` at whichever end the edge touches.
void ExtendAtSharedEnd(const EdgeUniverse& u,
                       const graph::TransitNetwork& transit, int edge,
                       CandidatePath* path) {
  const PlannableEdge& e = u.edge(edge);
  const int at = (e.u == path->end_stop() || e.v == path->end_stop())
                     ? path->end_stop()
                     : path->begin_stop();
  ASSERT_TRUE(path->CanExtend(u, transit, edge, at));
  path->Extend(u, transit, edge, at);
}

TEST(CandidatePathTest, LoopClosesOntoBeginStopAndThenBlocksEverything) {
  const auto road = EmptyRoad();
  const auto transit = SquareTransit();
  const auto u = LineUniverse(road, transit);
  ASSERT_EQ(u.num_edges(), 5);
  const int e01 = UniverseEdgeBetween(u, 0, 1);
  const int e12 = UniverseEdgeBetween(u, 1, 2);
  const int e23 = UniverseEdgeBetween(u, 2, 3);
  const int e30 = UniverseEdgeBetween(u, 3, 0);

  CandidatePath path(u, e01);
  ExtendAtSharedEnd(u, transit, e12, &path);
  ExtendAtSharedEnd(u, transit, e23, &path);
  ASSERT_EQ(path.num_edges(), 3);
  EXPECT_FALSE(path.closed());
  // Stop 0 is on the path, but as the opposite end it may close the loop.
  const int at3 = path.end_stop() == 3 ? path.end_stop() : path.begin_stop();
  ASSERT_TRUE(path.CanExtend(u, transit, e30, at3));
  path.Extend(u, transit, e30, at3);
  EXPECT_TRUE(path.closed());
  EXPECT_EQ(path.num_edges(), 4);
  EXPECT_EQ(path.begin_stop(), path.end_stop());
  for (int e = 0; e < u.num_edges(); ++e) {
    EXPECT_FALSE(path.CanExtend(u, transit, e, path.begin_stop())) << e;
    EXPECT_FALSE(path.CanExtend(u, transit, e, path.end_stop())) << e;
  }
}

TEST(CandidatePathTest, TwoEdgePathMayCloseOntoItsBeginStop) {
  // A triangle: 0-1, 1-2, then 2-0 closes back onto the begin stop.
  const auto road = EmptyRoad();
  graph::TransitNetwork transit;
  transit.AddStop(0, {0, 0});
  transit.AddStop(1, {100, 0});
  transit.AddStop(2, {50, 80});
  transit.AddEdge(0, 1, 100, {});
  transit.AddEdge(1, 2, 95, {});
  transit.AddEdge(2, 0, 95, {});
  transit.AddRoute({0, 1, 2, 0});
  const auto u = LineUniverse(road, transit);
  CandidatePath path(u, UniverseEdgeBetween(u, 0, 1));
  ExtendAtSharedEnd(u, transit, UniverseEdgeBetween(u, 1, 2), &path);
  ASSERT_EQ(path.num_edges(), 2);
  const int e20 = UniverseEdgeBetween(u, 2, 0);
  const int at2 = path.end_stop() == 2 ? path.end_stop() : path.begin_stop();
  ASSERT_TRUE(path.CanExtend(u, transit, e20, at2));
  path.Extend(u, transit, e20, at2);
  EXPECT_TRUE(path.closed());
  for (int e = 0; e < u.num_edges(); ++e) {
    EXPECT_FALSE(path.CanExtend(u, transit, e, path.end_stop())) << e;
  }
}

TEST(CandidatePathTest, OneEdgePathCannotCloseOntoItself) {
  const auto road = EmptyRoad();
  const auto transit = SquareTransit();
  const auto u = LineUniverse(road, transit);
  const int e01 = UniverseEdgeBetween(u, 0, 1);
  const CandidatePath path(u, e01);
  // The only edge from either end back to the other end is the seed
  // itself: not a loop.
  EXPECT_FALSE(path.CanExtend(u, transit, e01, path.end_stop()));
  EXPECT_FALSE(path.CanExtend(u, transit, e01, path.begin_stop()));
  EXPECT_FALSE(path.closed());
}

// Reference semantics of CandidatePath with ordered sets for the visited
// stops and used road edges: the differential test below holds the flat
// implementation to it.
struct ReferencePath {
  ReferencePath(const EdgeUniverse& u, int edge) {
    const PlannableEdge& e = u.edge(edge);
    edges = {edge};
    stops = {e.u, e.v};
    visited = {e.u, e.v};
    road.insert(e.road_edges.begin(), e.road_edges.end());
    demand = e.demand;
  }

  bool CanExtend(const EdgeUniverse& u, int edge, int at_stop) const {
    if (closed) return false;
    const PlannableEdge& e = u.edge(edge);
    if (e.u != at_stop && e.v != at_stop) return false;
    const int far = e.u == at_stop ? e.v : e.u;
    const int opposite =
        at_stop == stops.back() ? stops.front() : stops.back();
    if (visited.count(far) > 0 &&
        !(far == opposite && edges.size() >= 2)) {
      return false;
    }
    for (int used : edges) {
      if (used == edge) return false;
    }
    for (int re : e.road_edges) {
      if (road.count(re) > 0) return false;
    }
    return true;
  }

  void Extend(const EdgeUniverse& u, const graph::TransitNetwork& transit,
              int edge, int at_stop) {
    const PlannableEdge& e = u.edge(edge);
    const int far = e.u == at_stop ? e.v : e.u;
    const bool at_end = at_stop == stops.back();
    const int inner = at_end ? stops[stops.size() - 2] : stops[1];
    const double angle = graph::TurnAngle(transit.stop(inner).position,
                                          transit.stop(at_stop).position,
                                          transit.stop(far).position);
    if (angle > M_PI / 2) {
      turns += CandidatePath::kSharpTurnPenalty;
    } else if (angle > M_PI / 4) {
      turns += 1;
    }
    if (at_end) {
      edges.push_back(edge);
      stops.push_back(far);
    } else {
      edges.insert(edges.begin(), edge);
      stops.insert(stops.begin(), far);
    }
    if (visited.count(far) > 0) closed = true;
    visited.insert(far);
    road.insert(e.road_edges.begin(), e.road_edges.end());
    demand += e.demand;
  }

  std::vector<int> edges;
  std::vector<int> stops;
  std::set<int> visited;
  std::set<int> road;
  int turns = 0;
  double demand = 0.0;
  bool closed = false;
};

TEST(CandidatePathTest, RandomWalksMatchOrderedSetReference) {
  // Random walks over a generated universe (existing edges plus candidate
  // new edges with realized road paths). At every step, every incident
  // edge at both ends is checked against the reference, then one feasible
  // edge is taken at random.
  const gen::Dataset city = gen::MakeChicagoLike(0.2);
  EdgeUniverseOptions options;
  options.tau = 500.0;
  const EdgeUniverse u = EdgeUniverse::Build(city.road, city.transit, options);
  ASSERT_GT(u.num_new_edges(), 0);
  linalg::Rng rng(20211);
  int checks = 0;
  int rejections = 0;
  int closures = 0;
  for (int walk = 0; walk < 400; ++walk) {
    const int seed = static_cast<int>(rng.NextIndex(u.num_edges()));
    CandidatePath path(u, seed);
    ReferencePath reference(u, seed);
    for (int step = 0; step < 40; ++step) {
      std::vector<std::pair<int, int>> feasible;  // (edge, at_stop)
      for (const int at : {path.end_stop(), path.begin_stop()}) {
        for (const int e : u.IncidentEdges(at)) {
          const bool ok = path.CanExtend(u, city.transit, e, at);
          ASSERT_EQ(ok, reference.CanExtend(u, e, at))
              << "walk " << walk << " step " << step << " edge " << e;
          ++checks;
          if (ok) {
            feasible.emplace_back(e, at);
          } else {
            ++rejections;
          }
        }
      }
      if (feasible.empty()) break;
      const auto [edge, at] = feasible[rng.NextIndex(feasible.size())];
      path.Extend(u, city.transit, edge, at);
      reference.Extend(u, city.transit, edge, at);
      ASSERT_EQ(path.closed(), reference.closed);
      ASSERT_EQ(path.turns(), reference.turns);
      ASSERT_EQ(path.demand(), reference.demand);
      ASSERT_EQ(path.edges(), reference.edges);
      ASSERT_EQ(path.stops(), reference.stops);
      if (path.closed()) {
        ++closures;
        break;
      }
    }
  }
  // The walks exercise both outcomes and the loop-closure rule.
  EXPECT_GT(checks - rejections, 1000);
  EXPECT_GT(rejections, 1000);
  EXPECT_GT(closures, 0);
}

}  // namespace
}  // namespace ctbus::core
