#include "gen/trip_generator.h"

#include <gtest/gtest.h>

#include "gen/city_generator.h"
#include "graph/shortest_path.h"

namespace ctbus::gen {
namespace {

graph::RoadNetwork TestCity() {
  CityOptions options;
  options.grid_width = 15;
  options.grid_height = 15;
  options.seed = 21;
  return GenerateCity(options);
}

TEST(TripGeneratorTest, GeneratesRequestedTrips) {
  const auto road = TestCity();
  TripOptions options;
  options.num_trips = 200;
  const auto trips = GenerateTrips(road, options);
  EXPECT_EQ(trips.size(), 200u);
}

TEST(TripGeneratorTest, TrajectoriesAreValidWalks) {
  const auto road = TestCity();
  TripOptions options;
  options.num_trips = 100;
  const auto trips = GenerateTrips(road, options);
  for (const auto& t : trips) {
    ASSERT_GE(t.num_points(), 2);
    EXPECT_EQ(t.edges().size(), static_cast<std::size_t>(t.num_points() - 1));
    EXPECT_GT(t.Length(road.graph()), 0.0);
    EXPECT_GT(t.Duration(), 0.0);
  }
}

TEST(TripGeneratorTest, TrajectoriesAreShortestPaths) {
  const auto road = TestCity();
  TripOptions options;
  options.num_trips = 30;
  const auto trips = GenerateTrips(road, options);
  for (const auto& t : trips) {
    const int origin = t.points().front().vertex;
    const int destination = t.points().back().vertex;
    const auto sp =
        graph::ShortestPathBetween(road.graph(), origin, destination);
    ASSERT_TRUE(sp.has_value());
    EXPECT_NEAR(t.Length(road.graph()), sp->length, 1e-9);
  }
}

TEST(TripGeneratorTest, DeterministicPerSeed) {
  const auto road = TestCity();
  TripOptions options;
  options.num_trips = 50;
  options.seed = 5;
  const auto a = GenerateTrips(road, options);
  const auto b = GenerateTrips(road, options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].num_points(), b[i].num_points());
    EXPECT_EQ(a[i].points().front().vertex, b[i].points().front().vertex);
    EXPECT_EQ(a[i].points().back().vertex, b[i].points().back().vertex);
  }
}

TEST(TripGeneratorTest, GenerateDemandMatchesTrajectoryAccumulation) {
  auto road_a = TestCity();
  auto road_b = TestCity();
  TripOptions options;
  options.num_trips = 150;
  options.seed = 9;
  const auto trips = GenerateTrips(road_a, options);
  for (const auto& t : trips) {
    for (int e : t.edges()) road_a.AddTripCount(e);
  }
  const auto count = GenerateDemand(options, &road_b);
  EXPECT_EQ(count, 150);
  for (int e = 0; e < road_a.graph().num_edges(); ++e) {
    EXPECT_EQ(road_a.trip_count(e), road_b.trip_count(e));
  }
}

TEST(TripGeneratorTest, HotspotsConcentrateDemand) {
  // With strong hotspot weight, demand should be far from uniform:
  // the busiest edge must carry many times the mean demand.
  auto road = TestCity();
  TripOptions options;
  options.num_trips = 2000;
  options.hotspot_weight = 0.95;
  options.num_hotspots = 2;
  options.hotspot_stddev = 150.0;
  options.seed = 31;
  GenerateDemand(options, &road);
  std::int64_t max_count = 0;
  for (int e = 0; e < road.graph().num_edges(); ++e) {
    max_count = std::max(max_count, road.trip_count(e));
  }
  const double mean = static_cast<double>(road.TotalTripCount()) /
                      road.graph().num_edges();
  EXPECT_GT(static_cast<double>(max_count), 5.0 * mean);
}

TEST(TripGeneratorTest, ZeroTripsRequested) {
  auto road = TestCity();
  TripOptions options;
  options.num_trips = 0;
  EXPECT_EQ(GenerateDemand(options, &road), 0);
  EXPECT_TRUE(GenerateTrips(road, options).empty());
}

TEST(TripGeneratorTest, TinyGraphDoesNotHang) {
  graph::Graph g;
  g.AddVertex({0, 0});
  graph::RoadNetwork road(std::move(g));
  TripOptions options;
  options.num_trips = 10;
  EXPECT_EQ(GenerateDemand(options, &road), 0);
}

}  // namespace
}  // namespace ctbus::gen
