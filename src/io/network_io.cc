#include "io/network_io.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <utility>
#include <vector>

#include "io/csv.h"
#include "io/parse.h"

namespace ctbus::io {

namespace {

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  for (char c : line) {
    if (c == '\t') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

/// Sets *error (if non-null) to a "path:line: reason" diagnostic.
void SetLineError(std::string* error, const std::string& path,
                  std::size_t line_number, const std::string& reason) {
  if (error != nullptr) *error = LineError(path, line_number, reason);
}

std::string FormatIntList(const std::vector<int>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(values[i]);
  }
  return out;
}

}  // namespace

bool SaveRoadNetwork(const graph::RoadNetwork& road,
                     const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  const graph::Graph& g = road.graph();
  for (int v = 0; v < g.num_vertices(); ++v) {
    out << "V\t" << v << '\t' << g.position(v).x << '\t' << g.position(v).y
        << '\n';
  }
  for (int e = 0; e < g.num_edges(); ++e) {
    out << "E\t" << e << '\t' << g.edge(e).u << '\t' << g.edge(e).v << '\t'
        << g.edge(e).length << '\t' << road.trip_count(e) << '\n';
  }
  return out.good();
}

std::optional<graph::RoadNetwork> LoadRoadNetwork(const std::string& path,
                                                  std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  graph::Graph g;
  std::vector<std::pair<int, long long>> counts;  // (edge, trips)
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF
    if (line.empty()) continue;
    const auto fields = SplitTabs(line);
    if (fields[0] == "V" && fields.size() == 4) {
      int id = 0;
      double x = 0.0, y = 0.0;
      if (!ParseInt(fields[1], &id) || !ParseDouble(fields[2], &x) ||
          !ParseDouble(fields[3], &y)) {
        SetLineError(error, path, line_number, "malformed vertex record");
        return std::nullopt;
      }
      if (g.AddVertex({x, y}) != id) {
        SetLineError(error, path, line_number,
                     "vertex ids must be dense and in order");
        return std::nullopt;
      }
    } else if (fields[0] == "E" && fields.size() == 6) {
      int id = 0, u = 0, v = 0;
      double length = 0.0;
      long long trips = 0;
      if (!ParseInt(fields[1], &id) || !ParseInt(fields[2], &u) ||
          !ParseInt(fields[3], &v) || !ParseDouble(fields[4], &length) ||
          !ParseInt64(fields[5], &trips)) {
        SetLineError(error, path, line_number, "malformed edge record");
        return std::nullopt;
      }
      if (u < 0 || u >= g.num_vertices() || v < 0 ||
          v >= g.num_vertices()) {
        SetLineError(error, path, line_number,
                     "edge endpoint out of range");
        return std::nullopt;
      }
      // Value validation: downstream code asserts these invariants
      // (Graph::AddEdge requires length >= 0) or would silently feed
      // garbage into the planning math in NDEBUG builds.
      if (!std::isfinite(length) || length < 0.0) {
        SetLineError(error, path, line_number,
                     "edge length must be finite and non-negative");
        return std::nullopt;
      }
      if (trips < 0) {
        SetLineError(error, path, line_number,
                     "trip count must be non-negative");
        return std::nullopt;
      }
      if (g.AddEdge(u, v, length) != id) {
        SetLineError(error, path, line_number,
                     "edge ids must be dense and in order (no duplicate "
                     "or self-loop edges)");
        return std::nullopt;
      }
      counts.emplace_back(id, trips);
    } else {
      SetLineError(error, path, line_number,
                   "expected a V or E record with the documented arity");
      return std::nullopt;
    }
  }
  graph::RoadNetwork road(std::move(g));
  for (const auto& [edge, trips] : counts) road.AddTripCount(edge, trips);
  return road;
}

bool SaveTransitNetwork(const graph::TransitNetwork& transit,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (int s = 0; s < transit.num_stops(); ++s) {
    const auto& stop = transit.stop(s);
    out << "S\t" << s << '\t' << stop.road_vertex << '\t' << stop.position.x
        << '\t' << stop.position.y << '\n';
  }
  for (int e = 0; e < transit.num_edges(); ++e) {
    const auto& edge = transit.edge(e);
    out << "E\t" << e << '\t' << edge.u << '\t' << edge.v << '\t'
        << edge.length << '\t' << FormatIntList(edge.road_edges) << '\n';
  }
  for (int r = 0; r < transit.num_routes(); ++r) {
    if (!transit.route(r).active) continue;
    out << "R\t" << r << '\t' << FormatIntList(transit.route(r).stops)
        << '\n';
  }
  return out.good();
}

std::optional<graph::TransitNetwork> LoadTransitNetwork(
    const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  graph::TransitNetwork transit;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF
    if (line.empty()) continue;
    const auto fields = SplitTabs(line);
    if (fields[0] == "S" && fields.size() == 5) {
      int id = 0, road_vertex = 0;
      double x = 0.0, y = 0.0;
      if (!ParseInt(fields[1], &id) || !ParseInt(fields[2], &road_vertex) ||
          !ParseDouble(fields[3], &x) || !ParseDouble(fields[4], &y)) {
        SetLineError(error, path, line_number, "malformed stop record");
        return std::nullopt;
      }
      if (transit.AddStop(road_vertex, {x, y}) != id) {
        SetLineError(error, path, line_number,
                     "stop ids must be dense and in order");
        return std::nullopt;
      }
    } else if (fields[0] == "E" && fields.size() == 6) {
      int id = 0, u = 0, v = 0;
      double length = 0.0;
      if (!ParseInt(fields[1], &id) || !ParseInt(fields[2], &u) ||
          !ParseInt(fields[3], &v) || !ParseDouble(fields[4], &length)) {
        SetLineError(error, path, line_number, "malformed edge record");
        return std::nullopt;
      }
      if (u < 0 || u >= transit.num_stops() || v < 0 ||
          v >= transit.num_stops()) {
        SetLineError(error, path, line_number,
                     "edge endpoint is not a declared stop");
        return std::nullopt;
      }
      // TransitNetwork::AddEdge asserts u != v and downstream math
      // expects non-negative finite lengths; diagnose instead.
      if (u == v) {
        SetLineError(error, path, line_number,
                     "self-loop transit edges are not allowed");
        return std::nullopt;
      }
      if (!std::isfinite(length) || length < 0.0) {
        SetLineError(error, path, line_number,
                     "edge length must be finite and non-negative");
        return std::nullopt;
      }
      std::vector<int> road_edges;
      if (!ParseIntList(fields[5], &road_edges)) {
        SetLineError(error, path, line_number,
                     "malformed road-edge list (space-separated ints)");
        return std::nullopt;
      }
      if (transit.AddEdge(u, v, length, std::move(road_edges)) != id) {
        SetLineError(error, path, line_number,
                     "edge ids must be dense and in order");
        return std::nullopt;
      }
    } else if (fields[0] == "R" && fields.size() == 3) {
      int id = 0;
      if (!ParseInt(fields[1], &id)) {
        SetLineError(error, path, line_number, "malformed route record");
        return std::nullopt;
      }
      std::vector<int> stops;
      if (!ParseIntList(fields[2], &stops)) {
        SetLineError(error, path, line_number,
                     "malformed stop list (space-separated ints)");
        return std::nullopt;
      }
      if (stops.size() < 2) {
        SetLineError(error, path, line_number,
                     "a route needs at least two stops");
        return std::nullopt;
      }
      for (int s : stops) {
        if (s < 0 || s >= transit.num_stops()) {
          SetLineError(error, path, line_number,
                       "route stop is not a declared stop");
          return std::nullopt;
        }
      }
      // AddRoute requires consecutive stops to be edge-connected; check
      // here so malformed files fail with a message, not an assert.
      for (std::size_t i = 1; i < stops.size(); ++i) {
        if (!transit.AnyEdgeBetween(stops[i - 1], stops[i]).has_value()) {
          SetLineError(error, path, line_number,
                       "route stops " + std::to_string(stops[i - 1]) +
                           " and " + std::to_string(stops[i]) +
                           " have no declared transit edge");
          return std::nullopt;
        }
      }
      transit.AddRoute(stops);
    } else {
      SetLineError(error, path, line_number,
                   "expected an S, E or R record with the documented arity");
      return std::nullopt;
    }
  }
  return transit;
}

bool IngestTripCsv(const std::string& path, graph::RoadNetwork* road,
                   std::int64_t* trips, std::string* error) {
  std::string row_error;
  const bool ok = ForEachCsvRow(
      path,
      [&](std::vector<std::string>&& fields, std::size_t line_number) {
        const auto fail = [&](const std::string& reason) {
          row_error = LineError(path, line_number, reason);
          return false;
        };
        if (fields.size() < 2) {
          return fail("a trip needs at least two road vertices");
        }
        int prev = -1;
        std::vector<int> edges;
        edges.reserve(fields.size() - 1);
        for (std::size_t i = 0; i < fields.size(); ++i) {
          int vertex = 0;
          if (!ParseInt(fields[i], &vertex)) {
            return fail("'" + fields[i] + "' is not a road-vertex id");
          }
          if (vertex < 0 || vertex >= road->graph().num_vertices()) {
            return fail("road vertex " + std::to_string(vertex) +
                        " out of range");
          }
          if (i > 0) {
            const auto edge = road->graph().EdgeBetween(prev, vertex);
            if (!edge.has_value()) {
              return fail("vertices " + std::to_string(prev) + " and " +
                          std::to_string(vertex) +
                          " are not adjacent in the road network");
            }
            edges.push_back(*edge);
          }
          prev = vertex;
        }
        for (int e : edges) road->AddTripCount(e);
        if (trips != nullptr) ++*trips;
        return true;
      },
      error);
  if (!ok) return false;
  if (!row_error.empty()) {
    if (error != nullptr) *error = row_error;
    return false;
  }
  return true;
}

}  // namespace ctbus::io
