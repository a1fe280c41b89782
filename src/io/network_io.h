// Dataset persistence: save/load road networks (with demand) and transit
// networks as TSV files, so externally prepared data (e.g. converted GTFS /
// DIMACS extracts) can be fed to the planner and synthetic datasets can be
// exported for inspection.
//
// Formats (tab-separated, one record per line):
//   road:    V <id> <x> <y>
//            E <id> <u> <v> <length> <trip_count>
//   transit: S <id> <road_vertex> <x> <y>
//            E <id> <u> <v> <length> <road_edge>*   (road edges space-sep)
//            R <id> <stop>+                          (stops space-separated)
#ifndef CTBUS_IO_NETWORK_IO_H_
#define CTBUS_IO_NETWORK_IO_H_

#include <cstdint>
#include <optional>
#include <string>

#include "graph/road_network.h"
#include "graph/transit_network.h"

namespace ctbus::io {

bool SaveRoadNetwork(const graph::RoadNetwork& road, const std::string& path);

/// Returns nullopt on missing file or malformed content. When `error` is
/// non-null, a failed load sets it to a "path:line: reason" diagnostic
/// (DatasetCatalog surfaces it through registration failures); a
/// successful load leaves it untouched.
std::optional<graph::RoadNetwork> LoadRoadNetwork(
    const std::string& path, std::string* error = nullptr);

bool SaveTransitNetwork(const graph::TransitNetwork& transit,
                        const std::string& path);

/// Same diagnostics contract as LoadRoadNetwork.
std::optional<graph::TransitNetwork> LoadTransitNetwork(
    const std::string& path, std::string* error = nullptr);

/// Streams a trip CSV into `road`'s trip counts. Each row is one trip: a
/// sequence of >= 2 road-vertex ids whose consecutive pairs must be
/// road-adjacent. Adds one to `*trips` per ingested row when `trips` is
/// non-null. Returns false and sets `*error` (when non-null) to a
/// "path:line: reason" diagnostic on the first malformed row; rows before
/// it stay counted.
bool IngestTripCsv(const std::string& path, graph::RoadNetwork* road,
                   std::int64_t* trips, std::string* error);

}  // namespace ctbus::io

#endif  // CTBUS_IO_NETWORK_IO_H_
