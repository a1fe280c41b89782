#include "service/dataset_catalog.h"

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "gen/datasets.h"
#include "io/network_io.h"
#include "io/snapshot.h"

namespace ctbus::service {

namespace {

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Cross-checks the loaded transit network against the road network, so
/// planning never indexes out of range: stop affiliations must name road
/// vertices and realized transit edges must name road edges.
bool ValidateCrossReferences(const graph::RoadNetwork& road,
                             const graph::TransitNetwork& transit,
                             const std::string& transit_path,
                             std::string* error) {
  for (int s = 0; s < transit.num_stops(); ++s) {
    const int rv = transit.stop(s).road_vertex;
    if (rv < 0 || rv >= road.graph().num_vertices()) {
      return Fail(error, transit_path + ": stop " + std::to_string(s) +
                             " is affiliated with road vertex " +
                             std::to_string(rv) + ", which does not exist");
    }
  }
  for (int e = 0; e < transit.num_edges(); ++e) {
    for (int re : transit.edge(e).road_edges) {
      if (re < 0 || re >= road.graph().num_edges()) {
        return Fail(error, transit_path + ": transit edge " +
                               std::to_string(e) + " crosses road edge " +
                               std::to_string(re) + ", which does not exist");
      }
    }
  }
  return true;
}

}  // namespace

std::optional<DatasetManifest> DatasetCatalog::Register(
    const DatasetDescriptor& descriptor, std::string* error) {
  const std::string prefix = "dataset '" + descriptor.name + "': ";
  if (descriptor.name.empty()) {
    Fail(error, "dataset name must not be empty");
    return std::nullopt;
  }
  if (service_->HasDataset(descriptor.name)) {
    Fail(error, prefix + "already registered");
    return std::nullopt;
  }
  const bool from_preset = !descriptor.preset.empty();
  const bool from_files =
      !descriptor.road_path.empty() || !descriptor.transit_path.empty();
  if (from_preset == from_files) {
    Fail(error, prefix +
                    "exactly one source required: either `preset` or the "
                    "road_path + transit_path file pair");
    return std::nullopt;
  }

  graph::RoadNetwork road;
  graph::TransitNetwork transit;
  std::int64_t trips = 0;
  bool loaded_from_snapshot = false;
  bool snapshot_saved = false;
  // The binary accelerator first: a valid snapshot carries the networks
  // with trip demand already aggregated, so the whole text path below
  // (parse + cross-reference validation + trip ingestion) is skipped. A
  // missing, corrupt, or stale-format file falls through to the source
  // build — the snapshot is a cache of the source, never a source itself.
  if (!descriptor.snapshot_path.empty()) {
    if (auto snapshot = io::LoadSnapshot(descriptor.snapshot_path)) {
      road = std::move(snapshot->road);
      transit = std::move(snapshot->transit);
      loaded_from_snapshot = true;
    }
  }
  if (loaded_from_snapshot) {
    // Decode already bounds every cross-reference; re-assert the catalog's
    // own contract anyway so this path can never drift weaker than text.
    std::string validate_error;
    if (!ValidateCrossReferences(road, transit, descriptor.snapshot_path,
                                 &validate_error)) {
      Fail(error, prefix + validate_error);
      return std::nullopt;
    }
  } else if (from_preset) {
    if (!gen::HasDataset(descriptor.preset)) {
      Fail(error, prefix + "unknown preset '" + descriptor.preset +
                      "' (see gen::DatasetNames())");
      return std::nullopt;
    }
    gen::Dataset dataset =
        gen::MakeDatasetByName(descriptor.preset, descriptor.preset_scale);
    road = std::move(dataset.road);
    transit = std::move(dataset.transit);
  } else {
    if (descriptor.road_path.empty() || descriptor.transit_path.empty()) {
      Fail(error, prefix + "file datasets need both road_path and "
                           "transit_path");
      return std::nullopt;
    }
    std::string load_error;
    auto loaded_road = io::LoadRoadNetwork(descriptor.road_path, &load_error);
    if (!loaded_road.has_value()) {
      Fail(error, prefix + "road network: " + load_error);
      return std::nullopt;
    }
    auto loaded_transit =
        io::LoadTransitNetwork(descriptor.transit_path, &load_error);
    if (!loaded_transit.has_value()) {
      Fail(error, prefix + "transit network: " + load_error);
      return std::nullopt;
    }
    road = std::move(*loaded_road);
    transit = std::move(*loaded_transit);
    if (!ValidateCrossReferences(road, transit, descriptor.transit_path,
                                 &load_error)) {
      Fail(error, prefix + load_error);
      return std::nullopt;
    }
    if (!descriptor.trips_path.empty() &&
        !io::IngestTripCsv(descriptor.trips_path, &road, &trips, &load_error)) {
      Fail(error, prefix + "trips: " + load_error);
      return std::nullopt;
    }
  }

  if (!descriptor.snapshot_path.empty() && !loaded_from_snapshot) {
    // Built from source with an accelerator configured: write it now so
    // the next start loads in milliseconds. The catalog stores networks
    // only (it does not know planner options, so no precompute/demand
    // sections). A write failure fails registration: a snapshot_path
    // that can never materialize is a misconfiguration, not a warning.
    io::Snapshot snapshot;
    snapshot.road = road;
    snapshot.transit = transit;
    std::string save_error;
    if (!io::SaveSnapshot(snapshot, descriptor.snapshot_path, &save_error)) {
      Fail(error, prefix + "snapshot: " + save_error);
      return std::nullopt;
    }
    snapshot_saved = true;
  }

  DatasetManifest manifest;
  manifest.name = descriptor.name;
  manifest.road_vertices = road.graph().num_vertices();
  manifest.road_edges = road.graph().num_edges();
  manifest.stops = transit.num_stops();
  manifest.routes = transit.num_active_routes();
  manifest.trips_ingested = trips;
  manifest.snapshot_bytes = road.ApproxBytes() + transit.ApproxBytes();
  manifest.loaded_from_snapshot = loaded_from_snapshot;
  manifest.snapshot_saved = snapshot_saved;
  try {
    service_->RegisterDataset(descriptor.name, std::move(road),
                              std::move(transit), descriptor.retention);
  } catch (const std::exception& e) {
    Fail(error, prefix + e.what());
    return std::nullopt;
  }
  return manifest;
}

}  // namespace ctbus::service
