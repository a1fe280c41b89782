// Workload trace files for the record-and-replay load harness: a
// deterministic, diffable text format holding one planning request per
// line — its intended submit offset on the workload timeline, the full
// wire-visible request, and the recorded outcome (response status +
// deterministic-section checksum, net/frame.h). Replaying a trace
// against a server at any speed must reproduce every status and
// checksum bit-for-bit; the committed golden trace under tests/data/
// turns that into a regression gate.
//
// Format (version line, then one record per line, space-separated):
//
//   ctbus-trace-v1 dataset=<name> records=<count>
//   <offset_s> <deadline_ms> <priority> <planner> <version> <k> <w>
//     <tau> <max_turns> <seed_count> <max_iterations>
//     <probes> <lanczos> <seed> <kind>          (online estimator)
//     <probes> <lanczos> <seed> <kind>          (precompute estimator)
//     <flags> <status> <checksum>
//
// <flags> is the request payload's flags byte in decimal, coded by
// net::PackOptionFlags / UnpackOptionFlags; a reserved bit is an error.
// Offsets are the INTENDED schedule (deterministic by construction),
// not measured wall-clock times — so a recorded trace is byte-stable
// across machines and re-recordings. u64 values (seeds, checksum) are
// lowercase hex; doubles are written with round-trip precision; every
// field parses through the strict io::Parse* discipline (whole-token,
// no silent truncation) and failures carry "path:line: reason"
// diagnostics via io::LineError.
#ifndef CTBUS_NET_TRACE_FILE_H_
#define CTBUS_NET_TRACE_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.h"

namespace ctbus::net {

inline constexpr char kTraceFormatName[] = "ctbus-trace-v1";

/// One recorded request + its outcome.
struct TraceRecord {
  /// Intended submit time, seconds from workload start (replay divides
  /// by the speedup factor).
  double offset_seconds = 0.0;
  std::uint32_t deadline_ms = 0;
  /// The request as sent (dataset comes from the trace header).
  service::PlanRequest request;
  /// Recorded outcome: replay must reproduce both exactly.
  ResponseStatus status = ResponseStatus::kOk;
  std::uint64_t response_checksum = 0;
};

struct TraceFile {
  /// Dataset every record targets (one trace = one dataset's workload).
  std::string dataset;
  std::vector<TraceRecord> records;
};

/// Serializes `trace` to `path`; false with diagnostic on I/O failure.
bool WriteTraceFile(const std::string& path, const TraceFile& trace,
                    std::string* error);

/// Strict parse of `path` into `*trace`: header line validated, every
/// record field bounds-checked exactly like the wire decoder (a trace
/// file is untrusted input too). False with a "path:line: reason"
/// diagnostic on the first malformed line.
bool ReadTraceFile(const std::string& path, TraceFile* trace,
                   std::string* error);

}  // namespace ctbus::net

#endif  // CTBUS_NET_TRACE_FILE_H_
