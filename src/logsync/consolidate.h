// The consolidated database (§B): merges heterogeneous log streams (XCAL
// KPI windows, RTT echoes, app runs) into one absolute-time-ordered
// record stream, the artifact the study's post-processing software
// produced for analysis.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "logsync/timestamp.h"

namespace wheels::logsync {

enum class RecordSource : std::uint8_t { Xcal, Rtt, App, Passive };

// A normalized record: absolute time + source + an opaque payload index
// into the source's own storage (the database does not copy payloads).
struct ConsolidatedRecord {
  SimTime time;
  RecordSource source = RecordSource::Xcal;
  std::uint32_t stream = 0;   // which input stream it came from
  std::uint64_t payload = 0;  // index into that stream's records
};

class ConsolidatedDb {
 public:
  // Register a stream: its records' raw timestamp strings plus the clock
  // they were written with. Unparsable timestamps are counted and
  // skipped, not fatal (real logs have corrupt lines). Returns the stream
  // id.
  std::uint32_t add_stream(RecordSource source,
                           const std::vector<std::string>& timestamps,
                           const LogClock& clock);

  // Sort everything into one timeline. Call once after adding streams.
  void finalize();

  [[nodiscard]] const std::vector<ConsolidatedRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t dropped_records() const { return dropped_; }
  [[nodiscard]] bool finalized() const { return finalized_; }

  // For each record of `left_stream`, the payload index of the nearest
  // record of `right_stream` within `tolerance`, or -1 (the app->XCAL
  // join the study performed). Requires finalize().
  [[nodiscard]] std::vector<long> join_nearest(std::uint32_t left_stream,
                                               std::uint32_t right_stream,
                                               Millis tolerance) const;

 private:
  std::vector<ConsolidatedRecord> records_;
  std::size_t dropped_ = 0;
  std::uint32_t next_stream_ = 0;
  bool finalized_ = false;
};

}  // namespace wheels::logsync
