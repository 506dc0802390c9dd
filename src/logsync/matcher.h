// Matching application log files to their XCAL (.drm) counterparts and
// aligning their sample timelines -- the study's post-processing pipeline.
//
// An XCAL file is named with a *local-time* timestamp
// ("XCAL_Verizon_2022-08-10_14-02-05.drm") while its *contents* are
// EDT-stamped; an app log knows its own clock (UTC or local). The matcher
// normalizes both to absolute campaign time and pairs each app log with
// the XCAL file whose recording interval covers it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "logsync/timestamp.h"

namespace wheels::logsync {

struct XcalFile {
  std::string filename;       // "XCAL_<op>_2022-08-10_14-02-05.drm"
  SimTime content_start;      // derived from EDT-stamped contents
  SimTime content_end;
};

struct AppLogFile {
  std::string name;
  LogClock clock;             // how this app stamps records
  std::string first_record;   // e.g. "2022-08-10 18:02:06.000"
  std::string last_record;
};

// Compose the .drm filename for a recording that starts at `start` while
// the vehicle is in `local_tz`.
[[nodiscard]] std::string xcal_filename(const std::string& op, SimTime start,
                                        TimeZone local_tz);

// Absolute [start, end] of an app log, or nullopt if its records are
// unparsable.
[[nodiscard]] std::optional<std::pair<SimTime, SimTime>> app_log_interval(
    const AppLogFile& log);

// Index (into `xcal`) of the file whose content interval overlaps the app
// log the most; nullopt when nothing overlaps.
[[nodiscard]] std::optional<std::size_t> match_app_log(
    const AppLogFile& log, const std::vector<XcalFile>& xcal);

// Align two sample timelines: for each left timestamp, the index of the
// nearest right timestamp within `tolerance`, or -1. Both inputs must be
// sorted ascending.
[[nodiscard]] std::vector<long> align_timelines(
    const std::vector<SimTime>& left, const std::vector<SimTime>& right,
    Millis tolerance);

}  // namespace wheels::logsync
