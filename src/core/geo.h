// Geodesy helpers for the drive-route model.
#pragma once

#include "core/units.h"

namespace wheels {

// A WGS-84 coordinate. Degrees; west longitudes are negative.
struct LatLon {
  double lat = 0.0;
  double lon = 0.0;

  friend constexpr bool operator==(const LatLon&, const LatLon&) = default;
};

// Great-circle distance (haversine, spherical earth R = 6371 km). Accurate
// to ~0.5% which is ample for coverage bookkeeping.
[[nodiscard]] Meters haversine_distance(const LatLon& a, const LatLon& b);

// Linear interpolation between two coordinates. Fine over the < 500 km legs
// used by the route model.
[[nodiscard]] LatLon interpolate(const LatLon& a, const LatLon& b, double t);

}  // namespace wheels
