#include "core/geo.h"

#include <cmath>
#include <numbers>

namespace wheels {
namespace {

constexpr double kEarthRadiusM = 6'371'000.0;

constexpr double deg2rad(double d) { return d * std::numbers::pi / 180.0; }

}  // namespace

Meters haversine_distance(const LatLon& a, const LatLon& b) {
  const double phi1 = deg2rad(a.lat);
  const double phi2 = deg2rad(b.lat);
  const double dphi = deg2rad(b.lat - a.lat);
  const double dlam = deg2rad(b.lon - a.lon);
  const double s = std::sin(dphi / 2) * std::sin(dphi / 2) +
                   std::cos(phi1) * std::cos(phi2) * std::sin(dlam / 2) *
                       std::sin(dlam / 2);
  return Meters{2.0 * kEarthRadiusM *
                std::atan2(std::sqrt(s), std::sqrt(1.0 - s))};
}

LatLon interpolate(const LatLon& a, const LatLon& b, double t) {
  return LatLon{a.lat + (b.lat - a.lat) * t, a.lon + (b.lon - a.lon) * t};
}

}  // namespace wheels
