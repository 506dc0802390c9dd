#include <gtest/gtest.h>

#include "core/geo.h"

namespace wheels {
namespace {

const LatLon kLosAngeles{34.05, -118.24};
const LatLon kBoston{42.36, -71.06};
const LatLon kLasVegas{36.17, -115.14};

TEST(Geo, HaversineZeroForSamePoint) {
  EXPECT_DOUBLE_EQ(haversine_distance(kBoston, kBoston).value, 0.0);
}

TEST(Geo, HaversineSymmetric) {
  EXPECT_NEAR(haversine_distance(kLosAngeles, kBoston).value,
              haversine_distance(kBoston, kLosAngeles).value, 1e-6);
}

TEST(Geo, LaToBostonGreatCircle) {
  // Known great-circle distance ~4,170 km.
  const Meters d = haversine_distance(kLosAngeles, kBoston);
  EXPECT_NEAR(d.kilometers(), 4170.0, 60.0);
}

TEST(Geo, LaToVegas) {
  const Meters d = haversine_distance(kLosAngeles, kLasVegas);
  EXPECT_NEAR(d.kilometers(), 368.0, 15.0);
}

TEST(Geo, TriangleInequalityViaWaypoint) {
  const double direct = haversine_distance(kLosAngeles, kBoston).value;
  const double via = haversine_distance(kLosAngeles, kLasVegas).value +
                     haversine_distance(kLasVegas, kBoston).value;
  EXPECT_LE(direct, via + 1.0);
}

TEST(Geo, InterpolateEndpoints) {
  EXPECT_EQ(interpolate(kLosAngeles, kBoston, 0.0), kLosAngeles);
  EXPECT_EQ(interpolate(kLosAngeles, kBoston, 1.0), kBoston);
  const LatLon mid = interpolate(kLosAngeles, kBoston, 0.5);
  EXPECT_NEAR(mid.lat, (kLosAngeles.lat + kBoston.lat) / 2, 1e-12);
  EXPECT_NEAR(mid.lon, (kLosAngeles.lon + kBoston.lon) / 2, 1e-12);
}

}  // namespace
}  // namespace wheels
