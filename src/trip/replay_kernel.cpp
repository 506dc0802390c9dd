#include "trip/replay_kernel.h"

#include <cstdint>

#include "obs/clock.h"
#include "obs/metrics.h"

namespace wheels::trip {
namespace {

// Batch preparation is wall-clock (scheduling-dependent); the slot count
// is a pure function of config + stride and must match across jobs.
struct KernelMetrics {
  obs::Counter& batch_us;
  obs::Counter& slots;
};

KernelMetrics& kernel_metrics() {
  // wheels-lint: allow(static-local)
  static KernelMetrics m{
      obs::Registry::global().counter("campaign.kernel.batch_us",
                                      obs::Det::WallClock),
      obs::Registry::global().counter("campaign.kernel.slots",
                                      obs::Det::Stable),
  };
  return m;
}

}  // namespace

void prepare_segment_batch(const Trajectory& traj, const TrajectorySegment& seg,
                           const ran::Deployment& dep,
                           const ran::OperatorProfile& profile,
                           ran::SegmentBatch& batch) {
  const std::int64_t start_ns = obs::now_ns();
  const std::size_t n = seg.end - seg.begin;
  batch.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TrajectoryPoint& pt = traj.points[seg.begin + i];
    batch.pos_m[i] = pt.position.value;
    batch.speed_mph[i] = pt.speed.value;
    batch.env[i] = pt.env;
    batch.tz[i] = pt.tz;
  }
  ran::fill_nearest_cells(dep, profile, batch);
  KernelMetrics& m = kernel_metrics();
  const std::int64_t d = obs::now_ns() - start_ns;
  m.batch_us.add(d > 0 ? static_cast<std::uint64_t>(d) / 1000 : 0);
  m.slots.add(n);
}

}  // namespace wheels::trip
