// Streams captured by lambdas. A lambda body is a block of its enclosing
// function: a fork inside a worker body chains to the function's own
// root, and two lambdas of one function that fork the same label off
// that root collide even when they are handed to different callees.
#include "core/rng.h"

namespace wheels {

struct Config {
  unsigned long long seed = 1;
};

template <typename Fn>
void parallel_for_each(int jobs, unsigned count, Fn&& fn);
template <typename Fn>
void for_each_city(unsigned count, Fn&& fn);

void fan_out(const Config& cfg) {
  Rng root(cfg.seed);
  const Rng base = root.fork("static");
  parallel_for_each(2, 3u, [&](unsigned city) {
    // wheels-rng: dynamic(one stream per city)
    const Rng city_rng = base.fork(city);
    Rng tcp = city_rng.fork("tcp");
    (void)tcp.next_u64();
  });
  parallel_for_each(2, 3u, [&](unsigned) {
    Rng worker = root.fork("worker");
    (void)worker.next_u64();
  });
  for_each_city(3u, [&](unsigned) {
    Rng worker = root.fork("worker");
    (void)worker.next_u64();
  });
}

}  // namespace wheels
