#include "dot/provisioner.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/thread_pool.h"

namespace dot {

ProvisioningResult ProvisionOverOptions(
    const std::vector<ProvisioningOption>& options, int num_threads) {
  DOT_CHECK(!options.empty()) << "no storage configurations to provision";
  ProvisioningResult out;
  out.per_option.resize(options.size());

  // The fan-out can never use more lanes than there are options; spare
  // lanes would just sit parked on the pool's condition variable.
  ThreadPool pool(std::min<int>(ThreadPool::ResolveThreadCount(num_threads),
                                static_cast<int>(options.size())));
  pool.ParallelFor(0, static_cast<int64_t>(options.size()), [&](int64_t i) {
    DotOptimizer optimizer(options[static_cast<size_t>(i)].make_problem());
    out.per_option[static_cast<size_t>(i)] = optimizer.Optimize();
  });

  // Select the winner sequentially in option order (first strictly-lower
  // TOC wins) — the same scan the serial loop performed, independent of
  // which thread finished which option first.
  double best_toc = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < options.size(); ++i) {
    const DotResult& result = out.per_option[i];
    if (result.status.ok() && result.toc_cents_per_task < best_toc) {
      best_toc = result.toc_cents_per_task;
      out.best_option = static_cast<int>(i);
      out.best_name = options[i].name;
      out.best = result;
    }
  }
  return out;
}

}  // namespace dot
