#pragma once

// The Uber-mode ApplicationMaster: every task runs inside the AM's own
// container — no per-task container requests, launches, or remote
// shuffle. With UberOptions{parallel=false, cache_in_memory=false}
// this is Hadoop's original Uber mode (strictly sequential maps,
// intermediate data spilled to local disk). MRapid's U+ mode sets
// parallel=true (n_u^m = n^c * n_c^m maps in flight) and
// cache_in_memory=true (intermediate data held in RAM while it fits
// the cache budget).

#include "mapreduce/am_base.h"

namespace mrapid::mr {

class UberAppMaster : public AmBase {
 public:
  using AmBase::AmBase;

  void start(const yarn::Container& am_container) override;

  // Maps that can run concurrently under the current options.
  int wave_width() const;
  Bytes cache_used() const { return cache_used_; }
  int spilled_maps() const { return spilled_maps_; }

 private:
  void pump_maps();
  void dispatch_next();
  void launch_map(std::size_t split_index);
  MapTaskOptions make_map_options();
  void on_map_done(MapTaskResult result);
  void start_reduces();

  std::size_t next_split_ = 0;
  int running_maps_ = 0;
  bool dispatching_ = false;
  Bytes cache_used_ = 0;
  int spilled_maps_ = 0;
};

}  // namespace mrapid::mr
