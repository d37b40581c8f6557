#pragma once

// The experiment registry: every figure/table of the paper (and every
// extension experiment) registers a name, a one-line description and a
// ScenarioSpec factory. The `mrapid_bench` driver lists, filters and
// runs registered experiments; each former bench binary is now one
// registration file compiled into that single driver.

#include <functional>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "exp/scenario.h"

namespace mrapid::exp {

struct ExperimentDef {
  std::string name;         // short handle: "fig7", "table2", "speculative"
  std::string description;  // one line for --list
  std::function<ScenarioSpec(const SweepOptions&)> make;
  // Skipped by a plain `mrapid_bench` run; only executes when a filter
  // names it. Used by the sim_core wall-clock benchmark, whose output
  // can never be byte-reproducible.
  bool only_on_request = false;
};

class ExperimentRegistry {
 public:
  // The global registry the driver binary uses; tests construct their
  // own instances.
  static ExperimentRegistry& instance();

  ExperimentRegistry() = default;

  // Throws std::invalid_argument on a duplicate name.
  void add(ExperimentDef def);

  const ExperimentDef* find(const std::string& name) const;

  // Experiments whose name contains `filter` (all when empty), in
  // natural-sort order (fig7 before fig10). With an empty filter,
  // only_on_request experiments are excluded.
  std::vector<const ExperimentDef*> select(const std::string& filter) const;

  // Every registration (only_on_request included), natural-sorted.
  std::vector<const ExperimentDef*> all() const;

  std::size_t size() const { return experiments_.size(); }

 private:
  std::vector<ExperimentDef> experiments_;
};

// File-scope static helper: registers into the global registry at
// program start.
class Registrar {
 public:
  Registrar(std::string name, std::string description,
            std::function<ScenarioSpec(const SweepOptions&)> make,
            bool only_on_request = false) {
    ExperimentRegistry::instance().add(
        {std::move(name), std::move(description), std::move(make), only_on_request});
  }
};

}  // namespace mrapid::exp
