#include "clean/problem.h"

#include <cmath>
#include <sstream>

#include "quality/tp.h"

namespace uclean {

Status CleaningProfile::Validate(size_t num_xtuples) const {
  if (costs.size() != num_xtuples || sc_probs.size() != num_xtuples) {
    return Status::InvalidArgument(
        "cleaning profile size does not match the database (" +
        std::to_string(costs.size()) + " costs, " +
        std::to_string(sc_probs.size()) + " sc-probs, " +
        std::to_string(num_xtuples) + " x-tuples)");
  }
  for (size_t l = 0; l < num_xtuples; ++l) {
    if (costs[l] < 1) {
      return Status::InvalidArgument("cleaning cost of x-tuple " +
                                     std::to_string(l) + " must be >= 1");
    }
    if (!(sc_probs[l] >= 0.0) || sc_probs[l] > 1.0) {
      return Status::InvalidArgument("sc-probability of x-tuple " +
                                     std::to_string(l) +
                                     " must be in [0, 1]");
    }
  }
  return Status::OK();
}

Status CleaningProblem::Validate() const {
  const size_t m = gain.size();
  if (topk_mass.size() != m || cost.size() != m || sc_prob.size() != m) {
    return Status::InvalidArgument("cleaning problem vectors disagree on m");
  }
  if (budget < 0) return Status::InvalidArgument("budget must be >= 0");
  for (size_t l = 0; l < m; ++l) {
    if (cost[l] < 1) {
      return Status::InvalidArgument("cost of x-tuple " + std::to_string(l) +
                                     " must be >= 1");
    }
    if (!(sc_prob[l] >= 0.0) || sc_prob[l] > 1.0) {
      return Status::InvalidArgument("sc-probability of x-tuple " +
                                     std::to_string(l) +
                                     " must be in [0, 1]");
    }
    if (gain[l] > 1e-12) {
      return Status::InvalidArgument("gain g(l,D) of x-tuple " +
                                     std::to_string(l) +
                                     " must be <= 0 (got " +
                                     std::to_string(gain[l]) + ")");
    }
  }
  return Status::OK();
}

double CleaningProblem::MarginalValue(size_t l, int64_t j) const {
  if (j <= 0) return 0.0;
  const double p = sc_prob[l];
  // pow(x, 0) is exactly 1.0 for every x, so the first probe -- the one
  // PlanGreedy prices for every x-tuple -- skips the call: same bits.
  if (j == 1) return -p * gain[l];
  return -std::pow(1.0 - p, static_cast<double>(j - 1)) * p * gain[l];
}

double CleaningProblem::XTupleImprovement(size_t l, int64_t probes) const {
  if (probes <= 0) return 0.0;
  const double p = sc_prob[l];
  return -(1.0 - std::pow(1.0 - p, static_cast<double>(probes))) * gain[l];
}

size_t CleaningPlan::num_selected() const {
  size_t count = 0;
  for (int64_t m : probes) {
    if (m > 0) ++count;
  }
  return count;
}

std::string CleaningPlan::ToString() const {
  std::ostringstream os;
  os << "CleaningPlan{I=" << expected_improvement << ", cost=" << total_cost
     << ", probes={";
  bool first = true;
  for (size_t l = 0; l < probes.size(); ++l) {
    if (probes[l] == 0) continue;
    if (!first) os << ", ";
    os << "x" << l << ":" << probes[l];
    first = false;
  }
  os << "}}";
  return os.str();
}

double ExpectedImprovement(const CleaningProblem& problem,
                           const std::vector<int64_t>& probes) {
  double total = 0.0;
  for (size_t l = 0; l < probes.size(); ++l) {
    total += problem.XTupleImprovement(l, probes[l]);
  }
  return total;
}

int64_t PlanCost(const CleaningProblem& problem,
                 const std::vector<int64_t>& probes) {
  int64_t total = 0;
  for (size_t l = 0; l < probes.size(); ++l) {
    total += probes[l] * problem.cost[l];
  }
  return total;
}

Result<CleaningProblem> MakeCleaningProblem(const ProbabilisticDatabase& db,
                                            size_t k,
                                            const CleaningProfile& profile,
                                            int64_t budget) {
  // Cheap checks before the O(kn) pass.
  UCLEAN_RETURN_IF_ERROR(profile.Validate(db.num_xtuples()));
  if (budget < 0) return Status::InvalidArgument("budget must be >= 0");
  Result<TpOutput> tp = ComputeTpQuality(db, k);
  if (!tp.ok()) return tp.status();
  return MakeCleaningProblem(*tp, profile, budget);
}

Result<CleaningProblem> MakeCleaningProblem(const TpOutput& tp,
                                            const CleaningProfile& profile,
                                            int64_t budget) {
  UCLEAN_RETURN_IF_ERROR(profile.Validate(tp.xtuple_gain.size()));
  if (budget < 0) return Status::InvalidArgument("budget must be >= 0");

  CleaningProblem problem;
  problem.gain = tp.xtuple_gain;
  // Clamp away positive rounding residue so Validate() and the planners can
  // rely on gain <= 0 (mathematically g(l,D) is a sum of entropy terms <= 0).
  for (double& g : problem.gain) {
    if (g > 0.0) g = 0.0;
  }
  problem.topk_mass = tp.xtuple_topk_mass;
  problem.cost = profile.costs;
  problem.sc_prob = profile.sc_probs;
  problem.budget = budget;
  return problem;
}

double LadderRungWeight(const std::vector<double>& weights, size_t rungs,
                        size_t j) {
  return weights.empty() ? 1.0 / static_cast<double>(rungs) : weights[j];
}

Result<CleaningProblem> MakeCleaningProblem(const std::vector<TpOutput>& tps,
                                            const std::vector<double>& weights,
                                            const CleaningProfile& profile,
                                            int64_t budget) {
  if (tps.empty()) {
    return Status::InvalidArgument("quality ladder must not be empty");
  }
  const size_t rungs = tps.size();
  if (!weights.empty() && weights.size() != rungs) {
    return Status::InvalidArgument(
        "plan weights must match the ladder (" +
        std::to_string(weights.size()) + " weights, " +
        std::to_string(rungs) + " rungs)");
  }
  double weight_sum = 0.0;
  for (double w : weights) {
    if (!(w >= 0.0)) {
      return Status::InvalidArgument("plan weights must be >= 0");
    }
    weight_sum += w;
  }
  if (!weights.empty() && weight_sum <= 0.0) {
    return Status::InvalidArgument("plan weights must not all be zero");
  }
  const size_t num_xtuples = tps[0].xtuple_gain.size();
  for (const TpOutput& tp : tps) {
    if (tp.xtuple_gain.size() != num_xtuples) {
      return Status::InvalidArgument(
          "ladder TP states disagree on the x-tuple count");
    }
  }
  UCLEAN_RETURN_IF_ERROR(profile.Validate(num_xtuples));
  if (budget < 0) return Status::InvalidArgument("budget must be >= 0");

  CleaningProblem problem;
  problem.gain.assign(num_xtuples, 0.0);
  problem.topk_mass.assign(num_xtuples, 0.0);
  for (size_t j = 0; j < rungs; ++j) {
    const double w = LadderRungWeight(weights, rungs, j);
    for (size_t l = 0; l < num_xtuples; ++l) {
      problem.gain[l] += w * tps[j].xtuple_gain[l];
      problem.topk_mass[l] += w * tps[j].xtuple_topk_mass[l];
    }
  }
  for (double& g : problem.gain) {
    if (g > 0.0) g = 0.0;  // same rounding-residue clamp as the single form
  }
  problem.cost = profile.costs;
  problem.sc_prob = profile.sc_probs;
  problem.budget = budget;
  return problem;
}

}  // namespace uclean
