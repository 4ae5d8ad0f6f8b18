#include "speck/chain.h"

#include <algorithm>
#include <memory>

#include "matrix/matrix_stats.h"

namespace speck {

std::vector<offset_t> chain_pair_products(const std::vector<Csr>& chain) {
  std::vector<offset_t> products;
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    products.push_back(count_products(chain[i], chain[i + 1]));
  }
  return products;
}

ChainResult multiply_chain(std::vector<Csr> chain, SpGemmAlgorithm& algorithm) {
  ChainResult result;
  SPECK_REQUIRE(!chain.empty(), "chain must contain at least one matrix");
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    SPECK_REQUIRE(chain[i].cols() == chain[i + 1].rows(),
                  "chain matrices must be conformable");
  }

  while (chain.size() > 1) {
    const std::vector<offset_t> pair_products = chain_pair_products(chain);
    const auto cheapest =
        std::min_element(pair_products.begin(), pair_products.end());
    const auto index =
        static_cast<std::size_t>(cheapest - pair_products.begin());

    SpGemmResult step = algorithm.multiply(chain[index], chain[index + 1]);
    if (!step.ok()) {
      result.status = step.status;
      result.failure_reason = "contracting pair " + std::to_string(index) + ": " +
                              step.failure_reason;
      return result;
    }
    result.steps.push_back(ChainStep{index, *cheapest, step.seconds});
    result.seconds += step.seconds;
    result.total_products += *cheapest;

    chain[index] = std::move(step.c);
    chain.erase(chain.begin() + static_cast<std::ptrdiff_t>(index) + 1);
  }
  result.c = std::move(chain.front());
  return result;
}

ChainResult multiply_chain(std::vector<Csr> chain, Speck& speck,
                           PlanCache& cache) {
  ChainResult result;
  SPECK_REQUIRE(!chain.empty(), "chain must contain at least one matrix");
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    SPECK_REQUIRE(chain[i].cols() == chain[i + 1].rows(),
                  "chain matrices must be conformable");
  }

  while (chain.size() > 1) {
    const std::vector<offset_t> pair_products = chain_pair_products(chain);
    const auto cheapest =
        std::min_element(pair_products.begin(), pair_products.end());
    const auto index =
        static_cast<std::size_t>(cheapest - pair_products.begin());
    const Csr& a = chain[index];
    const Csr& b = chain[index + 1];

    // The key plan() itself stamps: a configured mask is part of it.
    const SpeckConfig& cfg = speck.config();
    SpGemmResult step;
    bool reused = false;
    if (const std::shared_ptr<const SpeckPlan> plan =
            cache.find(plan_fingerprint(a, b, cfg.mask.get(), cfg))) {
      step = speck.multiply_with_plan(*plan, a, b);
      reused = step.ok();
    }
    // A miss, or a hit the replay rejected: plan afresh.
    if (!reused) {
      SpeckPlan fresh = speck.plan(a, b, &step);
      // An incomplete plan could never replay; keep it out of the cache.
      if (fresh.complete) {
        cache.insert(std::make_shared<const SpeckPlan>(std::move(fresh)));
      }
    }
    if (!step.ok()) {
      result.status = step.status;
      result.failure_reason = "contracting pair " + std::to_string(index) + ": " +
                              step.failure_reason;
      return result;
    }
    result.steps.push_back(ChainStep{index, *cheapest, step.seconds, reused});
    result.seconds += step.seconds;
    result.total_products += *cheapest;

    chain[index] = std::move(step.c);
    chain.erase(chain.begin() + static_cast<std::ptrdiff_t>(index) + 1);
  }
  result.c = std::move(chain.front());
  return result;
}

}  // namespace speck
