#include "metrics/cost_model.hpp"

#include "support/error.hpp"
#include "support/stats.hpp"

namespace vebo::metrics {

CostModel fit_cost_model(const PartitionProfile& profile,
                         const std::vector<double>& times) {
  const std::size_t P = times.size();
  VEBO_CHECK(profile.edges.size() == P, "cost model: size mismatch");
  std::vector<std::vector<double>> X(P);
  for (std::size_t p = 0; p < P; ++p)
    X[p] = {static_cast<double>(profile.edges[p]),
            static_cast<double>(profile.dests[p]),
            static_cast<double>(profile.sources[p])};
  const std::vector<double> beta = least_squares(X, times);
  CostModel m;
  m.per_edge = beta[0];
  m.per_dest = beta[1];
  m.per_source = beta[2];
  m.fixed = beta[3];
  // R^2 of the edges-only fit, to show edges alone underexplain time.
  std::vector<double> ex(P);
  for (std::size_t p = 0; p < P; ++p) ex[p] = X[p][0];
  m.r2 = linear_fit(ex, times).r2;
  return m;
}

FeatureCorrelations time_feature_correlations(
    const PartitionProfile& profile, const std::vector<double>& times) {
  const std::size_t P = times.size();
  VEBO_CHECK(profile.edges.size() == P, "correlations: size mismatch");
  std::vector<double> e(P), d(P), s(P);
  for (std::size_t p = 0; p < P; ++p) {
    e[p] = static_cast<double>(profile.edges[p]);
    d[p] = static_cast<double>(profile.dests[p]);
    s[p] = static_cast<double>(profile.sources[p]);
  }
  FeatureCorrelations c;
  c.edges = correlation(e, times);
  c.dests = correlation(d, times);
  c.sources = correlation(s, times);
  return c;
}

}  // namespace vebo::metrics
