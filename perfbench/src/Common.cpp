//===- perfbench/src/Common.cpp - Shared benchmark helpers ----------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cmath>

using namespace qlosure;

double perfbench::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

perfbench::Spread perfbench::spreadOf(const std::vector<double> &Values) {
  Spread S;
  S.N = Values.size();
  S.Median = quantile(Values, 0.5);
  S.Q1 = quantile(Values, 0.25);
  S.Q3 = quantile(Values, 0.75);
  return S;
}

double perfbench::meanOf(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double Sum = 0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

json::Value perfbench::metricRecord(double Value, const char *Unit,
                                    const Spread *Sample) {
  json::Value M = json::Value::object();
  M.set("value", Value);
  M.set("unit", Unit);
  if (Sample) {
    M.set("n", static_cast<uint64_t>(Sample->N));
    M.set("median", Sample->Median);
    M.set("q1", Sample->Q1);
    M.set("q3", Sample->Q3);
    M.set("iqr", Sample->Q3 - Sample->Q1);
  }
  return M;
}
