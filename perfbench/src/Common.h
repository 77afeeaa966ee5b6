//===- perfbench/src/Common.h - Shared benchmark helpers ------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clock, order statistics and metric-record helpers shared by the
/// benchmark's load generator and its per-layer replay.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_PERFBENCH_COMMON_H
#define QLOSURE_PERFBENCH_COMMON_H

#include "support/Json.h"

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double>(To - From).count();
}

inline double msBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double, std::milli>(To - From).count();
}

/// Quantile \p Q in [0, 1] by linear interpolation between order
/// statistics (the "inclusive" method). 0 for an empty sample.
double quantile(std::vector<double> Values, double Q);

/// Median and quartiles of one sample, as recorded next to every metric.
struct Spread {
  size_t N = 0;
  double Median = 0;
  double Q1 = 0;
  double Q3 = 0;
};

Spread spreadOf(const std::vector<double> &Values);

double meanOf(const std::vector<double> &Values);

/// One reported metric: {"value", "unit"} plus, when the value summarises
/// a sample, that sample's size, median, quartiles and IQR.
qlosure::json::Value metricRecord(double Value, const char *Unit,
                                  const Spread *Sample = nullptr);

} // namespace perfbench

#endif // QLOSURE_PERFBENCH_COMMON_H
