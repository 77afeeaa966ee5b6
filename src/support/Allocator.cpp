//===- support/Allocator.cpp - Process-wide allocator settings ------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Allocator.h"

#include <cstdlib> // Defines __GLIBC__ when built against glibc.
#if defined(__GLIBC__)
#include <malloc.h>
#endif

using namespace qlosure;

void qlosure::pinMallocThresholds() {
#if defined(__GLIBC__)
  // Well above the largest per-request buffer of the benchmark circuits
  // (a few hundred KiB); the trim threshold keeps glibc's 2x ratio.
  mallopt(M_MMAP_THRESHOLD, 4 << 20);
  mallopt(M_TRIM_THRESHOLD, 8 << 20);
#endif
}
