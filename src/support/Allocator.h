//===- support/Allocator.h - Process-wide allocator settings -----*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed malloc thresholds for the long-running daemons.
///
/// glibc moves its mmap threshold up to the largest mmap-backed block
/// freed so far and its trim threshold to twice that. A daemon's
/// per-request buffers (a request line, its QASM, the response frame,
/// each a few hundred KiB for a 10k-gate circuit) then come from the heap
/// or from a fresh mapping, and are or are not handed back to the kernel
/// on free, depending on which buffers the process happened to free
/// first: serving the same cached result cost a different number of page
/// faults from one daemon start to the next. Fixed thresholds make that
/// cost the same in every run (docs/ARCHITECTURE.md has the numbers).
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_SUPPORT_ALLOCATOR_H
#define QLOSURE_SUPPORT_ALLOCATOR_H

namespace qlosure {

/// Serves blocks under 4 MiB from the heap and keeps up to 8 MiB of free
/// memory at a heap's top; fixing them also turns off glibc's dynamic
/// adjustment. Call once at process start, before any thread is spawned.
/// A no-op on other C libraries.
void pinMallocThresholds();

} // namespace qlosure

#endif // QLOSURE_SUPPORT_ALLOCATOR_H
