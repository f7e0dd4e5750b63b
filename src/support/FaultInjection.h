//===- support/FaultInjection.h - Deterministic fault points -------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named fault points for crash-safety testing (docs/ROBUSTNESS.md).  Code
/// on a fallible path calls fault::check("file.write", Path); when the
/// point is armed for that call number the check returns a failure Error,
/// exercising the same error path a real I/O fault would.  Arming is
/// deterministic — "fail the Nth call, for Count calls" — so a test can
/// place a fault at any depth of a multi-step operation and replay it
/// exactly.
///
/// Points are armed programmatically (arm / armFromSpec) or from the
/// environment: GPROF_FAULT="point:nth[:count][,point:nth[:count]...]"
/// is read once, on the first check() in the process, so any CLI can be
/// fault-tested without argv changes.  Count 0 means "every call from the
/// Nth on".  When nothing is armed a check is one relaxed atomic load.
///
/// Fault points wired in today:
///   file.read    FileUtils readFileBytes and MappedFile::open (and
///                everything above them — the gate is shared so one arm
///                covers both the copying and the zero-copy read paths)
///   file.mmap    MappedFile::open, between open and map: a map-layer
///                failure surfaces as a clean error, never a crash
///   file.write   FileUtils writeFileBytes / writeFileBytesAtomic
///   file.rename  FileUtils renameFile (atomic-write commit step)
///   file.append  FileUtils AppendFile::writeAt (the store's index journal);
///                a fired call writes half its bytes first, a torn prefix
///   file.truncate FileUtils AppendFile::truncate (journal cut-back)
///   store.put    ProfileStore::put entry
///   store.merge  ProfileStore::merge entry
///   store.gc     ProfileStore::gc entry
///   store.compact ProfileStore::compactStep entry (tiered run folding)
///   sock.connect Socket UnixSocket::connectTo
///   sock.accept  Socket UnixListener::accept
///   sock.read    Socket UnixSocket::recvSome (daemon + client frame reads)
///   sock.write   Socket UnixSocket::sendAll (daemon + client frame writes)
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_SUPPORT_FAULTINJECTION_H
#define GPROF_SUPPORT_FAULTINJECTION_H

#include "support/Error.h"

#include <cstdint>
#include <string>

namespace gprof {
namespace fault {

/// Arms \p Point to fail calls [Nth, Nth + Count) (1-based).  Count 0
/// fails every call from the Nth on.  Re-arming a point replaces its
/// previous schedule and zeroes its call counter.
void arm(const std::string &Point, uint64_t Nth, uint64_t Count = 1);

/// Disarms every point and zeroes all counters.
void disarmAll();

/// Arms from a spec string: "point:nth[:count]" entries separated by
/// commas.  Returns a failure naming the malformed entry, arming nothing.
Error armFromSpec(const std::string &Spec);

/// The fallible-path hook: counts one call of \p Point and returns a
/// failure Error if the call is scheduled to fail.  \p Detail names the
/// operation's target (a file path, a store root) in the message.  The
/// GPROF_FAULT environment spec is loaded on the first call.
Error check(const char *Point, const std::string &Detail);

/// Calls observed at \p Point since it was last (re-)armed.
uint64_t callCount(const std::string &Point);

/// Failures injected at \p Point since it was last (re-)armed.
uint64_t firedCount(const std::string &Point);

/// True if any point is currently armed.
bool anyArmed();

} // namespace fault
} // namespace gprof

#endif // GPROF_SUPPORT_FAULTINJECTION_H
