//===- tools/tlrun.cpp - Run a TLX image, emitting profile data -----------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes an image on the VM.  If the image was compiled with profiling
/// (or --force-monitor is given), a Monitor gathers arcs and PC samples
/// during execution and condenses them to a gmon file at exit — the
/// paper's "gather profiling data in memory during program execution and
/// ... condense it to a file as the profiled program exits".  With
/// --threads N the image runs on N interpreter threads sharing that one
/// monitor, and the written profile is the canonical merge of every
/// thread's tables (docs/RUNTIME_MT.md).  With --push SOCKET the same
/// condensed profile is also uploaded to a `gprof-store serve` daemon,
/// turning every run into a continuous-profiling sample (docs/SERVE.md).
///
//===----------------------------------------------------------------------===//

#include "gmon/GmonFile.h"
#include "runtime/Monitor.h"
#include "serve/Client.h"
#include "support/CommandLine.h"
#include "support/FileUtils.h"
#include "support/Format.h"
#include "support/MappedFile.h"
#include "support/Sha256.h"
#include "support/Telemetry.h"
#include "support/TraceWriter.h"
#include "vm/ParallelRun.h"
#include "vm/VM.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace gprof;

int main(int Argc, char **Argv) {
  OptionParser Opts("tlrun", "execute a TLX image on the virtual machine");
  Opts.setPositionalHelp("image.tlx");
  Opts.addOption("gmon", 'g', "FILE",
                 "profile output path (default gmon.out)");
  Opts.addOption("hz", 0, "N", "sampling ticks per second (default 60)");
  Opts.addOption("cycles-per-tick", 0, "N",
                 "virtual cycles per clock tick (default 10000)");
  Opts.addOption("bucket-size", 0, "N",
                 "histogram bucket granularity in addresses (default 1)");
  Opts.addOption("table", 't', "KIND",
                 "arc table: bsd, open, or map (default bsd)");
  Opts.addOption("threads", 'T', "N",
                 "run N interpreter threads over the image, sharing one "
                 "monitor (default 1)");
  Opts.addFlag("no-sample", 0, "disable the PC sample histogram");
  Opts.addFlag("no-arcs", 0, "disable call graph arc recording");
  Opts.addFlag("contexts", 'c',
               "also record the calling-context tree (exact per-context "
               "times; read back with gprof --contexts / --prop-error)");
  Opts.addOption("cct-node-limit", 0, "N",
                 "per-thread context-tree node budget (default 1048576)");
  Opts.addFlag("force-monitor", 0,
               "attach the monitor even if nothing was compiled with --pg");
  Opts.addOption("push", 'p', "SOCKET",
                 "also upload the profile to the gprof-store serve daemon "
                 "listening on SOCKET");
  Opts.addOption("trace-out", 0, "FILE",
                 "write run/push spans as Chrome trace-event JSON to FILE; "
                 "push spans carry the daemon's request id");
  Opts.addFlag("quiet", 'q', "suppress printed program output");

  if (Error E = Opts.parse(Argc, Argv)) {
    std::fprintf(stderr, "tlrun: %s\n", E.message().c_str());
    return 1;
  }
  if (Opts.hasFlag("help")) {
    std::printf("%s", Opts.helpText().c_str());
    return 0;
  }
  if (Opts.positional().size() != 1) {
    std::fprintf(stderr, "tlrun: expected exactly one image\n");
    return 1;
  }

  auto Img = Image::loadFromFile(Opts.positional().front());
  if (!Img) {
    std::fprintf(stderr, "tlrun: %s\n", Img.message().c_str());
    return 1;
  }

  std::optional<std::string> TracePath = Opts.getValue("trace-out");
  if (TracePath) {
    telemetry::Registry::instance().enableSpans(true);
    telemetry::Registry::instance().setCurrentThreadName("main");
  }

  auto ParseU64 = [&](const char *Name, uint64_t Default,
                      uint64_t Max = UINT64_MAX) -> uint64_t {
    auto V = Opts.getValue(Name);
    if (!V)
      return Default;
    unsigned long long Parsed;
    if (!parseUInt64(*V, Parsed) || Parsed == 0) {
      std::fprintf(stderr, "tlrun: invalid --%s value '%s'\n", Name,
                   V->c_str());
      std::exit(1);
    }
    if (Parsed > Max) {
      std::fprintf(stderr, "tlrun: --%s value '%s' is out of range (at most "
                           "%llu)\n",
                   Name, V->c_str(), static_cast<unsigned long long>(Max));
      std::exit(1);
    }
    return Parsed;
  };

  VMOptions VO;
  VO.CyclesPerTick = ParseU64("cycles-per-tick", 10000);
  VM Machine(*Img, VO);

  bool AnyProfiled = false;
  for (const FuncInfo &F : Img->Functions)
    AnyProfiled |= F.Profiled;

  MonitorOptions MO;
  MO.HistBucketSize = ParseU64("bucket-size", 1);
  MO.TicksPerSecond = ParseU64("hz", 60);
  MO.SampleHistogram = !Opts.hasFlag("no-sample");
  MO.RecordArcs = !Opts.hasFlag("no-arcs");
  MO.RecordContexts = Opts.hasFlag("contexts");
  MO.CctNodeLimit = static_cast<uint32_t>(
      ParseU64("cct-node-limit", 1u << 20, UINT32_MAX));
  if (auto Table = Opts.getValue("table")) {
    if (*Table == "bsd") {
      MO.TableKind = ArcTableKind::Bsd;
    } else if (*Table == "open") {
      MO.TableKind = ArcTableKind::OpenAddressing;
    } else if (*Table == "map") {
      MO.TableKind = ArcTableKind::StdMap;
    } else {
      std::fprintf(stderr, "tlrun: unknown arc table kind '%s'\n",
                   Table->c_str());
      return 1;
    }
  }

  // The bound `gprof-store serve` puts on its --jobs worker count.
  const unsigned ThreadCount =
      static_cast<unsigned>(ParseU64("threads", 1, 1024));

  std::unique_ptr<Monitor> Mon;
  if (AnyProfiled || Opts.hasFlag("force-monitor")) {
    Mon = std::make_unique<Monitor>(Img->lowPc(), Img->highPc(), MO);
    Machine.setHooks(Mon.get());
  }

  if (ThreadCount > 1) {
    // The concurrent workload: every thread runs the image's entry
    // function on its own VM, all feeding the one shared Monitor.
    auto Results = runOnThreads(*Img, VO, Mon.get(), ThreadCount);
    if (!Results) {
      std::fprintf(stderr, "tlrun: %s\n", Results.message().c_str());
      return 1;
    }
    uint64_t Instructions = 0, Cycles = 0, Ticks = 0;
    for (size_t T = 0; T != Results->size(); ++T) {
      const RunResult &R = (*Results)[T];
      if (!Opts.hasFlag("quiet"))
        for (int64_t V : R.Printed)
          std::printf("[thread %zu] %lld\n", T, static_cast<long long>(V));
      Instructions += R.Instructions;
      Cycles += R.Cycles;
      Ticks += R.Ticks;
    }
    std::fprintf(stderr,
                 "tlrun: %u threads, exit value %lld, %llu instructions, "
                 "%llu cycles, %llu ticks\n",
                 ThreadCount,
                 static_cast<long long>(Results->front().ExitValue),
                 static_cast<unsigned long long>(Instructions),
                 static_cast<unsigned long long>(Cycles),
                 static_cast<unsigned long long>(Ticks));
  } else {
    auto Result = Machine.run();
    if (!Result) {
      std::fprintf(stderr, "tlrun: %s\n", Result.message().c_str());
      return 1;
    }

    if (!Opts.hasFlag("quiet"))
      for (int64_t V : Result->Printed)
        std::printf("%lld\n", static_cast<long long>(V));
    std::fprintf(stderr,
                 "tlrun: exit value %lld, %llu instructions, %llu cycles, "
                 "%llu ticks\n",
                 static_cast<long long>(Result->ExitValue),
                 static_cast<unsigned long long>(Result->Instructions),
                 static_cast<unsigned long long>(Result->Cycles),
                 static_cast<unsigned long long>(Result->Ticks));
  }

  if (Mon) {
    ProfileData Prof = Mon->finish();
    std::string GmonPath = Opts.getValue("gmon").value_or("gmon.out");
    if (Error E = writeGmonFile(GmonPath, Prof)) {
      std::fprintf(stderr, "tlrun: %s\n", E.message().c_str());
      return 1;
    }
    std::fprintf(stderr, "tlrun: profile written to %s\n", GmonPath.c_str());

    // Continuous profiling: push the same condensed profile to the serve
    // daemon.  Transient failures (daemon at capacity, socket hiccups)
    // are retried with bounded backoff inside the client; a daemon that
    // stays unreachable is a clean nonzero exit, never a crash — the
    // on-disk gmon file above is already safe either way.
    if (auto Endpoint = Opts.getValue("push")) {
      // Identity hash straight out of the mapping, no image-sized copy.
      auto ImageMap = MappedFile::open(Opts.positional().front());
      if (!ImageMap) {
        std::fprintf(stderr, "tlrun: %s\n", ImageMap.message().c_str());
        return 1;
      }
      serve::ServeClient Client(*Endpoint);
      auto Digest = Client.putProfile(
          Prof, Sha256::hash(ImageMap->data(), ImageMap->size()));
      if (!Digest) {
        std::fprintf(stderr, "tlrun: push to '%s' failed: %s\n",
                     Endpoint->c_str(), Digest.message().c_str());
        return 1;
      }
      std::fprintf(stderr, "tlrun: profile pushed as %s\n",
                   digestToHex(*Digest).substr(0, 12).c_str());
    }
  }

  // GPROF_TELEMETRY=-|stderr dumps the runtime counters (mcount probe
  // behaviour, arc-table occupancy, histogram ticks) as flat stats JSON
  // to stderr; any other value names a file to write instead.  The knob
  // is an env variable, not a flag, so profiled programs need no argv
  // changes to be inspected.
  if (TracePath) {
    TraceWriter W = TraceWriter::fromTelemetry("tlrun");
    if (Error E = W.writeFile(*TracePath)) {
      std::fprintf(stderr, "tlrun: %s\n", E.message().c_str());
      return 1;
    }
    std::fprintf(stderr, "tlrun: wrote %zu trace event(s) to %s\n",
                 W.numEvents(), TracePath->c_str());
  }

  if (const char *Dest = std::getenv("GPROF_TELEMETRY")) {
    if (Mon)
      Mon->publishTelemetry();
    std::string Json =
        telemetry::Registry::instance().renderStatsJson("tlrun_stats");
    if (std::strcmp(Dest, "-") == 0 || std::strcmp(Dest, "stderr") == 0) {
      std::fprintf(stderr, "%s", Json.c_str());
    } else if (Error E = writeFileText(Dest, Json)) {
      std::fprintf(stderr, "tlrun: %s\n", E.message().c_str());
      return 1;
    }
  }
  return 0;
}
