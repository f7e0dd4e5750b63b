//===- tools/gprof_store_tool.cpp - The profile repository CLI ------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line face of the profile store: `gprof-store put` ingests gmon
/// shards into a content-addressed repository, `list` shows the index,
/// `merge` aggregates any subset through the parallel k-way merge tree
/// (caching the result by the member digest set), `report` feeds a merged
/// aggregate straight into the gprof analyzer and printers, `compact`
/// folds shards into tiered runs so reports over thousands of shards
/// merge a handful of partial aggregates (store/ProfileStore.h), and `gc`
/// sweeps stale cache entries, orphaned objects and runs — optionally
/// expiring shards by capture time (`--expire-before`).  This is the
/// fleet-scale version of "summing the data over several profiled runs":
/// shards accumulate across runs and machines, and any subset — including
/// a capture-time window (`report --since/--until`) — can be turned into
/// a profile listing on demand.
///
/// The continuous-profiling commands move shards over a local socket
/// instead of a shared filesystem: `serve` runs the long-lived ingestion
/// daemon (src/serve/Server.h), and `push`/`query` are its CLI clients —
/// the same protocol `tlrun --push` speaks at profile-write time
/// (docs/SERVE.md).
///
//===----------------------------------------------------------------------===//

#include "gmon/GmonFile.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "store/ProfileStore.h"
#include "support/CommandLine.h"
#include "support/EventLog.h"
#include "support/FileUtils.h"
#include "support/Format.h"
#include "support/MappedFile.h"
#include "support/Telemetry.h"
#include "support/TraceWriter.h"
#include "vm/Image.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>

using namespace gprof;

namespace {

int fail(const std::string &Message) {
  std::fprintf(stderr, "gprof-store: %s\n", Message.c_str());
  return 1;
}

/// Declares the shared --stats[=FILE] option (support/Telemetry.h) on a
/// subcommand parser.
void addStatsFlag(OptionParser &Opts) { telemetry::addStatsOption(Opts); }

/// Honors --stats[=FILE]: bare dumps to stderr, =FILE writes the file.
void maybeDumpStats(const OptionParser &Opts) {
  if (Error E = telemetry::emitStatsIfRequested(Opts, "gprof_store_stats"))
    std::fprintf(stderr, "gprof-store: %s\n", E.message().c_str());
}

/// Hashes the image file at \p Path into a store image identity.
Expected<Sha256Digest> imageIdForFile(const std::string &Path) {
  // Hash straight out of the mapping; no copy of the image bytes.
  auto Map = MappedFile::open(Path);
  if (!Map)
    return Map.takeError();
  return Sha256::hash(Map->data(), Map->size());
}

/// Parses --jobs into a worker count (0 = hardware threads).
bool parseJobs(OptionParser &Opts, unsigned &Jobs) {
  Jobs = 0;
  if (auto V = Opts.getValue("jobs")) {
    unsigned long long N;
    if (!parseUInt64(*V, N) || N > 1024)
      return false;
    Jobs = static_cast<unsigned>(N);
  }
  return true;
}

/// Declares the listing flags `report` and `query` share.
void addReportFlags(OptionParser &Opts) {
  Opts.addFlag("brief", 'b', "suppress field descriptions");
  Opts.addFlag("zero", 'z', "show zero-time zero-call routines as rows");
  Opts.addFlag("flat-only", 0, "print only the flat profile");
  Opts.addFlag("graph-only", 0, "print only the call graph profile");
  Opts.addFlag("no-index", 0, "omit the index-by-name table");
}

/// Reads back the flags addReportFlags declared.
serve::ReportFlags reportFlags(const OptionParser &Opts) {
  serve::ReportFlags Flags;
  Flags.FlatOnly = Opts.hasFlag("flat-only");
  Flags.GraphOnly = Opts.hasFlag("graph-only");
  Flags.Brief = Opts.hasFlag("brief");
  Flags.NoIndex = Opts.hasFlag("no-index");
  Flags.ShowZero = Opts.hasFlag("zero");
  return Flags;
}

/// Parses an optional u64 value (capture-time nanoseconds); false on
/// malformed input.  \p Present reports whether the option was given.
bool parseU64Option(const OptionParser &Opts, const char *Name, uint64_t &Out,
                    bool &Present) {
  Present = false;
  Out = 0;
  auto V = Opts.getValue(Name);
  if (!V)
    return true;
  unsigned long long N;
  if (!parseUInt64(*V, N))
    return false;
  Out = N;
  Present = true;
  return true;
}

/// Resolves positional digest-prefix arguments (after the leading \p Skip
/// positionals) into full member digests; empty result means "all shards".
Expected<std::vector<Sha256Digest>> resolveMembers(const ProfileStore &Store,
                                                   const OptionParser &Opts,
                                                   size_t Skip) {
  std::vector<Sha256Digest> Members;
  for (size_t I = Skip; I < Opts.positional().size(); ++I) {
    auto Info = Store.resolve(Opts.positional()[I]);
    if (!Info)
      return Info.takeError();
    Members.push_back(Info->Digest);
  }
  return Members;
}

int cmdPut(int Argc, const char *const *Argv) {
  OptionParser Opts("gprof-store put",
                    "ingest gmon shards into a profile store");
  Opts.setPositionalHelp("STORE gmon.out ...");
  Opts.addOption("image", 'i', "FILE",
                 "TLX image the shards were profiled against; pins the "
                 "store to its identity");
  Opts.addFlag("tolerant", 0,
               "salvage whole records from truncated gmon files instead of "
               "rejecting them");
  Opts.addOption("capture-time", 0, "NS",
                 "stamp the shards with this capture time (nanoseconds "
                 "since the epoch) instead of now — for backfilling "
                 "historical profiles");
  addStatsFlag(Opts);
  if (Error E = Opts.parse(Argc, Argv))
    return fail(E.message());
  if (Opts.hasFlag("help")) {
    std::printf("%s", Opts.helpText().c_str());
    return 0;
  }
  if (Opts.positional().size() < 2)
    return fail("expected a store path and at least one gmon file");
  uint64_t CaptureTimeNs;
  bool HaveCaptureTime;
  if (!parseU64Option(Opts, "capture-time", CaptureTimeNs, HaveCaptureTime))
    return fail("invalid --capture-time value");
  (void)HaveCaptureTime; // 0 (and absent) both mean "stamp with now".

  Sha256Digest ImageId{};
  if (auto ImagePath = Opts.getValue("image")) {
    auto Id = imageIdForFile(*ImagePath);
    if (!Id)
      return fail(Id.message());
    ImageId = *Id;
  }

  StoreOptions StoreOpts;
  StoreOpts.TolerantReads = Opts.hasFlag("tolerant");
  auto Store = ProfileStore::open(Opts.positional().front(), StoreOpts);
  if (!Store)
    return fail(Store.message());
  for (size_t I = 1; I < Opts.positional().size(); ++I) {
    const std::string &Path = Opts.positional()[I];
    auto Digest = Store->putFile(Path, ImageId, CaptureTimeNs);
    if (!Digest)
      return fail(Digest.message());
    std::printf("%s %s\n", digestToHex(*Digest).c_str(), Path.c_str());
  }
  maybeDumpStats(Opts);
  return 0;
}

int cmdList(int Argc, const char *const *Argv) {
  OptionParser Opts("gprof-store list", "list the shards in a profile store");
  Opts.setPositionalHelp("STORE");
  if (Error E = Opts.parse(Argc, Argv))
    return fail(E.message());
  if (Opts.hasFlag("help")) {
    std::printf("%s", Opts.helpText().c_str());
    return 0;
  }
  if (Opts.positional().size() != 1)
    return fail("expected exactly one store path");

  auto Store = ProfileStore::open(Opts.positional().front());
  if (!Store)
    return fail(Store.message());
  std::printf("%-12s %6s %10s %10s %8s %s\n", "digest", "runs", "samples",
              "arcs", "hz", "image");
  for (const ShardInfo &S : Store->shards())
    std::printf("%-12s %6u %10llu %10llu %8llu %s\n",
                digestToHex(S.Digest).substr(0, 12).c_str(), S.Runs,
                static_cast<unsigned long long>(S.TotalSamples),
                static_cast<unsigned long long>(S.NumArcs),
                static_cast<unsigned long long>(S.Hz),
                S.ImageId == Sha256Digest{}
                    ? "-"
                    : digestToHex(S.ImageId).substr(0, 12).c_str());
  std::printf("%zu shard(s)\n", Store->shards().size());
  return 0;
}

int cmdMerge(int Argc, const char *const *Argv) {
  OptionParser Opts("gprof-store merge",
                    "aggregate shards with the parallel k-way merge tree");
  Opts.setPositionalHelp("STORE [DIGEST-PREFIX ...]");
  Opts.addOption("jobs", 'j', "N",
                 "worker threads for the merge tree (0 = one per core)");
  Opts.addOption("output", 'o', "FILE",
                 "also write the merged gmon data to FILE");
  addStatsFlag(Opts);
  if (Error E = Opts.parse(Argc, Argv))
    return fail(E.message());
  if (Opts.hasFlag("help")) {
    std::printf("%s", Opts.helpText().c_str());
    return 0;
  }
  if (Opts.positional().empty())
    return fail("expected a store path");
  unsigned Jobs;
  if (!parseJobs(Opts, Jobs))
    return fail("invalid --jobs value");

  auto Store = ProfileStore::open(Opts.positional().front());
  if (!Store)
    return fail(Store.message());
  auto Members = resolveMembers(*Store, Opts, 1);
  if (!Members)
    return fail(Members.message());

  ThreadPool Pool(Jobs);
  auto Result = Store->merge(Members.takeValue(), &Pool);
  if (!Result)
    return fail(Result.message());
  if (auto OutPath = Opts.getValue("output"))
    if (Error E = writeGmonFile(*OutPath, Result->Data))
      return fail(E.message());
  std::printf("aggregate %s over %zu shard(s): %u run(s), %llu sample(s), "
              "%zu arc(s)%s\n",
              digestToHex(Result->Digest).substr(0, 12).c_str(),
              Result->MemberCount, Result->Data.RunCount,
              static_cast<unsigned long long>(
                  Result->Data.Hist.totalSamples()),
              Result->Data.Arcs.size(),
              Result->CacheHit ? " [cached]" : "");
  maybeDumpStats(Opts);
  return 0;
}

int cmdReport(int Argc, const char *const *Argv) {
  OptionParser Opts("gprof-store report",
                    "print gprof listings for a merged aggregate");
  Opts.setPositionalHelp("STORE image.tlx [DIGEST-PREFIX ...]");
  Opts.addOption("jobs", 'j', "N",
                 "worker threads for the merge tree (0 = one per core)");
  addReportFlags(Opts);
  Opts.addOption("since", 0, "NS",
                 "only shards captured at or after this time (nanoseconds "
                 "since the epoch)");
  Opts.addOption("until", 0, "NS",
                 "only shards captured at or before this time (nanoseconds "
                 "since the epoch)");
  addStatsFlag(Opts);
  if (Error E = Opts.parse(Argc, Argv))
    return fail(E.message());
  if (Opts.hasFlag("help")) {
    std::printf("%s", Opts.helpText().c_str());
    return 0;
  }
  if (Opts.positional().size() < 2)
    return fail("expected a store path and an image path");
  unsigned Jobs;
  if (!parseJobs(Opts, Jobs))
    return fail("invalid --jobs value");
  uint64_t SinceNs, UntilNs;
  bool HaveSince, HaveUntil;
  if (!parseU64Option(Opts, "since", SinceNs, HaveSince))
    return fail("invalid --since value");
  if (!parseU64Option(Opts, "until", UntilNs, HaveUntil))
    return fail("invalid --until value");

  auto Img = Image::loadFromFile(Opts.positional()[1]);
  if (!Img)
    return fail(Img.message());
  auto Store = ProfileStore::open(Opts.positional().front());
  if (!Store)
    return fail(Store.message());
  auto Members = resolveMembers(*Store, Opts, 2);
  if (!Members)
    return fail(Members.message());
  if (HaveSince || HaveUntil) {
    // Window the member set by capture time; explicit digests intersect
    // with the window.  Guard the empty result — merge() reads an empty
    // member list as "all shards".
    std::vector<Sha256Digest> Window =
        Store->membersInWindow(SinceNs, HaveUntil ? UntilNs : 0);
    std::sort(Window.begin(), Window.end());
    if (Members->empty()) {
      *Members = std::move(Window);
    } else {
      Members->erase(std::remove_if(Members->begin(), Members->end(),
                                    [&](const Sha256Digest &D) {
                                      return !std::binary_search(
                                          Window.begin(), Window.end(), D);
                                    }),
                     Members->end());
    }
    if (Members->empty())
      return fail("no shards captured in the requested time window");
  }

  ThreadPool Pool(Jobs);
  auto Result = Store->merge(Members.takeValue(), &Pool);
  if (!Result)
    return fail(Result.message());
  // Cache feedback goes to stderr so the listings on stdout stay
  // byte-comparable against golden output.
  if (Result->CacheHit)
    std::fprintf(stderr,
                 "gprof-store: aggregate %s over %zu shard(s) [cache hit]\n",
                 digestToHex(Result->Digest).substr(0, 12).c_str(),
                 Result->MemberCount);
  else
    std::fprintf(stderr,
                 "gprof-store: aggregate %s over %zu shard(s) [cache miss, "
                 "merged %zu input(s): %zu run(s) + %zu shard(s)]\n",
                 digestToHex(Result->Digest).substr(0, 12).c_str(),
                 Result->MemberCount, Result->InputsMerged, Result->RunsUsed,
                 Result->InputsMerged - Result->RunsUsed);

  auto Text = serve::renderReport(*Img, Result->Data, reportFlags(Opts));
  if (!Text)
    return fail(Text.message());
  std::fputs(Text->c_str(), stdout);
  maybeDumpStats(Opts);
  return 0;
}

//===----------------------------------------------------------------------===//
// Continuous-profiling commands (docs/SERVE.md)
//===----------------------------------------------------------------------===//

/// SIGINT/SIGTERM land here; the serve loop polls it.
volatile std::sig_atomic_t ServeInterrupted = 0;

void handleServeSignal(int) { ServeInterrupted = 1; }

/// Parses a small numeric option with a default; false on malformed input.
bool parseUnsigned(const OptionParser &Opts, const char *Name,
                   unsigned Default, unsigned Max, unsigned &Out) {
  Out = Default;
  auto V = Opts.getValue(Name);
  if (!V)
    return true;
  unsigned long long N;
  if (!parseUInt64(*V, N) || N > Max)
    return false;
  Out = static_cast<unsigned>(N);
  return true;
}

int cmdServe(int Argc, const char *const *Argv) {
  OptionParser Opts("gprof-store serve",
                    "run the continuous-profiling ingestion daemon");
  Opts.setPositionalHelp("STORE");
  Opts.addOption("socket", 's', "PATH",
                 "UNIX socket path to listen on (required)");
  Opts.addOption("jobs", 'j', "N",
                 "worker threads = connections served concurrently "
                 "(default 8)");
  Opts.addOption("queue", 0, "N",
                 "admitted connections allowed to wait beyond the busy "
                 "workers before RETRY (default 8)");
  Opts.addOption("idle-timeout", 0, "MS",
                 "drop a connection idle for MS milliseconds "
                 "(default 30000)");
  Opts.addFlag("tolerant", 0,
               "salvage whole records from truncated uploads instead of "
               "rejecting them");
  Opts.addFlag("no-compaction", 0,
               "do not fold pushed shards into tiered runs in the "
               "background (pin the store layout for offline compaction)");
  Opts.addOption("slow-ms", 0, "MS",
                 "log requests slower than MS milliseconds to the event "
                 "log (default 1000)");
  Opts.addOption("log-file", 0, "FILE",
                 "append structured JSONL events (connections, retries, "
                 "slow requests, gc sweeps) to FILE");
  Opts.addOption("trace-out", 0, "FILE",
                 "write a Chrome trace of the daemon's spans to FILE at "
                 "shutdown, one track per request; enables span recording");
  addStatsFlag(Opts);
  if (Error E = Opts.parse(Argc, Argv))
    return fail(E.message());
  if (Opts.hasFlag("help")) {
    std::printf("%s", Opts.helpText().c_str());
    return 0;
  }
  if (Opts.positional().size() != 1)
    return fail("expected exactly one store path");
  auto SocketPath = Opts.getValue("socket");
  if (!SocketPath)
    return fail("serve requires --socket PATH");

  serve::ServeOptions SO;
  unsigned IdleMs, SlowMs;
  if (!parseUnsigned(Opts, "jobs", 8, 1024, SO.Workers) ||
      SO.Workers == 0)
    return fail("invalid --jobs value");
  if (!parseUnsigned(Opts, "queue", 8, 4096, SO.MaxQueuedConnections))
    return fail("invalid --queue value");
  if (!parseUnsigned(Opts, "idle-timeout", 30000, 3600000, IdleMs))
    return fail("invalid --idle-timeout value");
  SO.IdleTimeoutMs = static_cast<int>(IdleMs);
  if (!parseUnsigned(Opts, "slow-ms", 1000, 3600000, SlowMs))
    return fail("invalid --slow-ms value");
  SO.SlowRequestMs = static_cast<int>(SlowMs);
  SO.Store.TolerantReads = Opts.hasFlag("tolerant");
  SO.BackgroundCompaction = !Opts.hasFlag("no-compaction");

  if (auto LogPath = Opts.getValue("log-file"))
    if (Error E = EventLog::instance().setSinkFile(*LogPath))
      return fail(E.message());
  auto TracePath = Opts.getValue("trace-out");
  if (TracePath) {
    telemetry::Registry::instance().enableSpans(true);
    telemetry::Registry::instance().setCurrentThreadName("main");
  }

  auto Server = serve::ServeServer::create(Opts.positional().front(),
                                           *SocketPath, SO);
  if (!Server)
    return fail(Server.message());
  if (Error E = (*Server)->start())
    return fail(E.message());
  std::fprintf(stderr,
               "gprof-store: serving store '%s' on '%s' "
               "(%u workers, queue %u)\n",
               Opts.positional().front().c_str(), SocketPath->c_str(),
               SO.Workers, SO.MaxQueuedConnections);

  std::signal(SIGINT, handleServeSignal);
  std::signal(SIGTERM, handleServeSignal);
  while (!ServeInterrupted)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::fprintf(stderr, "gprof-store: shutting down\n");
  (*Server)->stop();
  std::fprintf(stderr, "gprof-store: %zu shard(s) in store\n",
               (*Server)->store().shards().size());
  if (TracePath) {
    TraceWriter W = TraceWriter::fromTelemetry("gprof-store-serve");
    if (Error E = W.writeFile(*TracePath))
      std::fprintf(stderr, "gprof-store: %s\n", E.message().c_str());
    else
      std::fprintf(stderr, "gprof-store: wrote %zu trace event(s) to %s\n",
                   W.numEvents(), TracePath->c_str());
  }
  EventLog::instance().closeSink();
  maybeDumpStats(Opts);
  return 0;
}

int cmdStats(int Argc, const char *const *Argv) {
  OptionParser Opts("gprof-store stats",
                    "fetch live telemetry and the event tail from a serve "
                    "daemon");
  Opts.setPositionalHelp("SOCKET");
  Opts.addOption("watch", 'w', "SECS",
                 "poll every SECS seconds until interrupted; each round "
                 "tails only events newer than the last");
  Opts.addOption("filter", 'f', "PREFIX",
                 "restrict metric and histogram rows to names starting "
                 "with PREFIX");
  Opts.addOption("retries", 0, "N",
                 "extra attempts after a transient failure (default 2)");
  if (Error E = Opts.parse(Argc, Argv))
    return fail(E.message());
  if (Opts.hasFlag("help")) {
    std::printf("%s", Opts.helpText().c_str());
    return 0;
  }
  if (Opts.positional().size() != 1)
    return fail("expected exactly one socket path");
  serve::ClientOptions CO;
  if (!parseUnsigned(Opts, "retries", 2, 1000, CO.Retries))
    return fail("invalid --retries value");
  unsigned WatchSecs;
  if (!parseUnsigned(Opts, "watch", 0, 86400, WatchSecs))
    return fail("invalid --watch value");

  serve::ServeClient Client(Opts.positional().front(), CO);
  serve::QueryStatsRequest Req;
  if (auto Prefix = Opts.getValue("filter"))
    Req.Filter = *Prefix;

  std::signal(SIGINT, handleServeSignal);
  std::signal(SIGTERM, handleServeSignal);
  for (;;) {
    auto Resp = Client.queryStats(Req);
    if (!Resp)
      return fail(Resp.message());
    std::fputs(Resp->StatsJson.c_str(), stdout);
    std::fflush(stdout);
    if (WatchSecs == 0)
      return 0;
    // Tail incrementally: the next round only reports events the daemon
    // logged after the ones this round already printed.
    Req.SinceSeq = Resp->LastSeq;
    for (unsigned I = 0; I < WatchSecs * 10 && !ServeInterrupted; ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (ServeInterrupted)
      return 0;
  }
}

int cmdPush(int Argc, const char *const *Argv) {
  OptionParser Opts("gprof-store push",
                    "upload gmon shards to a serve daemon");
  Opts.setPositionalHelp("SOCKET gmon.out ...");
  Opts.addOption("image", 'i', "FILE",
                 "TLX image the shards were profiled against; pins the "
                 "store to its identity");
  Opts.addOption("retries", 0, "N",
                 "extra attempts after a transient failure (default 2)");
  addStatsFlag(Opts);
  if (Error E = Opts.parse(Argc, Argv))
    return fail(E.message());
  if (Opts.hasFlag("help")) {
    std::printf("%s", Opts.helpText().c_str());
    return 0;
  }
  if (Opts.positional().size() < 2)
    return fail("expected a socket path and at least one gmon file");

  Sha256Digest ImageId{};
  if (auto ImagePath = Opts.getValue("image")) {
    auto Id = imageIdForFile(*ImagePath);
    if (!Id)
      return fail(Id.message());
    ImageId = *Id;
  }
  serve::ClientOptions CO;
  if (!parseUnsigned(Opts, "retries", 2, 1000, CO.Retries))
    return fail("invalid --retries value");

  serve::ServeClient Client(Opts.positional().front(), CO);
  for (size_t I = 1; I < Opts.positional().size(); ++I) {
    const std::string &Path = Opts.positional()[I];
    auto Bytes = readFileBytes(Path);
    if (!Bytes)
      return fail(Bytes.message());
    auto Digest = Client.putShard(*Bytes, ImageId);
    if (!Digest)
      return fail(Digest.message());
    std::printf("%s %s\n", digestToHex(*Digest).c_str(), Path.c_str());
  }
  maybeDumpStats(Opts);
  return 0;
}

int cmdQuery(int Argc, const char *const *Argv) {
  OptionParser Opts("gprof-store query",
                    "fetch gprof listings from a serve daemon");
  Opts.setPositionalHelp("SOCKET image.tlx [DIGEST-PREFIX ...]");
  addReportFlags(Opts);
  Opts.addFlag("list", 'l', "list the daemon's shards instead of reporting");
  Opts.addOption("retries", 0, "N",
                 "extra attempts after a transient failure (default 2)");
  addStatsFlag(Opts);
  if (Error E = Opts.parse(Argc, Argv))
    return fail(E.message());
  if (Opts.hasFlag("help")) {
    std::printf("%s", Opts.helpText().c_str());
    return 0;
  }
  serve::ClientOptions CO;
  if (!parseUnsigned(Opts, "retries", 2, 1000, CO.Retries))
    return fail("invalid --retries value");
  if (Opts.positional().empty())
    return fail("expected a socket path");
  serve::ServeClient Client(Opts.positional().front(), CO);

  if (Opts.hasFlag("list")) {
    auto Shards = Client.list();
    if (!Shards)
      return fail(Shards.message());
    std::printf("%-12s %6s %10s %10s %8s %s\n", "digest", "runs", "samples",
                "arcs", "hz", "image");
    for (const ShardInfo &S : *Shards)
      std::printf("%-12s %6u %10llu %10llu %8llu %s\n",
                  digestToHex(S.Digest).substr(0, 12).c_str(), S.Runs,
                  static_cast<unsigned long long>(S.TotalSamples),
                  static_cast<unsigned long long>(S.NumArcs),
                  static_cast<unsigned long long>(S.Hz),
                  S.ImageId == Sha256Digest{}
                      ? "-"
                      : digestToHex(S.ImageId).substr(0, 12).c_str());
    std::printf("%zu shard(s)\n", Shards->size());
    maybeDumpStats(Opts);
    return 0;
  }

  if (Opts.positional().size() < 2)
    return fail("expected a socket path and an image path");
  serve::QueryReportRequest Req;
  Req.ImagePath = Opts.positional()[1];
  Req.Flags = reportFlags(Opts);

  // Digest prefixes resolve client-side against the daemon's index, with
  // the same uniqueness rules as ProfileStore::resolve.
  if (Opts.positional().size() > 2) {
    auto Shards = Client.list();
    if (!Shards)
      return fail(Shards.message());
    for (size_t I = 2; I < Opts.positional().size(); ++I) {
      const std::string &Prefix = Opts.positional()[I];
      const ShardInfo *Match = nullptr;
      for (const ShardInfo &S : *Shards) {
        if (digestToHex(S.Digest).compare(0, Prefix.size(), Prefix) != 0)
          continue;
        if (Match)
          return fail(format("shard digest '%s' is ambiguous",
                             Prefix.c_str()));
        Match = &S;
      }
      if (!Match)
        return fail(format("no shard matches digest '%s'", Prefix.c_str()));
      Req.Members.push_back(Match->Digest);
    }
  }

  auto Text = Client.queryReport(Req);
  if (!Text)
    return fail(Text.message());
  std::fputs(Text->c_str(), stdout);
  maybeDumpStats(Opts);
  return 0;
}

int cmdGc(int Argc, const char *const *Argv) {
  OptionParser Opts("gprof-store gc",
                    "drop stale cached aggregates and orphaned objects");
  Opts.setPositionalHelp("STORE");
  Opts.addOption("expire-before", 0, "NS",
                 "retire shards (and the runs covering them) captured "
                 "before this time (nanoseconds since the epoch)");
  addStatsFlag(Opts);
  if (Error E = Opts.parse(Argc, Argv))
    return fail(E.message());
  if (Opts.hasFlag("help")) {
    std::printf("%s", Opts.helpText().c_str());
    return 0;
  }
  if (Opts.positional().size() != 1)
    return fail("expected exactly one store path");
  GcOptions GO;
  bool HaveExpire;
  if (!parseU64Option(Opts, "expire-before", GO.ExpireBeforeNs, HaveExpire))
    return fail("invalid --expire-before value");
  (void)HaveExpire; // 0 (and absent) both mean "no retention expiry".

  auto Store = ProfileStore::open(Opts.positional().front());
  if (!Store)
    return fail(Store.message());
  auto Stats = Store->gc(GO);
  if (!Stats)
    return fail(Stats.message());
  std::printf("removed %u stale cached aggregate(s) (%u retained), "
              "%u orphan object(s), %u orphan run(s), "
              "%u stale temp file(s)\n",
              Stats->CachedAggregates, Stats->RetainedAggregates,
              Stats->OrphanObjects, Stats->OrphanRuns, Stats->TempFiles);
  if (Stats->ExpiredShards != 0 || Stats->RetiredRuns != 0)
    std::printf("expired %u shard(s), retired %u run(s)\n",
                Stats->ExpiredShards, Stats->RetiredRuns);
  maybeDumpStats(Opts);
  return 0;
}

int cmdCompact(int Argc, const char *const *Argv) {
  OptionParser Opts("gprof-store compact",
                    "fold loose shards and low-level runs into tiered "
                    "merge runs so reports touch O(log N) inputs");
  Opts.setPositionalHelp("STORE");
  Opts.addOption("jobs", 'j', "N",
                 "merge worker threads (default: hardware concurrency)");
  Opts.addOption("fanout", 0, "N",
                 "inputs folded per compaction step (default 8, min 2)");
  addStatsFlag(Opts);
  if (Error E = Opts.parse(Argc, Argv))
    return fail(E.message());
  if (Opts.hasFlag("help")) {
    std::printf("%s", Opts.helpText().c_str());
    return 0;
  }
  if (Opts.positional().size() != 1)
    return fail("expected exactly one store path");
  unsigned Jobs;
  if (!parseJobs(Opts, Jobs))
    return fail("invalid --jobs value");
  StoreOptions SO;
  if (!parseUnsigned(Opts, "fanout", 8, 1u << 20, SO.CompactionFanout) ||
      SO.CompactionFanout < 2)
    return fail("invalid --fanout value (need at least 2)");

  auto Store = ProfileStore::open(Opts.positional().front(), SO);
  if (!Store)
    return fail(Store.message());
  ThreadPool Pool(Jobs);
  auto Stats = Store->compact(&Pool);
  if (!Stats)
    return fail(Stats.message());
  std::printf("compaction: %u step(s), folded %llu input(s)\n",
              Stats->Steps,
              static_cast<unsigned long long>(Stats->ShardsFolded));
  std::printf("store now holds %zu shard(s) in %zu run(s) + loose\n",
              Store->shards().size(), Store->runs().size());
  maybeDumpStats(Opts);
  return 0;
}

void printUsage() {
  std::printf(
      "USAGE: gprof-store <command> [options]\n\n"
      "Commands:\n"
      "  put STORE gmon.out ...        ingest shards (content-addressed)\n"
      "  list STORE                    show the shard index\n"
      "  merge STORE [DIGEST ...]      aggregate shards (all by default)\n"
      "  report STORE IMG [DIGEST ...] gprof listings for an aggregate\n"
      "  gc STORE                      sweep caches and orphaned objects\n"
      "  compact STORE                 fold shards into tiered merge runs\n"
      "  serve STORE --socket PATH     run the ingestion daemon\n"
      "  push SOCKET gmon.out ...      upload shards to a daemon\n"
      "  query SOCKET IMG [DIGEST ...] fetch listings from a daemon\n"
      "  stats SOCKET [--watch SECS]   live daemon telemetry + event tail\n\n"
      "Run 'gprof-store <command> --help' for per-command options.\n");
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    printUsage();
    return 1;
  }
  std::string Command = Argv[1];
  if (Command == "--help" || Command == "-h" || Command == "help") {
    printUsage();
    return 0;
  }
  // Each subcommand parses the arguments after its own name.
  int SubArgc = Argc - 1;
  const char *const *SubArgv = Argv + 1;
  if (Command == "put")
    return cmdPut(SubArgc, SubArgv);
  if (Command == "list")
    return cmdList(SubArgc, SubArgv);
  if (Command == "merge")
    return cmdMerge(SubArgc, SubArgv);
  if (Command == "report")
    return cmdReport(SubArgc, SubArgv);
  if (Command == "gc")
    return cmdGc(SubArgc, SubArgv);
  if (Command == "compact")
    return cmdCompact(SubArgc, SubArgv);
  if (Command == "serve")
    return cmdServe(SubArgc, SubArgv);
  if (Command == "push")
    return cmdPush(SubArgc, SubArgv);
  if (Command == "query")
    return cmdQuery(SubArgc, SubArgv);
  if (Command == "stats")
    return cmdStats(SubArgc, SubArgv);
  std::fprintf(stderr, "gprof-store: unknown command '%s'\n",
               Command.c_str());
  printUsage();
  return 1;
}
