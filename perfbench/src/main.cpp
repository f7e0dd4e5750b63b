//===- perfbench/src/main.cpp - The repository benchmark ------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One seeded workload per invocation, run in-process through the library's
/// public functions.  Each round follows one profiled execution of the
/// generated call-heavy program through the chain its profile takes: the
/// run to a gmon file, the gprof report of that file (the paper's
/// post-processor after every execution), pushes to a live daemon and
/// report queries over windows of the pushed shards.  The workloads differ
/// in what is pushed:
///
///   callgraph  the run's own profile, into the long-lived daemon, as
///              `tlrun --push` does at exit; the query is that shard's
///              report.  The execution is nearly all of the round: vm +
///              runtime.
///   fleet      1024 seeded variations of the run's profile, pushed by two
///              closed-loop clients into a fresh daemon, then every 64-shard
///              window in capture-time order: serve + store.
///
/// `--trace 0` prints the end-to-end metrics; `--trace 1` alternates traced
/// and untraced operations, records spans around every library call, runs
/// the per-layer experiments and prints the per-layer metrics.  The last
/// stdout line is one JSON object; the exit code is nonzero when any
/// output was wrong.
///
//===----------------------------------------------------------------------===//

#include "Programs.h"
#include "Spans.h"

#include "core/Analyzer.h"
#include "core/FlatPrinter.h"
#include "core/GraphPrinter.h"
#include "gmon/GmonFile.h"
#include "lang/Diagnostics.h"
#include "runtime/Monitor.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "store/MergeEngine.h"
#include "store/ProfileStore.h"
#include "support/Format.h"
#include "support/Sha256.h"
#include "vm/CodeGen.h"
#include "vm/VM.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

using namespace gprof;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Commits the checkout's filesystem (the store never fsyncs), so each
/// timed phase starts with the journal committed and no writeback or
/// block discards left over from earlier phases or deleted stores.
void settleDisk(const char *Dir) {
  int Fd = open(Dir, O_RDONLY | O_DIRECTORY);
  if (Fd >= 0) {
    syncfs(Fd);
    close(Fd);
  }
}

//===-- Statistics --------------------------------------------------------===//

std::vector<double> sorted(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V;
}

double median(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  std::vector<double> S = sorted(V);
  size_t N = S.size();
  return N % 2 ? S[N / 2] : (S[N / 2 - 1] + S[N / 2]) / 2.0;
}

/// Mean of the samples left after dropping the lowest and the highest tenth.
/// On a shared virtual machine each vCPU can switch between speed levels
/// about 1.5x apart every few seconds, so a run's latencies are multimodal;
/// a median jumps between the modes as their shares cross one half, while
/// this mean moves in proportion to the shares and still ignores a rare
/// stall (see LEDGER.md, "Noise").
double trimmedMean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  std::vector<double> S = sorted(V);
  size_t Cut = S.size() / 10;
  double Sum = 0;
  for (size_t I = Cut; I != S.size() - Cut; ++I)
    Sum += S[I];
  return Sum / double(S.size() - 2 * Cut);
}

/// The highest whole percentile with at least ten samples beyond it
/// (nearest rank); \p Pct receives the percentile used.
double tailPercentile(const std::vector<double> &V, int &Pct) {
  std::vector<double> S = sorted(V);
  size_t N = S.size();
  for (Pct = 99; Pct > 50; --Pct) {
    size_t Rank = size_t(std::ceil(Pct / 100.0 * double(N)));
    if (Rank >= 1 && N - Rank >= 10)
      return S[Rank - 1];
  }
  return median(S);
}

/// Median time of a fixed integer loop: the same work on every run, so a
/// change in it is the host's speed changing, not the program's.
double hostReferenceMs() {
  std::vector<double> Ms;
  volatile uint64_t Sink = 0;
  for (int R = 0; R != 31; ++R) {
    auto A = Clock::now();
    uint64_t X = 0;
    for (uint64_t I = 0; I != 2000000; ++I)
      X += I * I ^ (X >> 3);
    Sink = Sink + X;
    Ms.push_back(msBetween(A, Clock::now()));
  }
  return median(Ms);
}

//===-- Correctness ledger ------------------------------------------------===//

struct Checks {
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Notes;
  bool op(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      if (Notes.size() < 20)
        Notes.push_back(What);
    }
    return Ok;
  }
};

//===-- Workloads ---------------------------------------------------------===//

/// A workload is the same round with a different push/query shape.
/// Rounds repeat until --seconds is spent, so every metric samples the
/// whole run rather than one stretch of it.
struct Spec {
  const char *Name;
  const char *Why;
  /// Shards pushed per round.  0 pushes the round's own run profile into
  /// the long-lived set-up daemon; otherwise this many seeded variations of
  /// it go into a daemon of their own.
  unsigned Shards;
  unsigned Clients; ///< Closed-loop pushing threads, one connection a push.
  unsigned Window;  ///< Shards per report query, in capture-time order.
};

/// The fleet shape: 1024 shards compact to 128 L1, 16 L2 and then 2 L3
/// runs, so every 64-shard window merges exactly 64 objects whatever order
/// the pushes landed in.
constexpr unsigned FleetShards = 1024, FleetWindow = 64;
constexpr uint32_t CallgraphIterations = 90000;
constexpr unsigned SetupReps = 25; ///< Timed set-ups after one warm-up.

const Spec Specs[] = {
    {"callgraph",
     "one profiled run per round, then its own report, push and query: vm "
     "and runtime do nearly all the work",
     0, 1, 1},
    {"fleet",
     "1024 pushed variations of the round's profile and 64-shard window "
     "queries: serve and store dominate",
     FleetShards, 2, FleetWindow},
};

struct Options {
  const Spec *W = nullptr;
  uint64_t Seed = 1;
  double Seconds = 20;
  bool Trace = false;
};

/// A started daemon over a fresh store.
struct Daemon {
  std::unique_ptr<serve::ServeServer> Server;
  std::string Root, Socket;
  bool Fresh = true; ///< No push/query cycle has run on it yet.
  /// Every shard pushed to it: digest and the shard's index.
  std::map<Sha256Digest, uint64_t> Pushed;
};

/// Measurements of one operation kind: untraced samples feed the metrics,
/// traced ones (trace runs only) give the tracing overhead.
struct Series {
  std::vector<double> Plain, Traced;
  void add(double V, bool WasTraced) {
    (WasTraced ? Traced : Plain).push_back(V);
  }
  size_t size() const { return Plain.size() + Traced.size(); }
};

class Bench {
public:
  Bench(const Options &O, std::string Dir) : O(O), Dir(std::move(Dir)) {}
  int run();

private:
  // Stages.
  void setup();
  void runOnce();
  void reportOnce();
  void pushQueryCycle(unsigned Round);
  void layerExperiments();

  bool setupOnce(unsigned Rep, Image &Img, Daemon &D);
  bool startDaemon(const std::string &Tag, Daemon &D);
  static void stopDaemon(Daemon &D);
  bool profiledRun(uint64_t Op, double &Ms);
  bool report(uint64_t Op, std::string &Text, double &Ms,
              ProfileData *Keep = nullptr);
  bool compile(const std::string &Source, bool Profile, Image &Img);
  ProfileData shard(uint64_t Index) const;
  std::string offlineListing(const std::vector<uint64_t> &Indices,
                             uint64_t Op);
  std::string listing(const ProfileData &Data, uint64_t Op);
  bool traced(uint64_t I) const { return O.Trace && I % 2 == 1; }
  double elapsedS() const {
    return msBetween(Start, Clock::now()) / 1000.0;
  }
  void emit();

  Options O;
  std::string Dir;
  Clock::time_point Start = Clock::now();
  Checks C;
  GeneratedProgram Prog;
  Image ProfImg, PlainImg;
  std::string ImagePath;
  Daemon D;
  uint64_t NextOp = 0;

  // Artifacts passed between stages.
  uint64_t RunsDone = 0;
  ProfileData RunProfile;
  uint64_t RunTicks = 0;
  ArcTableStats RunStats;
  std::string RunGmon;
  ProfileData ReportProfile; ///< The warm-up report's profile and listing.
  std::string ReportText;

  // Measurements.
  std::vector<double> SetupS, CompileMs;
  Series RunMs, ReportMs, PushMs, ColdMs, HotMs;
  std::vector<double> DrainMs;
  std::vector<std::string> CycleLines;
  uint64_t Acked = 0; ///< Timed pushes acknowledged, all cycles.
  double BusyS = 0;   ///< Seconds with at least one timed push in flight.
  double HostRefMs[2] = {0, 0};
  std::map<std::string, std::pair<double, const char *>> Layer;
  std::vector<std::string> LayerOrder;
  void layer(const std::string &Name, double V, const char *Unit) {
    if (!Layer.count(Name))
      LayerOrder.push_back(Name);
    Layer[Name] = {V, Unit};
  }
};

//===-- Setup -------------------------------------------------------------===//

bool Bench::startDaemon(const std::string &Tag, Daemon &Out) {
  Out.Root = Dir + "/store-" + Tag;
  Out.Socket = Dir + "/" + Tag + ".sock";
  fs::remove_all(Out.Root);
  auto S = serve::ServeServer::create(Out.Root, Out.Socket);
  if (!C.op(bool(S), "daemon create"))
    return false;
  Out.Server = S.takeValue();
  return C.op(!Out.Server->start(), "daemon start");
}

void Bench::stopDaemon(Daemon &Dm) {
  if (Dm.Server)
    Dm.Server->stop();
  Dm.Server.reset();
  if (!Dm.Root.empty())
    fs::remove_all(Dm.Root);
  settleDisk(".bench_build");
}

bool Bench::compile(const std::string &Source, bool Profile, Image &Img) {
  Span Sp("lang.compile", NextOp);
  DiagnosticEngine Diags;
  CodeGenOptions CG;
  CG.EnableProfiling = Profile;
  auto R = compileTL(Source, CG, Diags);
  if (!C.op(bool(R), "compile generated program"))
    return false;
  Img = R.takeValue();
  return true;
}

bool Bench::setupOnce(unsigned Rep, Image &Img, Daemon &Dm) {
  Span S("setup", ++NextOp);
  auto T0 = Clock::now();
  if (!compile(Prog.Source, true, Img))
    return false;
  CompileMs.push_back(msBetween(T0, Clock::now()));
  if (!C.op(!Img.saveToFile(ImagePath), "save image"))
    return false;
  Span Sp("serve.start", NextOp);
  return startDaemon(format("d%u", Rep), Dm);
}

void Bench::setup() {
  // The program text and the values it must produce are the same for
  // every set-up, and evaluating the model walks every call: that is the
  // benchmark's own work, so it happens once and untimed.
  Prog = makeCallgraphProgram(O.Seed, CallgraphIterations);
  ImagePath = Dir + "/image.tlx";
  for (unsigned Rep = 0; Rep <= SetupReps; ++Rep) {
    Image Img;
    Daemon Dm;
    auto T0 = Clock::now();
    bool Ok = setupOnce(Rep, Img, Dm);
    if (Rep) // the first set-up is the warm-up
      SetupS.push_back(msBetween(T0, Clock::now()) / 1000.0);
    // Tear-down of the previous set-up stays outside the timed region.
    stopDaemon(D);
    ProfImg = std::move(Img);
    D = std::move(Dm);
    if (!Ok)
      return;
  }
}

//===-- Profiled execution ------------------------------------------------===//

bool Bench::profiledRun(uint64_t Op, double &Ms) {
  VMOptions VO;
  VO.CyclesPerTick = cyclesPerTick(O.Seed, RunsDone++);
  auto T0 = Clock::now();
  std::optional<Span> Whole(std::in_place, "run", Op);
  auto M = [&] {
    Span S("runtime.monstartup", Op);
    return std::make_unique<Monitor>(ProfImg.lowPc(), ProfImg.highPc());
  }();
  VM V(ProfImg, VO);
  V.setHooks(M.get());
  Expected<RunResult> R = [&] {
    Span S("vm.run", Op);
    return V.run();
  }();
  ProfileData Data = [&] {
    Span S("runtime.extract", Op);
    return M->finish();
  }();
  Error WriteErr = [&] {
    Span S("gmon.write", Op);
    return writeGmonFile(RunGmon, Data);
  }();
  Whole.reset();
  Ms = msBetween(T0, Clock::now());
  ArcTableStats Stats = M->arcTableStats();
  uint64_t Calls = 0;
  for (const ArcRecord &A : Data.Arcs)
    Calls += A.Count;
  bool Ok = C.op(bool(R) && R->Printed.size() == 1 &&
                     R->Printed[0] == Prog.ExpectedPrint,
                 "profiled run printed the generator's value") &&
            C.op(Calls == Prog.ExpectedCalls,
                 format("profile counts %llu calls, generator %llu",
                        (unsigned long long)Calls,
                        (unsigned long long)Prog.ExpectedCalls)) &&
            C.op(Data.Hist.totalSamples() == R->Ticks,
                 "histogram holds every clock tick the VM delivered") &&
            C.op(!WriteErr, "gmon write");
  RunProfile = std::move(Data);
  RunTicks = R ? R->Ticks : 0;
  RunStats = Stats;
  return Ok;
}

void Bench::runOnce() {
  double Ms = 0;
  bool Tr = traced(RunMs.size());
  SpanLog::setThreadEnabled(Tr);
  if (profiledRun(++NextOp, Ms))
    RunMs.add(Ms, Tr);
  SpanLog::setThreadEnabled(true);
}

//===-- Report ------------------------------------------------------------===//

/// The offline gprof path over an in-memory profile, under the same spans
/// as a report, so a traced fleet run times `core` on window aggregates.
std::string Bench::listing(const ProfileData &Data, uint64_t Op) {
  Expected<ProfileReport> R = [&] {
    Span S("core.analyze", Op);
    AnalyzerOptions AO;
    AO.Threads = 1;
    return analyzeImageProfile(ProfImg, Data, AO);
  }();
  if (!C.op(bool(R), "analyze"))
    return {};
  std::string Text;
  {
    Span S("core.flat_print", Op);
    Text = printFlatProfile(*R);
  }
  Span S("core.graph_print", Op);
  return Text + "\n" + printCallGraph(*R);
}

/// The gprof path over the latest run's gmon file, checked against the
/// ticks the VM delivered: the flat self seconds must sum to ticks / hz.
/// \p Keep, if given, receives the profile read.
bool Bench::report(uint64_t Op, std::string &Text, double &Ms,
                   ProfileData *Keep) {
  auto A = Clock::now();
  double SelfSum = 0;
  bool Ok = false;
  {
    Span S("report", Op);
    Expected<ProfileData> Data = [&] {
      Span Sp("gmon.read", Op);
      return readGmonFile(RunGmon);
    }();
    if (C.op(bool(Data), "read run gmon")) {
      Expected<ProfileReport> R = [&] {
        Span Sp("core.analyze", Op);
        AnalyzerOptions AO;
        AO.Threads = 1;
        return analyzeImageProfile(ProfImg, *Data, AO);
      }();
      if (C.op(bool(R), "analyze run profile")) {
        {
          Span Sp("core.flat_print", Op);
          Text = printFlatProfile(*R);
        }
        Text += "\n";
        {
          Span Sp("core.graph_print", Op);
          Text += printCallGraph(*R);
        }
        for (const FunctionEntry &F : R->Functions)
          SelfSum += F.SelfTime;
        if (Keep)
          *Keep = Data.takeValue();
        Ok = true;
      }
    }
  }
  Ms = msBetween(A, Clock::now());
  double Want = double(RunTicks) / 60.0;
  return Ok && C.op(std::fabs(SelfSum - Want) <= 1e-6 * std::max(1.0, Want),
                    format("flat self seconds %.6f != ticks/hz %.6f", SelfSum,
                           Want));
}

void Bench::reportOnce() {
  std::string Text;
  double Ms = 0;
  bool Tr = traced(ReportMs.size());
  SpanLog::setThreadEnabled(Tr);
  if (report(++NextOp, Text, Ms))
    ReportMs.add(Ms, Tr);
  SpanLog::setThreadEnabled(true);
}

//===-- Push and query ----------------------------------------------------===//

/// Shard \p Index of the current round: the run's own profile, or a seeded
/// variation of it.  Canonical arc order either way, as the store keeps it.
ProfileData Bench::shard(uint64_t Index) const {
  if (O.W->Shards)
    return makeShard(RunProfile, O.Seed, Index);
  ProfileData Own = RunProfile;
  canonicalizeProfile(Own);
  return Own;
}

std::string Bench::offlineListing(const std::vector<uint64_t> &Indices,
                                  uint64_t Op) {
  Span S("check.offline", Op);
  ProfileData Sum = shard(Indices[0]);
  for (size_t I = 1; I < Indices.size(); ++I)
    C.op(!Sum.merge(shard(Indices[I])), "sum window shards");
  canonicalizeProfile(Sum);
  return listing(Sum, Op);
}

void Bench::pushQueryCycle(unsigned Round) {
  const Spec &W = *O.W;
  // A fleet cycle gets a daemon of its own; the round's run pushes into
  // the set-up daemon, which lives as long as the process.
  Daemon Own;
  if (W.Shards && Round != 0 && !startDaemon(format("c%u", Round), Own))
    return;
  Daemon &Dm = W.Shards && Round != 0 ? Own : D;
  const unsigned N = std::max(1u, W.Shards), Clients = W.Clients;
  const uint64_t IndexBase = uint64_t(Round) * N + 1000000;

  // Phase 1: a closed loop of pushing clients, one fresh connection per
  // push.  Each client's first push to a fresh daemon is its warm-up.
  struct Push {
    Clock::time_point A, B;
    bool Traced;
  };
  std::vector<std::vector<Push>> Done(Clients);
  std::vector<std::map<Sha256Digest, uint64_t>> Want(Clients);
  std::vector<Checks> ClientChecks(Clients);
  std::vector<std::thread> Threads;
  const uint64_t OpBase = NextOp;
  NextOp += N;
  settleDisk(Dir.c_str());
  for (unsigned Cl = 0; Cl != Clients; ++Cl)
    Threads.emplace_back([&, Cl] {
      for (unsigned K = Cl, J = 0; K < N; K += Clients, ++J) {
        uint64_t Index = IndexBase + K;
        std::vector<uint8_t> Payload = writeGmon(shard(Index));
        Sha256Digest Expect = Sha256::hash(Payload);
        bool Tr = traced(J + Round), Warm = Dm.Fresh && J == 0;
        SpanLog::setThreadEnabled(Tr);
        auto A = Clock::now();
        Expected<Sha256Digest> Got = [&] {
          Span S("serve.push", OpBase + K + 1);
          serve::ServeClient Client(Dm.Socket);
          return Client.putShard(Payload);
        }();
        auto B = Clock::now();
        bool Ok = bool(Got);
        ClientChecks[Cl].op(Ok && *Got == Expect,
                            "push acknowledged with the shard's digest");
        if (Ok && !Warm)
          Done[Cl].push_back({A, B, Tr});
        Want[Cl][Expect] = Index;
      }
      SpanLog::setThreadEnabled(true);
    });
  for (std::thread &T : Threads)
    T.join();

  Clock::time_point PhaseEnd = Clock::now();
  std::vector<std::pair<Clock::time_point, Clock::time_point>> Busy;
  std::map<Sha256Digest, uint64_t> Cycle; // this cycle's shards
  for (unsigned Cl = 0; Cl != Clients; ++Cl) {
    C.Attempted += ClientChecks[Cl].Attempted;
    C.Failed += ClientChecks[Cl].Failed;
    for (auto &Note : ClientChecks[Cl].Notes)
      C.Notes.push_back(Note);
    Cycle.insert(Want[Cl].begin(), Want[Cl].end());
    for (const Push &P : Done[Cl]) {
      Busy.push_back({P.A, P.B});
      PushMs.add(msBetween(P.A, P.B), P.Traced);
    }
  }
  Dm.Pushed.insert(Cycle.begin(), Cycle.end());
  // Shards acknowledged per second of time with at least one timed push in
  // flight, so payload generation between pushes does not count.
  std::sort(Busy.begin(), Busy.end());
  double BusyMs = 0;
  Clock::time_point Edge{};
  for (auto &[A, B] : Busy) {
    Clock::time_point From = std::max(A, Edge);
    if (B > From)
      BusyMs += msBetween(From, B);
    Edge = std::max(Edge, B);
  }
  Acked += Busy.size();
  BusyS += BusyMs / 1000.0;

  // Phase 2 starts only once background compaction has quiesced.
  while (Dm.Server->store().compactionPending())
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  DrainMs.push_back(msBetween(PhaseEnd, Clock::now()));
  settleDisk(Dir.c_str());
  if (W.Shards)
    CycleLines.push_back(format("cycle %u: %zu timed pushes at %.1f/s, "
                                "drained %.1f ms after the last push",
                                Round, Busy.size(),
                                double(Busy.size()) * 1000.0 / BusyMs,
                                DrainMs.back()));

  serve::ServeClient Lister(Dm.Socket);
  auto Listed = Lister.list();
  if (!C.op(bool(Listed), "LIST"))
    return stopDaemon(Dm);
  std::map<Sha256Digest, unsigned> Seen;
  for (const ShardInfo &S : *Listed)
    ++Seen[S.Digest];
  bool Once = Seen.size() == Dm.Pushed.size();
  for (auto &[Dg, Count] : Seen)
    Once = Once && Count == 1 && Dm.Pushed.count(Dg);
  C.op(Once, "LIST shows every pushed shard exactly once");

  // Windows over this cycle's shards in capture-time order, the shape of
  // `report --since`.  The first window on a fresh daemon is the warm-up.
  std::vector<ShardInfo> ByTime;
  for (const ShardInfo &S : *Listed)
    if (Cycle.count(S.Digest))
      ByTime.push_back(S);
  std::sort(ByTime.begin(), ByTime.end(),
            [](const ShardInfo &A, const ShardInfo &B) {
              return A.CaptureTimeNs != B.CaptureTimeNs
                         ? A.CaptureTimeNs < B.CaptureTimeNs
                         : A.Digest < B.Digest;
            });
  for (size_t Lo = 0; Lo + W.Window <= ByTime.size(); Lo += W.Window) {
    serve::QueryReportRequest Req;
    Req.ImagePath = ImagePath;
    std::vector<uint64_t> Indices;
    for (size_t K = Lo; K != Lo + W.Window; ++K) {
      Req.Members.push_back(ByTime[K].Digest);
      Indices.push_back(Cycle[ByTime[K].Digest]);
    }
    bool Warm = Dm.Fresh && Lo == 0, Tr = !Warm && traced(ColdMs.size());
    SpanLog::setThreadEnabled(Tr);
    uint64_t Op = ++NextOp;
    auto Query = [&](double &Ms) {
      auto A = Clock::now();
      Expected<std::string> Text = [&] {
        Span S("serve.query", Op);
        serve::ServeClient Client(Dm.Socket);
        return Client.queryReport(Req);
      }();
      Ms = msBetween(A, Clock::now());
      return C.op(bool(Text), "window query") ? Text.takeValue()
                                              : std::string();
    };
    double Cold = 0, Hot = 0;
    std::string ColdText = Query(Cold);
    SpanLog::setThreadEnabled(true);
    if (Warm)
      continue; // cold query only
    SpanLog::setThreadEnabled(Tr);
    std::string HotText = Query(Hot);
    SpanLog::setThreadEnabled(true);
    bool Ok = C.op(!ColdText.empty() && ColdText == HotText,
                   "cold answer equals its hot repeat");
    Ok = C.op(ColdText == offlineListing(Indices, Op),
              "query answer equals the offline merge, analyze and print") &&
         Ok;
    if (Ok) {
      ColdMs.add(Cold, Tr);
      HotMs.add(Hot, Tr);
    }
  }

  if (O.Trace && Round == 0) {
    std::vector<double> Ping;
    for (unsigned I = 0; I != 51; ++I) {
      auto A = Clock::now();
      Error E = [&] {
        Span S("serve.ping", ++NextOp);
        serve::ServeClient Client(Dm.Socket);
        return Client.ping();
      }();
      if (C.op(!E, "ping") && I)
        Ping.push_back(msBetween(A, Clock::now()));
    }
    layer("serve.ping_ms", median(Ping), "ms");
    serve::QueryStatsRequest SR;
    SR.Filter = "serve.connections.rejected";
    auto Stats = Lister.queryStats(SR);
    double Rejected = 0;
    if (C.op(bool(Stats), "QUERY_STATS")) {
      size_t P = Stats->StatsJson.find("\"value\":");
      if (P != std::string::npos)
        Rejected = std::strtod(Stats->StatsJson.c_str() + P + 8, nullptr);
    }
    layer("serve.rejected", Rejected, "count");
  }
  Lister.disconnect();
  Dm.Fresh = false;
  // Each fleet cycle's daemon goes before the next starts, so their pools
  // never hold memory at the same time.
  if (W.Shards)
    stopDaemon(Dm);
  SpanLog::setThreadEnabled(true);
}

//===-- Per-layer experiments (traced run only) ---------------------------===//

/// Replays a recorded onCall/onTick/onReturn stream.  Addresses fit in 30
/// bits; the top two bits tag the event.
struct EventStream : ProfileHooks {
  std::vector<uint32_t> Words;
  uint64_t Calls = 0;
  void onCall(Address From, Address Self) override {
    Words.push_back(0x40000000u | uint32_t(Self));
    Words.push_back(uint32_t(From));
    ++Calls;
  }
  void onTick(Address Pc) override {
    Words.push_back(0x80000000u | uint32_t(Pc));
  }
  void onReturn(Address Self) override {
    Words.push_back(0xC0000000u | uint32_t(Self));
  }
};

void replay(const std::vector<uint32_t> &W, Monitor &M) {
  for (size_t I = 0, E = W.size(); I < E; ++I) {
    uint32_t X = W[I], A = X & 0x3FFFFFFFu;
    switch (X >> 30) {
    case 1:
      M.onCall(W[++I], A);
      break;
    case 2:
      M.onTick(A);
      break;
    default:
      M.onReturn(A);
    }
  }
}

uint64_t writtenChars() {
  std::ifstream IO("/proc/self/io");
  std::string Key;
  uint64_t V = 0;
  while (IO >> Key >> V)
    if (Key == "wchar:")
      return V;
  return 0;
}

void Bench::layerExperiments() {
  const unsigned NProc = std::max(1u, std::thread::hardware_concurrency());
  const Address Lo = ProfImg.lowPc(), Hi = ProfImg.highPc();

  // vm and runtime: plain and profiled executions, interleaved.
  if (!compile(Prog.Source, false, PlainImg))
    return;
  std::vector<double> Plain, Prof;
  uint64_t Instructions = 0;
  for (unsigned I = 0; I != 5; ++I) {
    {
      VM V(PlainImg);
      auto A = Clock::now();
      Expected<RunResult> R = [&] {
        Span S("vm.run_plain", ++NextOp);
        return V.run();
      }();
      double Ms = msBetween(A, Clock::now());
      if (C.op(bool(R) && R->Printed.size() == 1 &&
                   R->Printed[0] == Prog.ExpectedPrint,
               "plain run printed the generator's value") &&
          I) {
        Plain.push_back(Ms);
        Instructions = R->Instructions;
      }
    }
    {
      auto A = Clock::now();
      Monitor M(Lo, Hi);
      VM V(ProfImg);
      V.setHooks(&M);
      Span S("vm.run_profiled", ++NextOp);
      bool Ok = bool(V.run());
      (void)M.finish();
      if (C.op(Ok, "profiled run") && I)
        Prof.push_back(msBetween(A, Clock::now()));
    }
  }
  layer("vm.instructions", double(Instructions), "count");
  layer("vm.ns_per_instr",
        Instructions ? median(Plain) * 1e6 / double(Instructions) : 0, "ns");
  layer("runtime.overhead_pct", (median(Prof) / median(Plain) - 1) * 100,
        "%");
  layer("runtime.probes_per_call",
        RunStats.Records ? double(RunStats.ChainProbes) / RunStats.Records : 0,
        "probes/call");

  // runtime: the recorded event stream replayed into fresh monitors.
  EventStream Stream;
  {
    VM V(ProfImg);
    V.setHooks(&Stream);
    C.op(bool(V.run()), "recording run");
  }
  auto ReplayNs = [&](MonitorOptions MO, unsigned Threads) {
    std::vector<double> Ns;
    for (unsigned Rep = 0; Rep != 4; ++Rep) {
      Monitor M(Lo, Hi, MO);
      std::vector<std::vector<uint32_t>> Copies(Threads - 1, Stream.Words);
      auto A = Clock::now();
      {
        Span S("runtime.replay", ++NextOp);
        std::vector<std::thread> Ts;
        for (unsigned T = 1; T < Threads; ++T)
          Ts.emplace_back([&, T] { replay(Copies[T - 1], M); });
        replay(Stream.Words, M);
        for (std::thread &T : Ts)
          T.join();
      }
      double Ms = msBetween(A, Clock::now());
      uint64_t Calls = 0;
      for (const ArcRecord &R : M.finish().Arcs)
        Calls += R.Count;
      C.op(Calls == Prog.ExpectedCalls * Threads,
           "replayed monitor counts every call");
      if (Rep)
        Ns.push_back(Ms * 1e6 / double(Stream.Calls));
    }
    return median(Ns);
  };
  layer("runtime.ns_per_call", ReplayNs(MonitorOptions(), 1), "ns");
  MonitorOptions Cct;
  Cct.RecordContexts = true;
  layer("runtime.ns_per_call_cct", ReplayNs(Cct, 1), "ns");
  layer("runtime.ns_per_call_mt", ReplayNs(MonitorOptions(), NProc), "ns");

  // core: the report at Threads=nproc must match Threads=1 byte for byte.
  std::vector<double> Mt;
  for (unsigned I = 0; I != 4; ++I) {
    auto A = Clock::now();
    AnalyzerOptions AO;
    AO.Threads = NProc;
    Expected<ProfileReport> R = [&] {
      Span S("core.analyze_mt", ++NextOp);
      return analyzeImageProfile(ProfImg, ReportProfile, AO);
    }();
    double Ms = msBetween(A, Clock::now());
    if (C.op(bool(R), "parallel analyze") && I == 0)
      C.op(printFlatProfile(*R) + "\n" + printCallGraph(*R) == ReportText,
           "listing identical at Threads=1 and Threads=nproc");
    else if (I)
      Mt.push_back(Ms);
  }
  layer("core.analyze_ms_mt", median(Mt), "ms");
  layer("core.listing_bytes", double(ReportText.size()), "bytes");

  // store: the fleet shape, the round's profile varied into FleetShards
  // shards put straight into a scratch store, compacted, then merged in
  // FleetWindow windows, each twice.
  const std::string ScratchRoot = Dir + "/scratch-store";
  auto Scratch = ProfileStore::open(ScratchRoot);
  if (!C.op(bool(Scratch), "open scratch store"))
    return;
  std::vector<double> PutMs;
  uint64_t Written = 0, Payload = 0;
  for (unsigned K = 0; K != FleetShards; ++K) {
    ProfileData S = makeShard(RunProfile, O.Seed, 2000000 + K);
    Payload += writeGmon(S).size();
    uint64_t W0 = writtenChars();
    auto A = Clock::now();
    bool Ok;
    {
      Span Sp("store.put", ++NextOp);
      Ok = bool(Scratch->put(std::move(S)));
    }
    double Ms = msBetween(A, Clock::now());
    Written += writtenChars() - W0;
    if (C.op(Ok, "scratch put") && K)
      PutMs.push_back(Ms);
  }
  layer("store.put_ms", median(PutMs), "ms");
  layer("store.write_amp", Payload ? double(Written) / double(Payload) : 0,
        "ratio");
  std::vector<double> StepMs;
  while (true) {
    auto A = Clock::now();
    Expected<bool> More = [&] {
      Span S("store.compact_step", ++NextOp);
      return Scratch->compactStep();
    }();
    if (!C.op(bool(More), "compact step") || !*More)
      break;
    StepMs.push_back(msBetween(A, Clock::now()));
  }
  layer("store.compact_step_ms", median(StepMs), "ms");
  layer("store.drain_ms", median(DrainMs), "ms");
  layer("store.runs", double(Scratch->runsSnapshot().size()), "count");

  std::vector<ShardInfo> ByTime = Scratch->shards();
  std::sort(ByTime.begin(), ByTime.end(),
            [](const ShardInfo &A, const ShardInfo &B) {
              return A.CaptureTimeNs < B.CaptureTimeNs;
            });
  std::vector<double> MergeCold, MergeHot;
  double Inputs = 0;
  for (size_t Lo2 = 0, Win = 0; Lo2 + FleetWindow <= ByTime.size();
       Lo2 += FleetWindow, ++Win) {
    std::vector<Sha256Digest> Members;
    for (size_t K = Lo2; K != Lo2 + FleetWindow; ++K)
      Members.push_back(ByTime[K].Digest);
    for (int Hot = 0; Hot != 2; ++Hot) {
      auto A = Clock::now();
      Expected<ProfileStore::MergeResult> R = [&] {
        Span S("store.merge", ++NextOp);
        return Scratch->merge(Members);
      }();
      double Ms = msBetween(A, Clock::now());
      if (!C.op(bool(R) && R->CacheHit == bool(Hot),
                "scratch merge hits the cache only on the repeat") ||
          Win == 0)
        continue;
      (Hot ? MergeHot : MergeCold).push_back(Ms);
      if (!Hot)
        Inputs = double(R->InputsMerged);
    }
  }
  layer("store.inputs_per_query", Inputs, "count");
  layer("store.merge_cold_ms", median(MergeCold), "ms");
  layer("store.merge_hot_ms", median(MergeHot), "ms");
  // Bytes under the store root, merge cache included, against the shard
  // bytes put.
  uint64_t Disk = 0;
  std::error_code EC;
  for (fs::recursive_directory_iterator It(ScratchRoot, EC), End;
       !EC && It != End; It.increment(EC))
    if (It->is_regular_file(EC))
      Disk += It->file_size(EC);
  layer("store.space_amp", Payload ? double(Disk) / double(Payload) : 0,
        "ratio");
}

//===-- Top level ---------------------------------------------------------===//

int Bench::run() {
  if (O.Trace)
    SpanLog::instance().enable();
  HostRefMs[0] = hostReferenceMs();
  setup();
  // One discarded run and report; the report's listing is the reference
  // the traced run's parallel analysis must reproduce.
  RunGmon = Dir + "/run.gmon";
  double WarmMs = 0;
  if (profiledRun(++NextOp, WarmMs))
    report(++NextOp, ReportText, WarmMs, &ReportProfile);
  // Rounds repeat while the next one is expected to end within --seconds
  // of the first.
  double RoundS = 0, T0 = elapsedS();
  for (unsigned Round = 0;
       C.Failed == 0 &&
       (Round == 0 || elapsedS() - T0 + RoundS < O.Seconds);
       ++Round) {
    double R0 = elapsedS();
    runOnce();
    reportOnce();
    pushQueryCycle(Round);
    RoundS = elapsedS() - R0;
  }
  if (O.Trace && C.Failed == 0)
    layerExperiments();
  HostRefMs[1] = hostReferenceMs();
  stopDaemon(D);
  emit();
  return C.Failed == 0 ? 0 : 1;
}

/// An end-to-end metric.  Timings also carry their median and tail, which
/// are printed but not gated.
struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
  size_t Samples;
  double Median = NAN, Tail = NAN;
  int TailPct = 0;
};

void Bench::emit() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  const double RssMb = double(RU.ru_maxrss) / 1024.0;

  std::vector<Metric> E2E;
  // A timing's value is its trimmed mean (see trimmedMean); setup_s stays
  // the median of the set-ups, which all run back to back at the start.
  auto Timing = [](const char *Name, const std::vector<double> &V,
                   const char *Unit, double Scale, bool Median = false) {
    Metric M{Name, (Median ? median(V) : trimmedMean(V)) * Scale, Unit,
             V.size()};
    M.Median = median(V) * Scale;
    M.Tail = tailPercentile(V, M.TailPct) * Scale;
    return M;
  };
  E2E.push_back(Timing("setup_s", SetupS, "s", 1.0, /*Median=*/true));
  E2E.push_back(Timing("run_s", RunMs.Plain, "s", 1e-3));
  // One rate over every cycle's pushes: acknowledged shards per second of
  // time with a push in flight.
  const double Ingest = BusyS > 0 ? double(Acked) / BusyS : 0;
  E2E.push_back({"ingest_per_s", Ingest, "1/s", size_t(Acked)});
  E2E.push_back(Timing("push_ms", PushMs.Plain, "ms", 1.0));
  E2E.push_back(Timing("query_cold_ms", ColdMs.Plain, "ms", 1.0));
  E2E.push_back(Timing("query_hot_ms", HotMs.Plain, "ms", 1.0));
  E2E.push_back({"peak_rss_mb", RssMb, "MB", 1});
  for (const Metric &M : E2E)
    C.op(M.Samples != 0, M.Name + " has samples (is --seconds too short?)");
  // The report spreads too widely across seeds to gate (see LEDGER.md);
  // query_hot_ms gates the same analyze and print work.
  const Metric Report = Timing("report_s", ReportMs.Plain, "s", 1e-3);
  double ErrorRate = C.Attempted ? double(C.Failed) / double(C.Attempted) : 1;

  struct statfs SF;
  bool Tmpfs = statfs(Dir.c_str(), &SF) == 0 && SF.f_type == 0x01021994;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d nproc=%u\n",
              O.W->Name, (unsigned long long)O.Seed, O.Seconds, int(O.Trace),
              std::thread::hardware_concurrency());
  std::printf("  %s\n", O.W->Why);
  std::printf("  program: %u routines, %llu profiled calls per run\n",
              Prog.Routines, (unsigned long long)Prog.ExpectedCalls);
  std::printf("  scratch files and store under %s (%s); the store does not "
              "fsync\n",
              Dir.c_str(), Tmpfs ? "tmpfs" : "not tmpfs");
  for (const std::string &L : CycleLines)
    std::printf("  %s\n", L.c_str());
  std::printf("  %-16s %14s %-5s %6s %14s %14s\n", "metric", "value", "unit",
              "n", "median", "tail");
  auto Row = [](const Metric &M, const char *Note) {
    std::printf("  %-16s %14.6g %-5s %6zu", M.Name.c_str(), M.Value, M.Unit,
                M.Samples);
    if (!std::isnan(M.Median))
      std::printf(" %14.6g %14.6g (p%d)", M.Median, M.Tail, M.TailPct);
    std::printf("%s\n", Note);
  };
  for (const Metric &M : E2E)
    Row(M, "");
  Row(Report, "  (not gated)");
  std::printf("  %-16s %14.6g %-5s %6llu   (failed / attempted checks)\n",
              "error_rate", ErrorRate, "ratio",
              (unsigned long long)C.Attempted);
  std::printf("  values: setup_s median, timings trimmed mean (middle 80%% of "
              "samples), ingest_per_s one rate; tail: the highest percentile "
              "with ten samples beyond it\n");
  std::printf("  host reference loop: %.3f ms at start, %.3f ms at end (same "
              "work; tells host speed changes from program changes)\n",
              HostRefMs[0], HostRefMs[1]);
  for (const std::string &N : C.Notes)
    std::printf("  FAILED: %s\n", N.c_str());

  std::string Json;
  if (O.Trace) {
    // Tracing overhead: traced minus untraced values of the same stage.
    auto Over = [&](const char *Name, const Series &S) {
      if (S.Traced.empty() || S.Plain.empty())
        return;
      double T = trimmedMean(S.Traced), P = trimmedMean(S.Plain);
      std::printf("  trace overhead %-14s %+.4f ms (%+.2f%%) traced n=%zu\n",
                  Name, T - P, (T / P - 1) * 100, S.Traced.size());
    };
    Over("run_s", RunMs);
    Over("report_s", ReportMs);
    Over("push_ms", PushMs);
    Over("query_cold_ms", ColdMs);
    Over("query_hot_ms", HotMs);
    const Series &Primary = O.W->Shards ? PushMs : RunMs;
    layer("trace.overhead_pct",
          Primary.Traced.empty()
              ? 0
              : (trimmedMean(Primary.Traced) / trimmedMean(Primary.Plain) -
                 1) * 100,
          "%");
    layer("lang.compile_ms", median(CompileMs), "ms");
    int TailPct = 0;
    layer("serve.push_p99_ms", tailPercentile(PushMs.Plain, TailPct), "ms");

    // Per-layer self time from the spans, next to what it should move.
    std::map<std::string, uint64_t> Self = SpanLog::instance().selfTimes();
    std::map<std::string, double> PerSpan;
    std::map<std::string, unsigned> Count;
    std::vector<SpanRecord> All = SpanLog::instance().spans();
    for (const SpanRecord &S : All)
      ++Count[S.Name];
    static const std::map<std::string, const char *> Moves = {
        {"lang", "setup_s"},          {"vm", "run_s"},
        {"runtime", "run_s"},         {"gmon.write", "run_s"},
        {"gmon.read", "report_s"},    {"core", "report_s, query_hot_ms"},
        {"serve", "push_ms, query_*_ms"},
        {"store", "ingest_per_s, push_ms, query_cold_ms"},
        {"check", "(correctness check)"}, {"setup", "setup_s"},
        {"serve.start", "setup_s"},
        {"run", "run_s"},             {"report", "report_s"}};
    std::printf("  %-22s %12s %7s  %s\n", "span (self time)", "ms/span", "n",
                "should move");
    for (auto &[Name, Ns] : Self) {
      std::string Prefix = Name.substr(0, Name.find('.'));
      const char *M = Moves.count(Name)     ? Moves.at(Name)
                      : Moves.count(Prefix) ? Moves.at(Prefix)
                                            : "";
      std::printf("  %-22s %12.4f %7u  %s\n", Name.c_str(),
                  double(Ns) / 1e6 / Count[Name], Count[Name], M);
    }
    // Per-call layer timings: the median duration of the spans around them.
    std::map<std::string, std::vector<double>> Durations;
    for (const SpanRecord &S : All)
      Durations[S.Name].push_back(double(S.EndNs - S.BeginNs) / 1e6);
    layer("runtime.extract_ms", median(Durations["runtime.extract"]), "ms");
    layer("gmon.write_ms", median(Durations["gmon.write"]), "ms");
    layer("gmon.read_ms", median(Durations["gmon.read"]), "ms");
    layer("core.analyze_ms", median(Durations["core.analyze"]), "ms");
    layer("core.flat_print_ms", median(Durations["core.flat_print"]), "ms");
    layer("core.graph_print_ms", median(Durations["core.graph_print"]), "ms");
    // The report's four child spans must account for the whole report.
    std::map<uint64_t, uint64_t> ChildNs;
    for (const SpanRecord &S : All)
      if (S.Parent)
        ChildNs[S.Parent] += S.EndNs - S.BeginNs;
    double Parent = 0, Kids = 0;
    for (const SpanRecord &S : All)
      if (std::strcmp(S.Name, "report") == 0) {
        Parent += double(S.EndNs - S.BeginNs);
        Kids += double(ChildNs[S.Id]);
      }
    if (Parent > 0) {
      std::printf("  report spans (gmon.read + core.*) cover %.2f%% of "
                  "report_s\n",
                  100 * Kids / Parent);
      C.op(Kids >= 0.95 * Parent, "report child spans sum to report_s");
    }
    std::string TracePath = format(".bench_build/perfbench-trace-%s-%llu.json",
                                   O.W->Name, (unsigned long long)O.Seed);
    std::ofstream(TracePath) << SpanLog::instance().chromeTraceJson();
    std::printf("  chrome trace: %s (%zu spans)\n", TracePath.c_str(),
                All.size());
    for (const std::string &N : LayerOrder)
      std::printf("  %-26s %14.6g %s\n", N.c_str(), Layer[N].first,
                  Layer[N].second);
    for (const std::string &N : LayerOrder)
      Json += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     Json.empty() ? "" : ", ", N.c_str(), Layer[N].first,
                     Layer[N].second);
  } else {
    for (const Metric &M : E2E)
      Json += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     Json.empty() ? "" : ", ", M.Name.c_str(), M.Value,
                     M.Unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              C.Failed == 0 ? "true" : "false",
              (unsigned long long)C.Attempted, (unsigned long long)C.Failed,
              Json.c_str());
  std::fflush(stdout);
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload") {
      for (const Spec &S : Specs)
        if (V == S.Name)
          O.W = &S;
    } else if (K == "--seed") {
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    } else if (K == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), nullptr);
    } else if (K == "--trace") {
      O.Trace = V == "1";
    } else {
      return false;
    }
  }
  return O.W && O.Seconds > 0 && Argc % 2 == 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr, "usage: perfbench --workload callgraph|fleet "
                         "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  std::string Dir = format(".bench_build/work-%s-%ld", O.W->Name,
                           long(getpid()));
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  settleDisk(Dir.c_str());
  int Rc = Bench(O, Dir).run();
  fs::remove_all(Dir);
  settleDisk(".bench_build");
  return Rc;
}
