//===- tests/serve_test.cpp - Continuous-profiling daemon tests -----------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests for the ingestion service (src/serve/): frame codec
/// robustness against truncation and byte mutation, the daemon's
/// ping/put/list/query round trip, byte-identity of daemon-side reports
/// against offline `gprof-store report` after 16 concurrent pushers,
/// bounded-queue backpressure, survival of garbage streams and mid-upload
/// disconnects, fault-injected socket and index failures leaving the store
/// tree untouched, and the `gprof-store serve` / `tlrun --push` CLI loop
/// (docs/SERVE.md).
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/FlatPrinter.h"
#include "core/GraphPrinter.h"
#include "gmon/GmonFile.h"
#include "runtime/Monitor.h"
#include "serve/Client.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "store/ProfileStore.h"
#include "support/EventLog.h"
#include "support/FaultInjection.h"
#include "support/FileUtils.h"
#include "support/Format.h"
#include "support/Sha256.h"
#include "support/Socket.h"
#include "support/Telemetry.h"
#include "support/TraceWriter.h"
#include "vm/CodeGen.h"
#include "vm/Image.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace gprof;
using namespace gprof::serve;

namespace {

std::string tempPath(const std::string &Name) {
  // Per-process paths: ctest runs each test case as its own process, so a
  // shared fixed path would race under parallel test execution.
  return testing::TempDir() + format("/gprof_serve_%d_%s", getpid(),
                                     Name.c_str());
}

int runRedirected(const std::string &Full, std::string &Output) {
  std::FILE *Pipe = popen(Full.c_str(), "r");
  if (!Pipe)
    return -1;
  Output.clear();
  char Buf[4096];
  while (size_t N = std::fread(Buf, 1, sizeof(Buf), Pipe))
    Output.append(Buf, N);
  int Status = pclose(Pipe);
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

/// Runs a command, capturing stdout+stderr; returns the exit code.
int runCommand(const std::string &Command, std::string &Output) {
  return runRedirected(Command + " 2>&1", Output);
}

/// Runs a command, capturing only stdout (for byte comparisons that must
/// not see stderr feedback lines).
int runCommandStdout(const std::string &Command, std::string &Output) {
  return runRedirected(Command + " 2>/dev/null", Output);
}

/// Every regular file under \p Root, as relative path -> contents.  Used
/// to prove a failed upload left the store tree byte-identical.
std::map<std::string, std::vector<uint8_t>>
snapshotTree(const std::string &Root) {
  std::map<std::string, std::vector<uint8_t>> Tree;
  for (const auto &Entry :
       std::filesystem::recursive_directory_iterator(Root)) {
    if (!Entry.is_regular_file())
      continue;
    std::string Rel =
        std::filesystem::relative(Entry.path(), Root).string();
    Tree[Rel] = cantFail(readFileBytes(Entry.path().string()));
  }
  return Tree;
}

/// True while the daemon's socket file is present.  fileExists() is no
/// use here: it answers only for regular files, and a socket is not one.
bool socketExists(const std::string &SocketPath) {
  std::error_code EC;
  return std::filesystem::exists(SocketPath, EC);
}

/// Pings \p SocketPath until the daemon answers, failing after ~5s.
testing::AssertionResult waitForDaemon(const std::string &SocketPath) {
  ClientOptions CO;
  CO.Retries = 0;
  CO.RetryBackoffMs = 0;
  for (int I = 0; I != 100; ++I) {
    ServeClient Probe(SocketPath, CO);
    Error E = Probe.ping();
    if (!E)
      return testing::AssertionSuccess();
    (void)E.message();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return testing::AssertionFailure() << "daemon never came up at "
                                     << SocketPath;
}

/// Fixture: compiles the TL primes example with profiling once and
/// profiles it under four different tick rates, yielding four distinct but
/// mutually compatible gmon shards plus the image they belong to.
class ServeTest : public testing::Test {
protected:
  static void SetUpTestSuite() {
    ImgPath = new std::string(tempPath("primes.tlx"));
    std::string Source =
        cantFail(readFileText(std::string(TL_CORPUS_DIR) + "/primes.tl"));
    CodeGenOptions CG;
    CG.EnableProfiling = true;
    Image Compiled = compileTLOrDie(Source, CG);
    cantFail(Compiled.saveToFile(*ImgPath));
    ImageId = new Sha256Digest(
        Sha256::hash(cantFail(readFileBytes(*ImgPath))));

    Shards = new std::vector<std::vector<uint8_t>>();
    for (uint64_t CyclesPerTick : {997, 1009, 4001, 9973}) {
      Monitor Mon(Compiled.lowPc(), Compiled.highPc());
      VMOptions VO;
      VO.CyclesPerTick = CyclesPerTick;
      VM Machine(Compiled, VO);
      Machine.setHooks(&Mon);
      cantFail(Machine.run());
      Shards->push_back(writeGmon(Mon.finish()));
    }
  }

  static void TearDownTestSuite() {
    std::remove(ImgPath->c_str());
    delete ImgPath;
    delete ImageId;
    delete Shards;
  }

  /// One running daemon over a fresh store, torn down with the test.
  struct Daemon {
    Daemon(const std::string &Name, const ServeOptions &Opts = {}) {
      StoreRoot = tempPath(Name + "_store");
      SocketPath = tempPath(Name + ".sock");
      std::filesystem::remove_all(StoreRoot);
      Server = cantFail(ServeServer::create(StoreRoot, SocketPath, Opts));
      cantFail(Server->start());
    }
    ~Daemon() {
      Server->stop();
      std::filesystem::remove_all(StoreRoot);
    }
    std::string StoreRoot;
    std::string SocketPath;
    std::unique_ptr<ServeServer> Server;
  };

  static std::string *ImgPath;
  static Sha256Digest *ImageId;
  static std::vector<std::vector<uint8_t>> *Shards;
};

std::string *ServeTest::ImgPath = nullptr;
Sha256Digest *ServeTest::ImageId = nullptr;
std::vector<std::vector<uint8_t>> *ServeTest::Shards = nullptr;

} // namespace

//===----------------------------------------------------------------------===//
// Protocol codecs
//===----------------------------------------------------------------------===//

TEST(ServeProtocolTest, FrameHeaderRoundTripAndValidation) {
  std::vector<uint8_t> Header =
      encodeFrameHeader(MsgType::PutShard, 12345, 77);
  ASSERT_EQ(Header.size(), FrameHeaderSize);
  MsgType Type;
  uint64_t ReqId = 0;
  auto Length = decodeFrameHeader(Header.data(), Type, ReqId);
  ASSERT_TRUE(static_cast<bool>(Length));
  EXPECT_EQ(*Length, 12345u);
  EXPECT_EQ(Type, MsgType::PutShard);
  EXPECT_EQ(ReqId, 77u);

  // The id defaults to 0 (requests carry no id).
  Header = encodeFrameHeader(MsgType::Ping, 0);
  ReqId = 99;
  ASSERT_TRUE(
      static_cast<bool>(decodeFrameHeader(Header.data(), Type, ReqId)));
  EXPECT_EQ(ReqId, 0u);

  // Bad magic.
  std::vector<uint8_t> Bad = encodeFrameHeader(MsgType::PutShard, 12345);
  Bad[0] = 'X';
  auto BadMagic = decodeFrameHeader(Bad.data(), Type, ReqId);
  ASSERT_FALSE(static_cast<bool>(BadMagic));
  EXPECT_NE(BadMagic.message().find("magic"), std::string::npos);

  // Unknown type.
  Bad = encodeFrameHeader(MsgType::PutShard, 12345);
  Bad[4] = 99;
  auto BadType = decodeFrameHeader(Bad.data(), Type, ReqId);
  ASSERT_FALSE(static_cast<bool>(BadType));
  EXPECT_NE(BadType.message().find("unknown frame type"), std::string::npos);

  // Oversized length field.
  Bad = encodeFrameHeader(MsgType::PutShard, MaxFramePayload + 1);
  auto TooBig = decodeFrameHeader(Bad.data(), Type, ReqId);
  ASSERT_FALSE(static_cast<bool>(TooBig));
  EXPECT_NE(TooBig.message().find("exceeds"), std::string::npos);
}

TEST(ServeProtocolTest, TypeRangesAndNames) {
  // The request range must cover QUERY_STATS and stay disjoint from the
  // response range; a regression here makes the daemon drop the frame.
  for (uint8_t T : {1, 2, 3, 4, 5}) {
    EXPECT_TRUE(isRequestType(T)) << unsigned(T);
    EXPECT_FALSE(isResponseType(T)) << unsigned(T);
  }
  for (uint8_t T : {16, 17, 18}) {
    EXPECT_FALSE(isRequestType(T)) << unsigned(T);
    EXPECT_TRUE(isResponseType(T)) << unsigned(T);
  }
  for (uint8_t T : {0, 6, 15, 19, 99}) {
    EXPECT_FALSE(isRequestType(T)) << unsigned(T);
    EXPECT_FALSE(isResponseType(T)) << unsigned(T);
  }

  // msgTypeName is used in telemetry metric names; the strings are a
  // stable contract, including the out-of-range form.
  EXPECT_EQ(msgTypeName(MsgType::Ping), "ping");
  EXPECT_EQ(msgTypeName(MsgType::PutShard), "put_shard");
  EXPECT_EQ(msgTypeName(MsgType::List), "list");
  EXPECT_EQ(msgTypeName(MsgType::QueryReport), "query_report");
  EXPECT_EQ(msgTypeName(MsgType::QueryStats), "query_stats");
  EXPECT_EQ(msgTypeName(MsgType::Ok), "ok");
  EXPECT_EQ(msgTypeName(MsgType::Err), "error");
  EXPECT_EQ(msgTypeName(MsgType::Retry), "retry");
  EXPECT_EQ(msgTypeName(static_cast<MsgType>(99)), "unknown(99)");
}

TEST(ServeProtocolTest, QueryStatsCodecsRoundTrip) {
  QueryStatsRequest Req;
  Req.SinceSeq = 41;
  Req.Filter = "serve.request.";
  auto ReqBack = decodeQueryStats(encodeQueryStats(Req));
  ASSERT_TRUE(static_cast<bool>(ReqBack));
  EXPECT_EQ(ReqBack->SinceSeq, 41u);
  EXPECT_EQ(ReqBack->Filter, "serve.request.");

  StatsResponse Resp;
  Resp.StatsJson = "{\"bench\": \"x\"}\n";
  Resp.LastSeq = 123;
  auto RespBack = decodeStatsResponse(encodeStatsResponse(Resp));
  ASSERT_TRUE(static_cast<bool>(RespBack));
  EXPECT_EQ(RespBack->StatsJson, Resp.StatsJson);
  EXPECT_EQ(RespBack->LastSeq, 123u);

  // Truncations and single-byte mutations: error or a different value,
  // never a crash or over-read.
  for (const auto &Valid :
       {encodeQueryStats(Req), encodeStatsResponse(Resp)}) {
    for (size_t Cut = 0; Cut != Valid.size(); ++Cut) {
      std::vector<uint8_t> Trunc(Valid.begin(), Valid.begin() + Cut);
      auto R = decodeQueryStats(Trunc);
      if (!R)
        (void)R.takeError();
      auto S = decodeStatsResponse(Trunc);
      if (!S)
        (void)S.takeError();
    }
    for (size_t I = 0; I != Valid.size(); ++I) {
      std::vector<uint8_t> Mutated = Valid;
      Mutated[I] ^= 0xFF;
      auto R = decodeQueryStats(Mutated);
      if (!R)
        (void)R.takeError();
      auto S = decodeStatsResponse(Mutated);
      if (!S)
        (void)S.takeError();
    }
  }
}

TEST(ServeProtocolTest, PayloadCodecsRoundTrip) {
  PutShardRequest Put;
  Put.ImageId.fill(7);
  Put.GmonBytes = {1, 2, 3, 4, 5};
  auto PutBack = decodePutShard(encodePutShard(Put));
  ASSERT_TRUE(static_cast<bool>(PutBack));
  EXPECT_EQ(PutBack->ImageId, Put.ImageId);
  EXPECT_EQ(PutBack->GmonBytes, Put.GmonBytes);

  QueryReportRequest Query;
  Query.ImagePath = "some/image.tlx";
  Query.Flags.GraphOnly = true;
  Query.Flags.Brief = true;
  Query.Members.resize(3);
  Query.Members[1].fill(9);
  auto QueryBack = decodeQueryReport(encodeQueryReport(Query));
  ASSERT_TRUE(static_cast<bool>(QueryBack));
  EXPECT_EQ(QueryBack->ImagePath, Query.ImagePath);
  EXPECT_TRUE(QueryBack->Flags.GraphOnly);
  EXPECT_TRUE(QueryBack->Flags.Brief);
  EXPECT_FALSE(QueryBack->Flags.FlatOnly);
  EXPECT_EQ(QueryBack->Members, Query.Members);

  std::vector<ShardInfo> List(2);
  List[0].Digest.fill(1);
  List[0].Hz = 60;
  List[0].NumArcs = 5;
  List[1].Digest.fill(2);
  List[1].Runs = 3;
  List[1].CaptureTimeNs = 1760000000123456789ull;
  std::vector<uint8_t> ListBytes = encodeShardList(List);
  auto ListBack = decodeShardList(ListBytes);
  ASSERT_TRUE(static_cast<bool>(ListBack));
  ASSERT_EQ(ListBack->size(), 2u);
  EXPECT_EQ((*ListBack)[0].Digest, List[0].Digest);
  EXPECT_EQ((*ListBack)[0].Hz, 60u);
  EXPECT_EQ((*ListBack)[0].CaptureTimeNs, 0u);
  EXPECT_EQ((*ListBack)[1].Runs, 3u);
  EXPECT_EQ((*ListBack)[1].CaptureTimeNs, List[1].CaptureTimeNs);

  // Revision-2 rows lack the trailing capture time: a revision-3 decoder
  // fails on them instead of misreading the rows.
  constexpr size_t Rev3Row = 32 + 32 + 7 * 8 + 4 + 8;
  std::vector<uint8_t> Rev2Bytes(ListBytes.begin(), ListBytes.begin() + 8);
  for (size_t Row = 0; Row != List.size(); ++Row) {
    auto At = ListBytes.begin() + 8 + Row * Rev3Row;
    Rev2Bytes.insert(Rev2Bytes.end(), At, At + Rev3Row - 8);
  }
  auto Rev2 = decodeShardList(Rev2Bytes);
  ASSERT_FALSE(static_cast<bool>(Rev2));
  (void)Rev2.takeError();
}

TEST(ServeProtocolTest, DecodersSurviveTruncationAndMutation) {
  // Build valid payloads, then feed the decoders every truncation and a
  // sweep of single-byte corruptions.  The claim is "error or a different
  // value, never a crash or over-read".
  PutShardRequest Put;
  Put.GmonBytes = {1, 2, 3};
  std::vector<ShardInfo> List(2);
  QueryReportRequest Query;
  Query.ImagePath = "x.tlx";
  Query.Members.resize(2);

  const std::vector<std::vector<uint8_t>> Payloads = {
      encodePutShard(Put), encodeShardList(List),
      encodeQueryReport(Query)};
  auto Exercise = [](const std::vector<uint8_t> &Bytes) {
    auto P = decodePutShard(Bytes);
    if (!P)
      (void)P.takeError();
    auto L = decodeShardList(Bytes);
    if (!L)
      (void)L.takeError();
    auto Q = decodeQueryReport(Bytes);
    if (!Q)
      (void)Q.takeError();
    auto D = decodeDigest(Bytes);
    if (!D)
      (void)D.takeError();
  };

  for (const auto &Valid : Payloads) {
    for (size_t Cut = 0; Cut != Valid.size(); ++Cut)
      Exercise(std::vector<uint8_t>(Valid.begin(), Valid.begin() + Cut));
    for (size_t I = 0; I != Valid.size(); ++I) {
      std::vector<uint8_t> Mutated = Valid;
      Mutated[I] ^= 0xFF;
      Exercise(Mutated);
    }
  }
}

//===----------------------------------------------------------------------===//
// Daemon round trips
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, PingPutListQueryRoundTrip) {
  Daemon D("roundtrip");
  ServeClient Client(D.SocketPath);
  cantFail(Client.ping());

  // put: content-addressed and idempotent, like `gprof-store put`.
  Sha256Digest Digest =
      cantFail(Client.putShard(Shards->front(), *ImageId));
  EXPECT_EQ(cantFail(Client.putShard(Shards->front(), *ImageId)), Digest);

  auto Listed = Client.list();
  ASSERT_TRUE(static_cast<bool>(Listed));
  ASSERT_EQ(Listed->size(), 1u);
  EXPECT_EQ(Listed->front().Digest, Digest);
  EXPECT_EQ(Listed->front().ImageId, *ImageId);
  EXPECT_EQ(Listed->front().Runs, 1u);

  // query: full report over the one shard, and a flat-only one
  // restricted to an explicit member digest.
  QueryReportRequest Req;
  Req.ImagePath = *ImgPath;
  auto Full = Client.queryReport(Req);
  ASSERT_TRUE(static_cast<bool>(Full));
  EXPECT_NE(Full->find("flat profile"), std::string::npos);
  Req.Flags.FlatOnly = true;
  Req.Members = {Digest};
  auto Flat = Client.queryReport(Req);
  ASSERT_TRUE(static_cast<bool>(Flat));
  EXPECT_EQ(Full->compare(0, Flat->size(), *Flat), 0)
      << "flat-only must be a prefix of the full report";

  // Request telemetry accumulated under the serve.request.* counters.
  std::string Stats =
      telemetry::Registry::instance().renderStatsJson("serve_stats");
  EXPECT_NE(Stats.find("serve.request.put_shard"), std::string::npos);
  EXPECT_NE(Stats.find("serve.request.query_report"), std::string::npos);

  // The store on disk is a plain profile store: reopening it offline
  // sees the pushed shard.
  Client.disconnect();
  D.Server->stop();
  auto Store = ProfileStore::open(D.StoreRoot);
  ASSERT_TRUE(static_cast<bool>(Store));
  ASSERT_EQ(Store->shards().size(), 1u);
  EXPECT_EQ(Store->shards().front().Digest, Digest);
}

TEST_F(ServeTest, ListCarriesCaptureTimes) {
  // Remote clients window by capture time, so LIST must return the stamps
  // put() recorded, not zeros.
  Daemon D("list_capture");
  ServeClient Client(D.SocketPath);
  for (size_t I = 0; I != 2; ++I)
    cantFail(Client.putShard((*Shards)[I], *ImageId).takeError());
  auto Listed = Client.list();
  ASSERT_TRUE(static_cast<bool>(Listed));
  std::vector<ShardInfo> Indexed = D.Server->store().shardsSnapshot();
  ASSERT_EQ(Listed->size(), Indexed.size());
  ASSERT_EQ(Listed->size(), 2u);
  for (size_t I = 0; I != Indexed.size(); ++I) {
    EXPECT_EQ((*Listed)[I].Digest, Indexed[I].Digest);
    EXPECT_NE((*Listed)[I].CaptureTimeNs, 0u);
    EXPECT_EQ((*Listed)[I].CaptureTimeNs, Indexed[I].CaptureTimeNs);
  }
}

TEST_F(ServeTest, DaemonReportMatchesOfflineAfterConcurrentPush) {
  // The acceptance bar: 16 concurrent clients push interleaved uploads,
  // and the daemon's report answer is byte-identical to what
  // `gprof-store report` computes offline over the resulting store.
  ServeOptions SO;
  SO.Workers = 8;
  SO.MaxQueuedConnections = 8;
  Daemon D("concurrent", SO);

  constexpr unsigned NumClients = 16;
  constexpr unsigned PushesPerClient = 4;
  std::mutex DigestsMutex;
  std::set<Sha256Digest> Digests;
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumClients; ++T)
    Threads.emplace_back([&, T] {
      // One client (= one connection = one daemon worker) per thread,
      // each pushing the shard variants in a different rotation so
      // uploads interleave.
      ServeClient Client(D.SocketPath);
      for (unsigned I = 0; I != PushesPerClient; ++I) {
        const auto &Bytes = (*Shards)[(T + I) % Shards->size()];
        auto Digest = Client.putShard(Bytes, *ImageId);
        if (!Digest) {
          (void)Digest.takeError();
          Failures.fetch_add(1);
          continue;
        }
        std::lock_guard<std::mutex> Lock(DigestsMutex);
        Digests.insert(*Digest);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  ASSERT_EQ(Failures.load(), 0u);
  EXPECT_EQ(Digests.size(), Shards->size())
      << "distinct tick rates must land as distinct shards";

  ServeClient Client(D.SocketPath);
  QueryReportRequest Req;
  Req.ImagePath = *ImgPath;
  std::string DaemonText = cantFail(Client.queryReport(Req));
  Client.disconnect();
  D.Server->stop();

  // Offline reference: same store, same flags, the exact assembly
  // `gprof-store report` prints to stdout.
  auto Store = ProfileStore::open(D.StoreRoot);
  ASSERT_TRUE(static_cast<bool>(Store));
  ASSERT_EQ(Store->shards().size(), Digests.size());
  auto Merged = Store->merge({});
  ASSERT_TRUE(static_cast<bool>(Merged));
  // 64 uploads collapsed into one run per distinct shard.
  EXPECT_EQ(Merged->Data.RunCount, Digests.size());
  auto Img = Image::loadFromFile(*ImgPath);
  ASSERT_TRUE(static_cast<bool>(Img));
  auto Report = analyzeImageProfile(*Img, Merged->Data);
  ASSERT_TRUE(static_cast<bool>(Report));
  std::string Offline = printFlatProfile(*Report, FlatPrintOptions{});
  Offline += "\n";
  Offline += printCallGraph(*Report, GraphPrintOptions{});
  EXPECT_EQ(DaemonText, Offline);
}

TEST_F(ServeTest, BackpressureAnswersRetryAtCapacity) {
  // Workers=1, queue=0: one connection in service is the whole capacity.
  // The connection-per-worker model makes this deterministic — an idle
  // open connection occupies the only slot.
  ServeOptions SO;
  SO.Workers = 1;
  SO.MaxQueuedConnections = 0;
  Daemon D("backpressure", SO);

  ServeClient Occupant(D.SocketPath);
  cantFail(Occupant.ping()); // Now admitted and held open.

  ClientOptions FailFast;
  FailFast.Retries = 0;
  FailFast.RetryBackoffMs = 0;
  ServeClient Rejected(D.SocketPath, FailFast);
  Error E = Rejected.ping();
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_NE(E.message().find("capacity"), std::string::npos) << E.message();

  // Freeing the slot lets the next client (with retry budget) through.
  Occupant.disconnect();
  ClientOptions Retrying;
  Retrying.Retries = 50;
  Retrying.RetryBackoffMs = 1;
  ServeClient Eventually(D.SocketPath, Retrying);
  cantFail(Eventually.ping());
}

TEST(ServeClientTest, CapacityAnswerSurvivesAFailedRequestWrite) {
  // A daemon at capacity writes RETRY and closes without reading the
  // request.  When the close lands before the client's write, the write
  // fails with a broken pipe while the RETRY is already waiting; the
  // client must still report the capacity answer.  A scripted peer makes
  // that order deterministic: it answers one ping, then RETRY, and closes.
  std::string SocketPath = tempPath("retry_then_close.sock");
  auto Listener = UnixListener::listenOn(SocketPath);
  ASSERT_TRUE(static_cast<bool>(Listener)) << Listener.message();
  std::thread Peer([&] {
    auto Pending = Listener->waitReadable(5000);
    ASSERT_TRUE(Pending && *Pending);
    auto Sock = Listener->accept();
    ASSERT_TRUE(static_cast<bool>(Sock)) << Sock.message();
    ConnectionOptions CO;
    CO.IdleTimeoutMs = 5000;
    Connection Conn(std::move(*Sock), CO);
    auto Request = Conn.readFrame();
    ASSERT_TRUE(Request && *Request);
    EXPECT_EQ((**Request).Type, MsgType::Ping);
    cantFail(Conn.writeFrame(MsgType::Ok, {}));
    cantFail(Conn.writeRetry("server at capacity (1 connections); retry "
                             "with backoff"));
    Conn.close();
  });

  ClientOptions FailFast;
  FailFast.Retries = 0;
  FailFast.RetryBackoffMs = 0;
  ServeClient Client(SocketPath, FailFast);
  Error First = Client.ping();
  Peer.join();
  ASSERT_FALSE(static_cast<bool>(First)) << First.message();

  // The cached connection's peer is gone: this write fails.
  Error E = Client.ping();
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_NE(E.message().find("capacity"), std::string::npos) << E.message();
  Listener->close();
}

//===----------------------------------------------------------------------===//
// Live observability: QUERY_STATS, the event tail, request tracing
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, QueryStatsEndpointAndEventTail) {
  ServeOptions SO;
  SO.SlowRequestMs = 0; // Every request logs a request.slow event.
  Daemon D("stats", SO);
  ServeClient Client(D.SocketPath);
  cantFail(Client.putShard(Shards->front(), *ImageId));

  QueryStatsRequest Req;
  auto Resp = Client.queryStats(Req);
  ASSERT_TRUE(static_cast<bool>(Resp));
  ASSERT_TRUE(static_cast<bool>(validateJson(Resp->StatsJson)))
      << Resp->StatsJson;
  // The live shape: bench name, daemon scalars, latency histogram rows,
  // and the event tail.
  EXPECT_NE(Resp->StatsJson.find("\"bench\": \"gprof_store_serve\""),
            std::string::npos);
  EXPECT_NE(Resp->StatsJson.find("\"uptime_ns\": "), std::string::npos);
  EXPECT_NE(Resp->StatsJson.find("\"pid\": "), std::string::npos);
  EXPECT_NE(Resp->StatsJson.find("\"build\": "), std::string::npos);
  EXPECT_NE(Resp->StatsJson.find("\"events\": ["), std::string::npos);
  EXPECT_NE(Resp->StatsJson.find("serve.request.latency.put_shard"),
            std::string::npos);
  EXPECT_NE(Resp->StatsJson.find("\"kind\": \"histogram\""),
            std::string::npos);
  EXPECT_NE(Resp->StatsJson.find("\"event\": \"connection.accepted\""),
            std::string::npos);
  EXPECT_NE(Resp->StatsJson.find("\"event\": \"request.slow\""),
            std::string::npos);
  EXPECT_GT(Resp->LastSeq, 0u);

  // Incremental tail: resuming from LastSeq yields only newer events —
  // the slow-request event of the first QUERY_STATS itself, but none of
  // the events the first response already delivered.
  QueryStatsRequest Tail;
  Tail.SinceSeq = Resp->LastSeq;
  auto Resp2 = Client.queryStats(Tail);
  ASSERT_TRUE(static_cast<bool>(Resp2));
  ASSERT_TRUE(static_cast<bool>(validateJson(Resp2->StatsJson)));
  EXPECT_EQ(Resp2->StatsJson.find("\"event\": \"connection.accepted\""),
            std::string::npos);
  EXPECT_NE(Resp2->StatsJson.find("\"type\": \"query_stats\""),
            std::string::npos);
  EXPECT_GE(Resp2->LastSeq, Resp->LastSeq);

  // Prefix filter: only matching metric/histogram rows survive; daemon
  // scalars and events are unaffected.
  QueryStatsRequest Filtered;
  Filtered.Filter = "serve.request.latency.";
  auto Resp3 = Client.queryStats(Filtered);
  ASSERT_TRUE(static_cast<bool>(Resp3));
  ASSERT_TRUE(static_cast<bool>(validateJson(Resp3->StatsJson)));
  EXPECT_NE(Resp3->StatsJson.find("serve.request.latency.put_shard"),
            std::string::npos);
  EXPECT_EQ(Resp3->StatsJson.find("store.put.latency"), std::string::npos);
  EXPECT_NE(Resp3->StatsJson.find("\"uptime_ns\": "), std::string::npos);
}

TEST_F(ServeTest, RequestTracingCorrelatesClientAndDaemonSpans) {
  telemetry::Registry &R = telemetry::Registry::instance();
  R.resetValues();
  R.enableSpans(true);
  struct SpansOff {
    ~SpansOff() { telemetry::Registry::instance().enableSpans(false); }
  } Off;
  {
    // In-process daemon: client and daemon spans land in the same
    // registry, so the echoed request id is directly checkable.
    Daemon D("tracing");
    ServeClient Client(D.SocketPath);
    cantFail(Client.putShard(Shards->front(), *ImageId));
    QueryReportRequest Req;
    Req.ImagePath = *ImgPath;
    Req.Flags.FlatOnly = true;
    cantFail(Client.queryReport(Req));
  }

  std::vector<telemetry::SpanRecord> Spans = R.collectSpans();
  uint64_t PutReqId = 0, QueryReqId = 0;
  for (const telemetry::SpanRecord &S : Spans) {
    if (S.Name == "serve.client.put_shard")
      PutReqId = S.ReqId;
    if (S.Name == "serve.client.query_report")
      QueryReqId = S.ReqId;
  }
  ASSERT_NE(PutReqId, 0u) << "client span must carry the daemon's id";
  ASSERT_NE(QueryReqId, 0u);
  EXPECT_NE(PutReqId, QueryReqId) << "each request gets a fresh id";
  bool DaemonSpanSeen = false, MergeTagged = false;
  for (const telemetry::SpanRecord &S : Spans) {
    DaemonSpanSeen |= S.Name == "serve.request" && S.ReqId == PutReqId;
    MergeTagged |= S.Name == "store.merge" && S.ReqId == QueryReqId;
  }
  EXPECT_TRUE(DaemonSpanSeen)
      << "daemon-side serve.request span with the same id";
  EXPECT_TRUE(MergeTagged)
      << "the request id must flow into the store layer's spans";

  // The Chrome trace moves request-tagged spans onto synthetic
  // "request-N" tracks.
  TraceWriter W = TraceWriter::fromTelemetry("serve-test");
  auto Stats = validateTraceJson(W.render());
  ASSERT_TRUE(static_cast<bool>(Stats));
  bool HasRequestTrack = false;
  for (uint64_t Tid : Stats->Tids)
    HasRequestTrack |= Tid >= 1000000u;
  EXPECT_TRUE(HasRequestTrack) << "expected a synthetic request track";
}

//===----------------------------------------------------------------------===//
// Robustness
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, SurvivesGarbageStreamsAndMidUploadDisconnect) {
  Daemon D("robust");

  // A clean upload first: it pins the store's geometry, so mutated
  // frames that still parse as gmon data but disagree on sampling rate
  // or histogram shape are rejected at ingest validation.
  {
    ServeClient Seed(D.SocketPath);
    cantFail(Seed.putShard(Shards->front(), *ImageId));
  }

  // A peer that is not speaking the protocol at all.
  {
    UnixSocket Raw = cantFail(UnixSocket::connectTo(D.SocketPath));
    std::vector<uint8_t> Junk(FrameHeaderSize, 'X');
    cantFail(Raw.sendAll(Junk.data(), Junk.size()));
  }
  // A header promising an oversized payload.
  {
    UnixSocket Raw = cantFail(UnixSocket::connectTo(D.SocketPath));
    std::vector<uint8_t> Header =
        encodeFrameHeader(MsgType::PutShard, MaxFramePayload + 1);
    cantFail(Raw.sendAll(Header.data(), Header.size()));
  }
  // A client that vanishes mid-upload: header promises 100 bytes, only
  // 10 arrive before the close.
  {
    UnixSocket Raw = cantFail(UnixSocket::connectTo(D.SocketPath));
    std::vector<uint8_t> Header = encodeFrameHeader(MsgType::PutShard, 100);
    cantFail(Raw.sendAll(Header.data(), Header.size()));
    std::vector<uint8_t> Partial(10, 1);
    cantFail(Raw.sendAll(Partial.data(), Partial.size()));
  }
  // Byte-mutated frames at assorted offsets (magic, type, length, image
  // id, gmon bytes), one fresh connection each.
  {
    PutShardRequest Put;
    Put.GmonBytes = Shards->front();
    std::vector<uint8_t> Payload = encodePutShard(Put);
    std::vector<uint8_t> Valid =
        encodeFrameHeader(MsgType::PutShard, Payload.size());
    Valid.insert(Valid.end(), Payload.begin(), Payload.end());
    for (size_t Offset : {size_t(0), size_t(4), size_t(5),
                          FrameHeaderSize, FrameHeaderSize + 40,
                          Valid.size() - 1}) {
      std::vector<uint8_t> Mutated = Valid;
      Mutated[Offset] ^= 0xFF;
      UnixSocket Raw = cantFail(UnixSocket::connectTo(D.SocketPath));
      // The server may close mid-send on header damage; that is the
      // client's problem, not the daemon's.
      Error E = Raw.sendAll(Mutated.data(), Mutated.size());
      if (E)
        (void)E.message();
    }
  }

  // Through all of that the daemon still answers, still deduplicates,
  // and every shard it holds is loadable — nothing torn or unparseable
  // landed in the store.
  ClientOptions Retrying;
  Retrying.Retries = 10;
  ServeClient Client(D.SocketPath, Retrying);
  cantFail(Client.ping());
  Sha256Digest Seeded = cantFail(Client.putShard(Shards->front(), *ImageId));
  auto Listed = cantFail(Client.list());
  EXPECT_GE(Listed.size(), 1u);
  bool SeedPresent = false;
  for (const ShardInfo &S : Listed)
    SeedPresent |= S.Digest == Seeded;
  EXPECT_TRUE(SeedPresent);

  Client.disconnect();
  D.Server->stop();
  auto Reopened = ProfileStore::open(D.StoreRoot);
  ASSERT_TRUE(static_cast<bool>(Reopened));
  ASSERT_EQ(Reopened->shards().size(), Listed.size());
  for (const ShardInfo &S : Reopened->shards())
    cantFail(Reopened->loadShard(S.Digest));

  // gc sweeps temp files stranded by interrupted writes.
  cantFail(writeFileText(D.StoreRoot + "/index.bin.tmp", "stranded"));
  cantFail(createDirectories(D.StoreRoot + "/objects/zz"));
  cantFail(writeFileText(D.StoreRoot + "/objects/zz/upload.gmon.tmp", "x"));
  auto Store = ProfileStore::open(D.StoreRoot);
  ASSERT_TRUE(static_cast<bool>(Store));
  auto Stats = Store->gc();
  ASSERT_TRUE(static_cast<bool>(Stats));
  EXPECT_EQ(Stats->TempFiles, 2u);
}

TEST_F(ServeTest, RejectsAHugeDeclaredHistogramAtParse) {
  // A version-3 payload stores only its nonzero buckets, so 81 bytes can
  // declare a histogram of any size.  The daemon parses a PUT_SHARD
  // before it checks the payload against the store, and the parse refuses
  // more than 2^23 buckets (a 64 MiB dense histogram): a header declaring
  // 2^24 is rejected there, before its 128 MiB histogram is allocated.
  Daemon D("huge_hist");
  ServeClient Client(D.SocketPath);
  cantFail(Client.putShard(Shards->front(), *ImageId));

  ProfileData Empty;
  Empty.TicksPerSecond = 60;
  Empty.Hist = Histogram(0, 16, 1);
  std::vector<uint8_t> Huge = writeGmon(Empty);
  ASSERT_EQ(Huge.size(), 81u);
  // highpc@29 and nbuckets@45: 2^24 buckets of size 1.
  for (size_t Offset : {size_t(29), size_t(45)})
    for (unsigned I = 0; I != 8; ++I)
      Huge[Offset + I] = static_cast<uint8_t>((1ULL << 24) >> (8 * I));
  auto Push = Client.putShard(Huge, *ImageId);
  ASSERT_FALSE(static_cast<bool>(Push));
  EXPECT_NE(Push.message().find("uploaded shard rejected: gmon histogram "
                                "implausibly large (16777216 buckets)"),
            std::string::npos)
      << Push.message();
  (void)Push.takeError();
  EXPECT_EQ(cantFail(Client.list()).size(), 1u);
}

TEST_F(ServeTest, UnreachableDaemonFailsCleanly) {
  ClientOptions FailFast;
  FailFast.Retries = 0;
  FailFast.RetryBackoffMs = 0;
  std::string Nowhere = tempPath("nowhere.sock");
  ServeClient Client(Nowhere, FailFast);
  Error E = Client.ping();
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_FALSE(E.message().empty());
  auto Push = Client.putShard(Shards->front());
  ASSERT_FALSE(static_cast<bool>(Push));
  (void)Push.takeError();
}

TEST_F(ServeTest, FaultInjectedFailuresLeaveStoreIntact) {
  // Fault points are process-global; never leak an armed one past this
  // test, even through an ASSERT bailout.
  struct DisarmGuard {
    ~DisarmGuard() { fault::disarmAll(); }
  } Disarm;
  Daemon D("faults");
  ServeClient Client(D.SocketPath);
  cantFail(Client.putShard(Shards->front(), *ImageId));
  Client.disconnect();
  auto Before = snapshotTree(D.StoreRoot);

  // Index-layer fault: the daemon's put fails at entry; the client gets
  // a definitive ERROR and the tree is byte-identical to before the
  // upload started.
  fault::arm("store.put", 1, 0);
  {
    ServeClient Pusher(D.SocketPath);
    auto Push = Pusher.putShard((*Shards)[1], *ImageId);
    ASSERT_FALSE(static_cast<bool>(Push));
    EXPECT_NE(Push.message().find("daemon at"), std::string::npos);
  }
  fault::disarmAll();
  EXPECT_EQ(snapshotTree(D.StoreRoot), Before);

  // Socket-layer faults: every client write fails, then the connect
  // itself fails.  No bytes reach the daemon; nothing changes on disk.
  fault::arm("sock.write", 1, 0);
  {
    ClientOptions FailFast;
    FailFast.Retries = 0;
    FailFast.RetryBackoffMs = 0;
    ServeClient Pusher(D.SocketPath, FailFast);
    auto Push = Pusher.putShard((*Shards)[1], *ImageId);
    ASSERT_FALSE(static_cast<bool>(Push));
    (void)Push.takeError();
  }
  fault::disarmAll();
  fault::arm("sock.connect", 1, 1);
  {
    ClientOptions FailFast;
    FailFast.Retries = 0;
    FailFast.RetryBackoffMs = 0;
    ServeClient Pusher(D.SocketPath, FailFast);
    auto Push = Pusher.putShard((*Shards)[1], *ImageId);
    ASSERT_FALSE(static_cast<bool>(Push));
    (void)Push.takeError();
  }
  fault::disarmAll();
  EXPECT_EQ(snapshotTree(D.StoreRoot), Before);

  // With one more retry than injected connect faults, the push recovers
  // — the client's bounded backoff mirrors StoreOptions::IoRetries.
  fault::arm("sock.connect", 1, 1);
  {
    ClientOptions OneRetry;
    OneRetry.Retries = 1;
    OneRetry.RetryBackoffMs = 1;
    ServeClient Pusher(D.SocketPath, OneRetry);
    cantFail(Pusher.putShard((*Shards)[1], *ImageId));
  }
  fault::disarmAll();
  EXPECT_NE(snapshotTree(D.StoreRoot), Before);
}

//===----------------------------------------------------------------------===//
// CLI loop: gprof-store serve / push / query and tlrun --push
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, CliServePushQueryAndTlrunPush) {
  std::string StoreRoot = tempPath("cli_store");
  std::string SocketPath = tempPath("cli.sock");
  std::string GmonPath = tempPath("cli_gmon.out");
  std::filesystem::remove_all(StoreRoot);

  // Start the daemon as a real process, like an operator would.
  std::string Out;
  int Rc = runCommand(format("%s serve %s --socket %s >/dev/null 2>&1 "
                             "& echo $!",
                             GPROF_STORE_PATH, StoreRoot.c_str(),
                             SocketPath.c_str()),
                      Out);
  ASSERT_EQ(Rc, 0) << Out;
  pid_t DaemonPid = static_cast<pid_t>(std::stol(Out));
  ASSERT_GT(DaemonPid, 0);
  struct KillGuard {
    pid_t Pid;
    ~KillGuard() { ::kill(Pid, SIGKILL); }
  } Guard{DaemonPid};
  ASSERT_TRUE(waitForDaemon(SocketPath));

  // tlrun --push: the profiled run lands its shard in the daemon and
  // still writes the local gmon file.
  Rc = runCommand(format("%s --quiet --gmon %s --push %s %s", TLRUN_PATH,
                         GmonPath.c_str(), SocketPath.c_str(),
                         ImgPath->c_str()),
                  Out);
  ASSERT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("profile pushed"), std::string::npos) << Out;
  EXPECT_TRUE(fileExists(GmonPath));

  // gprof-store push: CLI upload of an existing gmon file.
  Rc = runCommand(format("%s push %s --image %s %s", GPROF_STORE_PATH,
                         SocketPath.c_str(), ImgPath->c_str(),
                         GmonPath.c_str()),
                  Out);
  ASSERT_EQ(Rc, 0) << Out;
  ASSERT_GE(Out.size(), 64u);
  std::string Digest = Out.substr(0, 64);

  // gprof-store query --list shows what the daemon holds.
  Rc = runCommand(format("%s query %s --list", GPROF_STORE_PATH,
                         SocketPath.c_str()),
                  Out);
  ASSERT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find(Digest.substr(0, 12)), std::string::npos) << Out;

  // The daemon-side report is byte-identical to the offline CLI report
  // over the same store, under each listing flag.
  const std::vector<std::string> FlagSets = {"--flat-only", "--brief",
                                             "--graph-only", "--no-index",
                                             "-z"};
  std::vector<std::string> ViaDaemon(FlagSets.size());
  for (size_t I = 0; I != FlagSets.size(); ++I) {
    Rc = runCommandStdout(format("%s query %s %s %s", GPROF_STORE_PATH,
                                 SocketPath.c_str(), ImgPath->c_str(),
                                 FlagSets[I].c_str()),
                          ViaDaemon[I]);
    ASSERT_EQ(Rc, 0) << FlagSets[I] << ": " << ViaDaemon[I];
  }
  EXPECT_EQ(std::set<std::string>(ViaDaemon.begin(), ViaDaemon.end()).size(),
            FlagSets.size())
      << "every flag should change the listing";

  // Clean daemon shutdown on SIGTERM, releasing the socket and store.
  ASSERT_EQ(::kill(DaemonPid, SIGTERM), 0);
  for (int I = 0; I != 100 && socketExists(SocketPath); ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(socketExists(SocketPath)) << "daemon did not shut down";

  for (size_t I = 0; I != FlagSets.size(); ++I) {
    std::string Offline;
    Rc = runCommandStdout(format("%s report %s %s %s", GPROF_STORE_PATH,
                                 StoreRoot.c_str(), ImgPath->c_str(),
                                 FlagSets[I].c_str()),
                          Offline);
    ASSERT_EQ(Rc, 0) << FlagSets[I] << ": " << Offline;
    EXPECT_EQ(ViaDaemon[I], Offline) << FlagSets[I];
  }

  // Unreachable daemon: tlrun --push is a clean nonzero exit with a
  // diagnostic, and so is gprof-store push.
  std::string Nowhere = tempPath("cli_nowhere.sock");
  Rc = runCommand(format("%s --quiet --gmon %s --push %s %s", TLRUN_PATH,
                         GmonPath.c_str(), Nowhere.c_str(),
                         ImgPath->c_str()),
                  Out);
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Out.find("push to"), std::string::npos) << Out;
  Rc = runCommand(format("%s push %s %s --retries 0", GPROF_STORE_PATH,
                         Nowhere.c_str(), GmonPath.c_str()),
                  Out);
  EXPECT_NE(Rc, 0);

  std::filesystem::remove_all(StoreRoot);
  std::remove(GmonPath.c_str());
}

//===----------------------------------------------------------------------===//
// Observability smoke: the ctest gprof_stats_smoke target filters on this
// fixture, so it boots a real daemon, pushes shards, and checks `gprof-store
// stats` end to end.
//===----------------------------------------------------------------------===//

namespace {
class ServeStatsTest : public ServeTest {};
} // namespace

TEST_F(ServeStatsTest, CliStatsEndToEnd) {
  std::string StoreRoot = tempPath("stats_store");
  std::string SocketPath = tempPath("stats.sock");
  std::string GmonPath = tempPath("stats_gmon.out");
  std::string LogPath = tempPath("stats_events.jsonl");
  std::filesystem::remove_all(StoreRoot);
  std::remove(LogPath.c_str());

  std::string Out;
  int Rc = runCommand(format("%s serve %s --socket %s --log-file %s "
                             ">/dev/null 2>&1 & echo $!",
                             GPROF_STORE_PATH, StoreRoot.c_str(),
                             SocketPath.c_str(), LogPath.c_str()),
                      Out);
  ASSERT_EQ(Rc, 0) << Out;
  pid_t DaemonPid = static_cast<pid_t>(std::stol(Out));
  ASSERT_GT(DaemonPid, 0);
  struct KillGuard {
    pid_t Pid;
    ~KillGuard() { ::kill(Pid, SIGKILL); }
  } Guard{DaemonPid};
  ASSERT_TRUE(waitForDaemon(SocketPath));

  // Land two shards so the latency histograms have data.
  cantFail(writeFileBytes(GmonPath, Shards->front()));
  Rc = runCommand(format("%s push %s --image %s %s %s", GPROF_STORE_PATH,
                         SocketPath.c_str(), ImgPath->c_str(),
                         GmonPath.c_str(), GmonPath.c_str()),
                  Out);
  ASSERT_EQ(Rc, 0) << Out;

  // `gprof-store stats` prints one validated JSON document with a
  // nonzero put-shard latency count.
  std::string StatsJson;
  Rc = runCommandStdout(format("%s stats %s", GPROF_STORE_PATH,
                               SocketPath.c_str()),
                        StatsJson);
  ASSERT_EQ(Rc, 0) << StatsJson;
  ASSERT_TRUE(static_cast<bool>(validateJson(StatsJson))) << StatsJson;
  const std::string Row = "\"metric\": \"serve.request.latency.put_shard\"";
  size_t RowPos = StatsJson.find(Row);
  ASSERT_NE(RowPos, std::string::npos) << StatsJson;
  size_t CountPos = StatsJson.find("\"count\": ", RowPos);
  ASSERT_NE(CountPos, std::string::npos);
  unsigned long long Count =
      std::stoull(StatsJson.substr(CountPos + 9));
  EXPECT_GE(Count, 2u) << StatsJson;
  EXPECT_NE(StatsJson.find("\"event\": \"connection.accepted\""),
            std::string::npos);

  // --filter narrows the rows; the daemon scalars stay.
  Rc = runCommandStdout(format("%s stats %s --filter serve.request.latency.",
                               GPROF_STORE_PATH, SocketPath.c_str()),
                        StatsJson);
  ASSERT_EQ(Rc, 0) << StatsJson;
  ASSERT_TRUE(static_cast<bool>(validateJson(StatsJson))) << StatsJson;
  EXPECT_NE(StatsJson.find(Row), std::string::npos);
  EXPECT_EQ(StatsJson.find("\"metric\": \"serve.request.ping\""),
            std::string::npos);
  EXPECT_NE(StatsJson.find("\"uptime_ns\": "), std::string::npos);

  // Clean SIGTERM shutdown; the --log-file sink holds one valid JSON
  // object per line, including the accepted connections.  The socket
  // disappears a beat before the final serve.stop event lands in the
  // sink, so wait for the event itself rather than the unlink.
  ASSERT_EQ(::kill(DaemonPid, SIGTERM), 0);
  std::string LogText;
  for (int I = 0; I != 100; ++I) {
    auto Text = readFileText(LogPath);
    if (Text) {
      LogText = *Text;
      if (LogText.find("\"event\": \"serve.stop\"") != std::string::npos)
        break;
    } else {
      (void)Text.takeError();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_FALSE(socketExists(SocketPath)) << "daemon did not shut down";
  ASSERT_FALSE(LogText.empty());
  size_t Lines = 0;
  for (size_t Pos = 0; Pos < LogText.size();) {
    size_t End = LogText.find('\n', Pos);
    if (End == std::string::npos)
      End = LogText.size();
    std::string Line = LogText.substr(Pos, End - Pos);
    if (!Line.empty()) {
      ++Lines;
      EXPECT_TRUE(static_cast<bool>(validateJson(Line))) << Line;
    }
    Pos = End + 1;
  }
  EXPECT_GE(Lines, 2u) << LogText;
  EXPECT_NE(LogText.find("\"event\": \"serve.stop\""), std::string::npos);

  std::filesystem::remove_all(StoreRoot);
  std::remove(GmonPath.c_str());
  std::remove(LogPath.c_str());
}
