//===- serve/Server.cpp ---------------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "core/Analyzer.h"
#include "core/FlatPrinter.h"
#include "core/GraphPrinter.h"
#include "gmon/GmonFile.h"
#include "support/EventLog.h"
#include "support/Format.h"
#include "support/Telemetry.h"
#include "vm/Image.h"

#include <algorithm>
#include <memory>
#include <unistd.h>

using namespace gprof;
using namespace gprof::serve;

ServeServer::ServeServer(ProfileStore Store, UnixListener Listener,
                         ServeOptions Opts)
    : Store(std::move(Store)), Listener(std::move(Listener)), Opts(Opts),
      Pool(Opts.Workers ? Opts.Workers : 1),
      StartNs(telemetry::Registry::instance().nowNs()) {}

Expected<std::unique_ptr<ServeServer>>
ServeServer::create(const std::string &StoreRoot,
                    const std::string &SocketPath, const ServeOptions &Opts) {
  auto Store = ProfileStore::open(StoreRoot, Opts.Store);
  if (!Store)
    return Store.takeError();
  auto Listener = UnixListener::listenOn(SocketPath);
  if (!Listener)
    return Listener.takeError();
  return std::unique_ptr<ServeServer>(new ServeServer(
      Store.takeValue(), std::move(*Listener), Opts));
}

Error ServeServer::start() {
  if (Started.exchange(true))
    return Error::success();
  EventLog::instance().emit(
      "serve.start", jsonStringField("socket", Listener.path()) + ", " +
                         jsonIntField("workers", Opts.Workers) + ", " +
                         jsonIntField("queue", Opts.MaxQueuedConnections));
  AcceptThread = std::thread([this] { acceptLoop(); });
  // A store grown offline (or left half-compacted by a previous daemon)
  // may have folds pending before the first push arrives.
  maybeScheduleCompaction();
  return Error::success();
}

void ServeServer::maybeScheduleCompaction() {
  if (!Opts.BackgroundCompaction || Stop.load(std::memory_order_relaxed))
    return;
  // One drain at a time: a second pass would only queue behind the first
  // on the ingest lock.  Check the flag before asking the store, so a
  // push during a drain does not take the ingest lock for nothing: the
  // drain re-checks after it clears the flag, and the ingest lock orders
  // each put's insert before or after that re-check.  exchange() makes
  // the busy check race-free.
  if (CompactionBusy.load(std::memory_order_acquire))
    return;
  if (!Store.compactionPending())
    return;
  if (CompactionBusy.exchange(true, std::memory_order_acq_rel))
    return;
  telemetry::gauge("compaction.passes").add(1);
  Pool.async([this] {
    telemetry::Span PassSpan("serve.compaction");
    CompactionStats Stats;
    bool Failed = false;
    while (!Stop.load(std::memory_order_relaxed)) {
      // Sequential folds: a pool worker must not fan subtasks back onto
      // the pool it runs on (they could deadlock behind connection-
      // lifetime jobs), and the run bytes are identical either way.
      auto Worked = Store.compactStep(/*Pool=*/nullptr, &Stats);
      if (!Worked) {
        telemetry::gauge("compaction.errors").add(1);
        EventLog::instance().emit(
            "compaction.error", jsonStringField("error", Worked.message()));
        Failed = true;
        break;
      }
      if (!*Worked)
        break;
    }
    if (Stats.Steps != 0) {
      telemetry::gauge("compaction.steps").add(Stats.Steps);
      EventLog::instance().emit(
          "compaction.pass",
          jsonIntField("steps", Stats.Steps) + ", " +
              jsonIntField("shards_folded", Stats.ShardsFolded));
    }
    CompactionBusy.store(false, std::memory_order_release);
    // Pushes that landed during the drain saw the busy flag and skipped
    // scheduling; pick their work up now.  After an error, wait for the
    // next push instead of hot-looping on a failing store.
    if (!Failed)
      maybeScheduleCompaction();
  });
}

void ServeServer::stop() {
  if (!Started.load())
    return;
  if (Stop.exchange(true))
    return;
  if (AcceptThread.joinable())
    AcceptThread.join();
  // In-flight connections observe the stop flag within one poll interval
  // and unwind; wait for every admitted one to finish.
  Pool.wait();
  Listener.close();
  EventLog::instance().emit(
      "serve.stop",
      jsonIntField("requests", NextRequestId.load(std::memory_order_relaxed)));
}

void ServeServer::acceptLoop() {
  telemetry::Registry::instance().setCurrentThreadName("serve-accept");
  // Request counts are workload-derived, but how connections and
  // rejections interleave depends on client scheduling — gauges, like the
  // thread pool's own job metrics (docs/TELEMETRY.md).
  telemetry::Metric &Accepted = telemetry::gauge("serve.connections.accepted");
  telemetry::Metric &Rejected = telemetry::gauge("serve.connections.rejected");
  telemetry::Metric &Depth = telemetry::gauge("serve.queue.depth");
  telemetry::Metric &DepthPeak = telemetry::gauge("serve.queue.peak");

  const unsigned Capacity =
      (Opts.Workers ? Opts.Workers : 1) + Opts.MaxQueuedConnections;
  while (!Stop.load(std::memory_order_relaxed)) {
    auto Ready = Listener.waitReadable(Opts.AcceptPollMs);
    if (!Ready) {
      (void)Ready.takeError(); // Listener gone; nothing left to accept.
      break;
    }
    if (!*Ready)
      continue;
    auto Sock = Listener.accept();
    if (!Sock) {
      (void)Sock.takeError(); // Transient accept failure; keep serving.
      continue;
    }

    ConnectionOptions CO;
    CO.IdleTimeoutMs = Opts.IdleTimeoutMs;
    CO.StopFlag = &Stop;
    // shared_ptr because ThreadPool jobs are std::function (copyable).
    auto Conn =
        std::make_shared<Connection>(std::move(*Sock), CO);

    unsigned Admitted = Active.load(std::memory_order_relaxed);
    if (Admitted >= Capacity) {
      // Bounded queue, explicit backpressure: tell the client to back off
      // rather than buffering unboundedly or hanging it.
      Rejected.add(1);
      EventLog::instance().emit("connection.rejected",
                                jsonIntField("capacity", Capacity));
      (void)Conn->writeRetry(format(
          "server at capacity (%u connections); retry with backoff",
          Capacity));
      EventLog::instance().emit("retry.issued",
                                jsonIntField("capacity", Capacity));
      continue; // Conn closes as the shared_ptr drops.
    }
    Active.fetch_add(1, std::memory_order_relaxed);
    Accepted.add(1);
    EventLog::instance().emit("connection.accepted",
                              jsonIntField("active", Admitted + 1));
    Depth.set(Active.load(std::memory_order_relaxed));
    DepthPeak.max(Active.load(std::memory_order_relaxed));
    // Metric references stay valid for the process lifetime, so the
    // pointer may outlive this loop (jobs drain after it exits).
    Pool.async([this, Conn, DepthMetric = &Depth] {
      serveConnection(*Conn);
      Conn->close();
      Active.fetch_sub(1, std::memory_order_relaxed);
      DepthMetric->set(Active.load(std::memory_order_relaxed));
    });
  }
}

void ServeServer::serveConnection(Connection &Conn) {
  telemetry::Span ConnSpan("serve.connection");
  while (!Stop.load(std::memory_order_relaxed)) {
    auto Request = Conn.readFrame();
    if (!Request) {
      // Damaged stream or dead peer: the conversation is over, the daemon
      // is not.  A mid-upload disconnect lands here.
      telemetry::gauge("serve.connections.aborted").add(1);
      (void)Request.takeError();
      return;
    }
    if (!*Request)
      return; // Clean end of conversation.
    if (!dispatch(Conn, **Request))
      return;
  }
}

bool ServeServer::dispatch(Connection &Conn, const Frame &Request) {
  telemetry::Registry &R = telemetry::Registry::instance();
  // One monotonic id per dispatched request.  The scope tags every span
  // the handler records on this thread (store.merge, analyzer.* — the
  // handlers run their work sequentially on the serving worker, so the
  // thread-local id reaches all of it), and the connection echoes the id
  // in every response header for client-side correlation.
  const uint64_t ReqId = NextRequestId.fetch_add(1, std::memory_order_relaxed)
                         + 1;
  telemetry::RequestIdScope IdScope(ReqId);
  Conn.setOutgoingRequestId(ReqId);
  const std::string Name = msgTypeName(Request.Type);
  const uint64_t BeginNs = R.nowNs();

  Error E = Error::success();
  bool Desynchronized = false;
  bool Stored = false;
  uint64_t EndNs = 0;
  {
    telemetry::Span RequestSpan("serve.request");
    telemetry::counter("serve.request." + Name).add(1);
    switch (Request.Type) {
    case MsgType::Ping:
      E = Conn.writeFrame(MsgType::Ok, {});
      break;
    case MsgType::PutShard:
      E = handlePut(Conn, Request, Stored);
      break;
    case MsgType::List:
      E = handleList(Conn);
      break;
    case MsgType::QueryReport:
      E = handleQuery(Conn, Request);
      break;
    case MsgType::QueryStats:
      E = handleStats(Conn, Request);
      break;
    default:
      // A response type in the request position: the peer is
      // desynchronized; answer once and abandon the stream.
      (void)Conn.writeError(format("unexpected %s frame in request position",
                                   Name.c_str()));
      Desynchronized = true;
    }
    // The response is written: stop the clock here, before the span and
    // any post-reply work, so the latency stays inside the client's round
    // trip.
    EndNs = R.nowNs();
  }

  const uint64_t DurNs = EndNs - BeginNs;
  R.histogram("serve.request.latency." + Name).record(DurNs);
  if (Opts.SlowRequestMs >= 0 &&
      DurNs >= uint64_t(Opts.SlowRequestMs) * 1000000u)
    EventLog::instance().emit(
        "request.slow", jsonStringField("type", Name) + ", " +
                            jsonIntField("ms", DurNs / 1000000u) + ", " +
                            jsonIntField("request", ReqId));

  // Folding is background work off the push latency path; the check may
  // wait on the ingest lock behind other pushes.
  if (Stored)
    maybeScheduleCompaction();

  if (Desynchronized)
    return false;
  if (E) {
    // The response could not be written (peer vanished mid-reply).
    telemetry::gauge("serve.response.write_failures").add(1);
    (void)E.message();
    return false;
  }
  return true;
}

Error ServeServer::handleStats(Connection &Conn, const Frame &Request) {
  auto Req = decodeQueryStats(Request.Payload);
  if (!Req)
    return Conn.writeError(Req.message());

  telemetry::Registry &R = telemetry::Registry::instance();
  EventLog &Log = EventLog::instance();
  std::vector<LogEvent> Events = Log.since(Req->SinceSeq);

  telemetry::Registry::StatsRenderOptions RO;
  RO.MetricPrefix = Req->Filter;
  RO.ExtraFields.emplace_back(
      "uptime_ns", format("%llu", static_cast<unsigned long long>(
                                      R.nowNs() - StartNs)));
  RO.ExtraFields.emplace_back("pid", format("%ld", long(getpid())));
  std::string Build;
  telemetry::appendJsonString(Build, "gprof-store serve (GSRV rev 3, "
                                     "built " __DATE__ ")");
  RO.ExtraFields.emplace_back("build", Build);
  RO.ExtraFields.emplace_back("events", EventLog::renderArray(Events));

  StatsResponse Resp;
  Resp.StatsJson = R.renderStatsJson("gprof_store_serve", RO);
  // Resume the tail after the newest event we returned; when nothing new
  // arrived, hold the cursor so dropped-from-ring history is not re-sent.
  Resp.LastSeq =
      Events.empty() ? std::max(Req->SinceSeq, Log.lastSeq())
                     : Events.back().Seq;
  return Conn.writeFrame(MsgType::Ok, encodeStatsResponse(Resp));
}

Error ServeServer::handlePut(Connection &Conn, const Frame &Request,
                             bool &Stored) {
  auto Req = decodePutShard(Request.Payload);
  if (!Req)
    return Conn.writeError(Req.message());
  telemetry::counter("serve.put.bytes_received").add(Req->GmonBytes.size());

  GmonReadOptions ReadOpts;
  ReadOpts.Tolerant = Store.options().TolerantReads;
  auto Data = readGmon(Req->GmonBytes, ReadOpts);
  if (!Data)
    return Conn.writeError("uploaded shard rejected: " + Data.message());
  auto Digest = Store.put(Data.takeValue(), Req->ImageId, "pushed shard");
  if (!Digest) {
    telemetry::gauge("serve.put.failures").add(1);
    return Conn.writeError(Digest.message());
  }
  Stored = true;
  return Conn.writeFrame(MsgType::Ok, encodeDigest(*Digest));
}

Error ServeServer::handleList(Connection &Conn) {
  return Conn.writeFrame(MsgType::Ok,
                         encodeShardList(Store.shardsSnapshot()));
}

Error ServeServer::handleQuery(Connection &Conn, const Frame &Request) {
  auto Req = decodeQueryReport(Request.Payload);
  if (!Req)
    return Conn.writeError(Req.message());

  auto Img = Image::loadFromFile(Req->ImagePath);
  if (!Img)
    return Conn.writeError(Img.message());
  // Sequential merge: a worker thread must not fan subtasks back onto the
  // pool it runs on (the subtasks could deadlock behind other
  // connection-lifetime jobs), and the merged bytes are identical either
  // way.
  auto Merged = Store.merge(Req->Members, /*Pool=*/nullptr);
  if (!Merged)
    return Conn.writeError(Merged.message());

  auto Text = renderReport(*Img, Merged->Data, Req->Flags);
  if (!Text)
    return Conn.writeError(Text.message());
  telemetry::counter("serve.query.bytes_sent").add(Text->size());
  return Conn.writeFrame(MsgType::Ok, encodeText(*Text));
}

Expected<std::string> gprof::serve::renderReport(const Image &Img,
                                                 const ProfileData &Data,
                                                 const ReportFlags &Flags) {
  auto Report = analyzeImageProfile(Img, Data);
  if (!Report)
    return Report.takeError();
  FlatPrintOptions FP;
  FP.ShowZeroUsage = Flags.ShowZero;
  FP.Brief = Flags.Brief;
  GraphPrintOptions GP;
  GP.Brief = Flags.Brief;
  GP.PrintIndex = !Flags.NoIndex;

  std::string Text;
  if (!Flags.GraphOnly)
    Text += printFlatProfile(*Report, FP);
  if (!Flags.FlatOnly && !Flags.GraphOnly)
    Text += "\n";
  if (!Flags.FlatOnly)
    Text += printCallGraph(*Report, GP);
  return Text;
}
