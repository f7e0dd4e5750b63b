//===- serve/Client.cpp ---------------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"

#include "gmon/GmonFile.h"
#include "support/Format.h"
#include "support/Telemetry.h"

#include <chrono>
#include <thread>

using namespace gprof;
using namespace gprof::serve;

Expected<Frame> ServeClient::attempt(MsgType Type,
                                     const std::vector<uint8_t> &Payload) {
  if (!Conn || !Conn->isOpen()) {
    auto Sock = UnixSocket::connectTo(Path);
    if (!Sock)
      return Sock.takeError();
    ConnectionOptions CO;
    CO.IdleTimeoutMs = Opts.ResponseTimeoutMs;
    Conn.emplace(std::move(*Sock), CO);
  }
  // When tracing, time the whole exchange and stamp the span with the
  // request id the daemon echoes back, so a client-side track lines up
  // with the daemon's per-request track in a merged view.
  telemetry::Registry &R = telemetry::Registry::instance();
  const bool Tracing = R.spansEnabled();
  const uint64_t BeginNs = Tracing ? R.nowNs() : 0;
  if (Error E = Conn->writeFrame(Type, Payload)) {
    // A daemon at capacity answers RETRY and closes without reading the
    // request, so the write can fail with that answer already waiting.
    if (Conn->inputPending()) {
      auto Answer = Conn->readFrame();
      if (Answer && *Answer && (**Answer).Type == MsgType::Retry)
        return std::move(**Answer);
    }
    return E;
  }
  auto Response = Conn->readFrame();
  if (!Response)
    return Response.takeError();
  if (!*Response)
    return Error::failure(format("daemon at '%s' closed the connection "
                                 "without answering",
                                 Path.c_str()));
  if (Tracing)
    R.recordSpan(("serve.client." + msgTypeName(Type)).c_str(), BeginNs,
                 R.nowNs(), (**Response).ReqId);
  return std::move(**Response);
}

Expected<Frame> ServeClient::roundTrip(MsgType Type,
                                       const std::vector<uint8_t> &Payload) {
  unsigned BackoffMs = Opts.RetryBackoffMs;
  for (unsigned Attempt = 0;; ++Attempt) {
    auto Response = attempt(Type, Payload);
    if (Response) {
      if (Response->Type == MsgType::Ok)
        return Response;
      if (Response->Type == MsgType::Err) {
        // A definitive answer; the daemon processed the request and said
        // no.  The connection stays usable.
        auto Message = decodeText(Response->Payload);
        return Error::failure(format("daemon at '%s': %s", Path.c_str(),
                                     Message ? Message->c_str()
                                             : "unreadable error payload"));
      }
      // RETRY (backpressure) — the daemon closed us; fall through to the
      // transient path.  Any other type is a desynchronized stream.
      if (Response->Type != MsgType::Retry) {
        disconnect();
        return Error::failure(format("daemon at '%s' answered with an "
                                     "unexpected %s frame",
                                     Path.c_str(),
                                     msgTypeName(Response->Type).c_str()));
      }
    }
    // Transient failure: connect/send/recv error or RETRY backpressure.
    Error Transient = Response ? Error::failure("daemon busy")
                               : Response.takeError();
    disconnect();
    if (Attempt == Opts.Retries) {
      if (Response) {
        (void)static_cast<bool>(Transient);
        return Error::failure(format(
            "daemon at '%s' is at capacity (gave up after %u attempts)",
            Path.c_str(), Attempt + 1));
      }
      return Transient;
    }
    (void)static_cast<bool>(Transient);
    // Like ProfileStore::retryIo, retries are environment events: gauge.
    telemetry::gauge("serve.client.retries").add(1);
    if (BackoffMs != 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(BackoffMs));
    BackoffMs *= 2;
  }
}

Error ServeClient::ping() {
  auto Response = roundTrip(MsgType::Ping, {});
  if (!Response)
    return Response.takeError();
  return Error::success();
}

Expected<Sha256Digest>
ServeClient::putShard(const std::vector<uint8_t> &GmonBytes,
                      const Sha256Digest &ImageId) {
  PutShardRequest Req;
  Req.ImageId = ImageId;
  Req.GmonBytes = GmonBytes;
  auto Response = roundTrip(MsgType::PutShard, encodePutShard(Req));
  if (!Response)
    return Response.takeError();
  return decodeDigest(Response->Payload);
}

Expected<Sha256Digest> ServeClient::putProfile(const ProfileData &Data,
                                               const Sha256Digest &ImageId) {
  return putShard(writeGmon(Data), ImageId);
}

Expected<std::vector<ShardInfo>> ServeClient::list() {
  auto Response = roundTrip(MsgType::List, {});
  if (!Response)
    return Response.takeError();
  return decodeShardList(Response->Payload);
}

Expected<std::string> ServeClient::queryReport(const QueryReportRequest &Req) {
  auto Response = roundTrip(MsgType::QueryReport, encodeQueryReport(Req));
  if (!Response)
    return Response.takeError();
  return decodeText(Response->Payload);
}

Expected<StatsResponse> ServeClient::queryStats(const QueryStatsRequest &Req) {
  auto Response = roundTrip(MsgType::QueryStats, encodeQueryStats(Req));
  if (!Response)
    return Response.takeError();
  return decodeStatsResponse(Response->Payload);
}

void ServeClient::disconnect() {
  if (Conn) {
    Conn->close();
    Conn.reset();
  }
}
