//===- serve/Connection.cpp -----------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "serve/Connection.h"

#include "support/Format.h"

using namespace gprof;
using namespace gprof::serve;

Error Connection::recvExact(uint8_t *Data, size_t Size, bool EofLegal,
                            bool &SawEof) {
  SawEof = false;
  size_t Got = 0;
  int IdleMs = 0;
  while (Got < Size) {
    auto Ready = Sock.waitReadable(Opts.PollIntervalMs);
    if (!Ready)
      return Ready.takeError();
    if (Opts.StopFlag &&
        Opts.StopFlag->load(std::memory_order_relaxed))
      return Error::failure("connection aborted: server shutting down");
    if (!*Ready) {
      if (Opts.IdleTimeoutMs >= 0 &&
          (IdleMs += Opts.PollIntervalMs) >= Opts.IdleTimeoutMs)
        return Error::failure(format("connection idle for %d ms, giving up",
                                     Opts.IdleTimeoutMs));
      continue;
    }
    auto N = Sock.recvSome(Data + Got, Size - Got);
    if (!N)
      return N.takeError();
    if (*N == 0) {
      // Orderly close.  Legal only before the first byte of a frame.
      if (EofLegal && Got == 0) {
        SawEof = true;
        return Error::success();
      }
      return Error::failure(format("peer closed the connection %zu bytes "
                                   "into a %zu-byte read",
                                   Got, Size));
    }
    Got += *N;
    IdleMs = 0; // Progress resets the idle clock.
  }
  return Error::success();
}

Expected<std::optional<Frame>> Connection::readFrame() {
  uint8_t Header[FrameHeaderSize];
  bool SawEof = false;
  if (Error E = recvExact(Header, sizeof(Header), /*EofLegal=*/true, SawEof))
    return E;
  if (SawEof)
    return std::optional<Frame>{};

  Frame F;
  auto Length = decodeFrameHeader(Header, F.Type, F.ReqId);
  if (!Length)
    return Length.takeError();
  F.Payload.resize(static_cast<size_t>(*Length));
  if (*Length != 0)
    if (Error E = recvExact(F.Payload.data(), F.Payload.size(),
                            /*EofLegal=*/false, SawEof))
      return E;
  return std::optional<Frame>(std::move(F));
}

Error Connection::writeFrame(MsgType Type,
                             const std::vector<uint8_t> &Payload) {
  if (Payload.size() > MaxFramePayload)
    return Error::failure(format("refusing to send a %zu-byte frame payload "
                                 "(limit %llu)",
                                 Payload.size(),
                                 static_cast<unsigned long long>(
                                     MaxFramePayload)));
  std::vector<uint8_t> Header =
      encodeFrameHeader(Type, Payload.size(), OutgoingReqId);
  if (Error E = Sock.sendAll(Header.data(), Header.size()))
    return E;
  if (!Payload.empty())
    if (Error E = Sock.sendAll(Payload.data(), Payload.size()))
      return E;
  return Error::success();
}

bool Connection::inputPending() const {
  auto Ready = Sock.waitReadable(/*TimeoutMs=*/0);
  if (!Ready) {
    (void)Ready.takeError();
    return false;
  }
  return *Ready;
}
