//===- serve/Connection.h - Framed I/O over one socket --------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One end of a protocol conversation: reads and writes whole frames
/// (serve/Protocol.h) over a UnixSocket.  Reads are poll-driven so a
/// connection can observe a shutdown flag while idle and enforce an idle
/// timeout against dead peers; both ends of the daemon share this class.
/// A peer that closes cleanly *between* frames is a normal end of
/// conversation; one that vanishes *inside* a frame is an error the
/// caller reports (and, on the server, survives).
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_SERVE_CONNECTION_H
#define GPROF_SERVE_CONNECTION_H

#include "serve/Protocol.h"
#include "support/Error.h"
#include "support/Socket.h"

#include <atomic>
#include <optional>

namespace gprof {
namespace serve {

/// Read-side behavior knobs for one connection.
struct ConnectionOptions {
  /// Abandon a read after this long with no bytes from the peer
  /// (negative = wait forever).  Protects daemon workers from dead
  /// clients that never close.
  int IdleTimeoutMs = 30000;
  /// Granularity at which idle waits re-check StopFlag.
  int PollIntervalMs = 100;
  /// When set, reads abort promptly once the flag is true — the server's
  /// shutdown path.  Not owned; must outlive the connection.
  const std::atomic<bool> *StopFlag = nullptr;
};

/// A connected protocol endpoint.
class Connection {
public:
  Connection(UnixSocket Sock, ConnectionOptions Opts = {})
      : Sock(std::move(Sock)), Opts(Opts) {}

  /// Reads one whole frame.  Returns std::nullopt on a clean end-of-stream
  /// at a frame boundary; any mid-frame truncation, bad magic, unknown
  /// type, oversized payload, timeout, or shutdown is an Error.
  Expected<std::optional<Frame>> readFrame();

  /// Writes one whole frame (header + payload), stamped with the current
  /// outgoing request id (see setOutgoingRequestId).
  Error writeFrame(MsgType Type, const std::vector<uint8_t> &Payload);

  /// Sets the request id written into subsequent outgoing frame headers.
  /// The daemon sets this to the dispatched request's id before handling
  /// it, so every response (OK, ERROR, even a partial-failure path)
  /// echoes the id; clients leave it 0.
  void setOutgoingRequestId(uint64_t Id) { OutgoingReqId = Id; }

  /// Convenience responses.
  Error writeError(const std::string &Message) {
    return writeFrame(MsgType::Err, encodeText(Message));
  }
  Error writeRetry(const std::string &Hint) {
    return writeFrame(MsgType::Retry, encodeText(Hint));
  }

  /// True when bytes, or the peer's close, are waiting to be read now.
  bool inputPending() const;

  bool isOpen() const { return Sock.isOpen(); }
  void close() { Sock.close(); }

private:
  /// Reads exactly \p Size bytes.  When \p EofLegal, a clean close before
  /// the first byte sets \p SawEof instead of failing.
  Error recvExact(uint8_t *Data, size_t Size, bool EofLegal, bool &SawEof);

  UnixSocket Sock;
  ConnectionOptions Opts;
  uint64_t OutgoingReqId = 0;
};

} // namespace serve
} // namespace gprof

#endif // GPROF_SERVE_CONNECTION_H
