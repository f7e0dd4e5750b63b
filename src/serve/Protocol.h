//===- serve/Protocol.h - Wire protocol of the ingestion daemon ----------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The framed request/response protocol spoken between `gprof-store serve`
/// and its clients (`tlrun --push`, `gprof-store push/query`).  Everything
/// is length-prefixed and little-endian, encoded with support/BinaryStream,
/// so frames survive any interleaving of concurrent uploads and a damaged
/// stream is always a recoverable error (docs/SERVE.md).
///
/// One frame on the wire:
///
///   magic   "GSRV"       4 bytes
///   type    u8           MsgType below
///   id      u64          request id (0 in requests; the daemon assigns
///                        one per dispatched request and echoes it in the
///                        response, for cross-process trace correlation)
///   length  u64          payload bytes following (<= MaxFramePayload)
///   payload bytes[length]
///
/// Requests: PING (empty), PUT_SHARD (image id + gmon container bytes),
/// LIST (empty), QUERY_REPORT (image path + listing flags + member
/// digests), QUERY_STATS (event-tail cursor + metric filter).  Responses:
/// OK (payload per request), ERROR (diagnostic string), RETRY
/// (backpressure — the server is at capacity; the payload is a
/// human-readable hint and the client should back off and retry).
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_SERVE_PROTOCOL_H
#define GPROF_SERVE_PROTOCOL_H

#include "store/ProfileStore.h"
#include "support/Error.h"
#include "support/Sha256.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gprof {
namespace serve {

/// Frame header magic; a stream that does not start every frame with it is
/// abandoned rather than resynchronized.
constexpr char FrameMagic[4] = {'G', 'S', 'R', 'V'};

/// Bytes of header preceding every payload: magic + type + id + length.
constexpr size_t FrameHeaderSize = sizeof(FrameMagic) + 1 + 8 + 8;

/// Hard cap on one frame's payload, guarding server allocation against a
/// corrupt or hostile length field.  Large enough for any realistic gmon
/// shard or report listing.
constexpr uint64_t MaxFramePayload = 64ull << 20;

/// Cap on digest-list lengths inside payloads (same spirit as the store
/// index's MaxIndexRecords).
constexpr uint64_t MaxListedShards = 1ull << 24;

/// Message kinds.  Requests and responses share the frame format; the
/// ranges are disjoint so a desynchronized peer is detected immediately.
enum class MsgType : uint8_t {
  Ping = 1,        ///< Liveness probe; OK response with empty payload.
  PutShard = 2,    ///< Upload one gmon shard; OK payload is its digest.
  List = 3,        ///< Fetch the shard index; OK payload is ShardInfo rows.
  QueryReport = 4, ///< Merge + analyze + print; OK payload is the listing.
  QueryStats = 5,  ///< Live telemetry + event tail; no store lock taken.
  Ok = 16,         ///< Success response.
  Err = 17,        ///< Failure response; payload is the diagnostic.
  Retry = 18,      ///< Backpressure response; payload is a retry hint.
};

/// True for the request range of MsgType.
bool isRequestType(uint8_t Type);
/// True for the response range of MsgType.
bool isResponseType(uint8_t Type);
/// Stable lowercase name ("put_shard", "ok", ...) for telemetry and
/// logs; out-of-range values render as "unknown(N)".
std::string msgTypeName(MsgType Type);

/// One decoded frame.
struct Frame {
  MsgType Type = MsgType::Ping;
  uint64_t ReqId = 0; ///< 0 in requests; daemon-assigned in responses.
  std::vector<uint8_t> Payload;
};

/// Renders the header for a frame of \p PayloadSize bytes.
std::vector<uint8_t> encodeFrameHeader(MsgType Type, uint64_t PayloadSize,
                                       uint64_t ReqId = 0);

/// Parses and validates a frame header; returns the payload length.
Expected<uint64_t> decodeFrameHeader(const uint8_t *Header, MsgType &Type,
                                     uint64_t &ReqId);

//===----------------------------------------------------------------------===//
// Payload codecs
//===----------------------------------------------------------------------===//

/// PUT_SHARD request: the profiled image's identity (zero = unknown)
/// followed by the raw gmon container bytes, exactly as written by
/// writeGmon.  The server re-parses and canonicalizes, so the digest it
/// returns is the store's content address, not a hash of the upload.
struct PutShardRequest {
  Sha256Digest ImageId{};
  std::vector<uint8_t> GmonBytes;
};

std::vector<uint8_t> encodePutShard(const PutShardRequest &Req);
Expected<PutShardRequest> decodePutShard(const std::vector<uint8_t> &Payload);

/// Listing shape of a QUERY_REPORT, mirroring `gprof-store report` flags
/// bit for bit so a daemon-side report can be byte-identical to an
/// offline one.
struct ReportFlags {
  bool FlatOnly = false;
  bool GraphOnly = false;
  bool Brief = false;
  bool NoIndex = false;
  bool ShowZero = false;
};

/// QUERY_REPORT request.  \p Members empty means "every shard".  The
/// image is named by path — the daemon serves a local socket, so client
/// and server share a filesystem.
struct QueryReportRequest {
  std::string ImagePath;
  ReportFlags Flags;
  std::vector<Sha256Digest> Members;
};

std::vector<uint8_t> encodeQueryReport(const QueryReportRequest &Req);
Expected<QueryReportRequest>
decodeQueryReport(const std::vector<uint8_t> &Payload);

/// QUERY_STATS request.  \p SinceSeq is an event-tail cursor: only events
/// with a larger sequence number are returned, so `stats --watch` passes
/// the previous response's LastSeq back and gets an incremental tail.
/// \p Filter keeps only metrics whose name starts with the prefix (empty
/// keeps everything; events are never filtered).
struct QueryStatsRequest {
  uint64_t SinceSeq = 0;
  std::string Filter;
};

std::vector<uint8_t> encodeQueryStats(const QueryStatsRequest &Req);
Expected<QueryStatsRequest>
decodeQueryStats(const std::vector<uint8_t> &Payload);

/// QUERY_STATS OK payload: the daemon's live stats JSON (renderStatsJson
/// shape plus uptime/build/pid scalars and an "events" array) and the
/// sequence number to resume the event tail from.
struct StatsResponse {
  std::string StatsJson;
  uint64_t LastSeq = 0;
};

std::vector<uint8_t> encodeStatsResponse(const StatsResponse &Resp);
Expected<StatsResponse>
decodeStatsResponse(const std::vector<uint8_t> &Payload);

/// LIST OK payload: the server's ShardInfo rows, in index (digest) order,
/// capture time included (wire revision 3).  A peer on revision 2 fails
/// to decode the rows with a truncation or trailing-bytes error.
std::vector<uint8_t> encodeShardList(const std::vector<ShardInfo> &Shards);
Expected<std::vector<ShardInfo>>
decodeShardList(const std::vector<uint8_t> &Payload);

/// Digest payloads (PUT_SHARD OK response).
std::vector<uint8_t> encodeDigest(const Sha256Digest &Digest);
Expected<Sha256Digest> decodeDigest(const std::vector<uint8_t> &Payload);

/// Text payloads (ERROR / RETRY / QUERY_REPORT OK).
std::vector<uint8_t> encodeText(const std::string &Text);
Expected<std::string> decodeText(const std::vector<uint8_t> &Payload);

} // namespace serve
} // namespace gprof

#endif // GPROF_SERVE_PROTOCOL_H
