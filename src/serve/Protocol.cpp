//===- serve/Protocol.cpp -------------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "support/BinaryStream.h"
#include "support/Format.h"

#include <algorithm>

using namespace gprof;
using namespace gprof::serve;

bool serve::isRequestType(uint8_t Type) {
  return Type >= static_cast<uint8_t>(MsgType::Ping) &&
         Type <= static_cast<uint8_t>(MsgType::QueryStats);
}

bool serve::isResponseType(uint8_t Type) {
  return Type >= static_cast<uint8_t>(MsgType::Ok) &&
         Type <= static_cast<uint8_t>(MsgType::Retry);
}

std::string serve::msgTypeName(MsgType Type) {
  switch (Type) {
  case MsgType::Ping:
    return "ping";
  case MsgType::PutShard:
    return "put_shard";
  case MsgType::List:
    return "list";
  case MsgType::QueryReport:
    return "query_report";
  case MsgType::QueryStats:
    return "query_stats";
  case MsgType::Ok:
    return "ok";
  case MsgType::Err:
    return "error";
  case MsgType::Retry:
    return "retry";
  }
  return format("unknown(%u)", static_cast<unsigned>(Type));
}

std::vector<uint8_t> serve::encodeFrameHeader(MsgType Type,
                                              uint64_t PayloadSize,
                                              uint64_t ReqId) {
  BinaryWriter W;
  W.writeBytes(reinterpret_cast<const uint8_t *>(FrameMagic),
               sizeof(FrameMagic));
  W.writeU8(static_cast<uint8_t>(Type));
  W.writeU64(ReqId);
  W.writeU64(PayloadSize);
  return W.takeBytes();
}

Expected<uint64_t> serve::decodeFrameHeader(const uint8_t *Header,
                                            MsgType &Type, uint64_t &ReqId) {
  BinaryReader R(Header, FrameHeaderSize);
  auto Magic = R.readBytes(sizeof(FrameMagic));
  if (!Magic)
    return Magic.takeError();
  if (!std::equal(Magic->begin(), Magic->end(), FrameMagic))
    return Error::failure("bad frame magic (peer is not speaking the "
                          "gprof-serve protocol)");
  auto RawType = R.readU8();
  if (!RawType)
    return RawType.takeError();
  if (!isRequestType(*RawType) && !isResponseType(*RawType))
    return Error::failure(format("unknown frame type %u", *RawType));
  auto Id = R.readU64();
  if (!Id)
    return Id.takeError();
  auto Length = R.readU64();
  if (!Length)
    return Length.takeError();
  if (*Length > MaxFramePayload)
    return Error::failure(format("frame payload of %llu bytes exceeds the "
                                 "%llu-byte limit",
                                 static_cast<unsigned long long>(*Length),
                                 static_cast<unsigned long long>(
                                     MaxFramePayload)));
  Type = static_cast<MsgType>(*RawType);
  ReqId = *Id;
  return *Length;
}

//===----------------------------------------------------------------------===//
// PUT_SHARD
//===----------------------------------------------------------------------===//

std::vector<uint8_t> serve::encodePutShard(const PutShardRequest &Req) {
  BinaryWriter W;
  W.writeBytes(Req.ImageId.data(), Req.ImageId.size());
  W.writeBytes(Req.GmonBytes.data(), Req.GmonBytes.size());
  return W.takeBytes();
}

Expected<PutShardRequest>
serve::decodePutShard(const std::vector<uint8_t> &Payload) {
  BinaryReader R(Payload);
  PutShardRequest Req;
  auto ImageId = R.readBytes(Req.ImageId.size());
  if (!ImageId)
    return Error::failure("put_shard payload truncated inside the image id");
  std::copy(ImageId->begin(), ImageId->end(), Req.ImageId.begin());
  auto Gmon = R.readBytes(R.remaining());
  if (!Gmon)
    return Gmon.takeError();
  if (Gmon->empty())
    return Error::failure("put_shard payload carries no gmon bytes");
  Req.GmonBytes = std::move(*Gmon);
  return Req;
}

//===----------------------------------------------------------------------===//
// QUERY_REPORT
//===----------------------------------------------------------------------===//

namespace {

constexpr uint8_t FlagFlatOnly = 1u << 0;
constexpr uint8_t FlagGraphOnly = 1u << 1;
constexpr uint8_t FlagBrief = 1u << 2;
constexpr uint8_t FlagNoIndex = 1u << 3;
constexpr uint8_t FlagShowZero = 1u << 4;

} // namespace

std::vector<uint8_t> serve::encodeQueryReport(const QueryReportRequest &Req) {
  BinaryWriter W;
  W.writeString(Req.ImagePath);
  uint8_t Flags = 0;
  if (Req.Flags.FlatOnly)
    Flags |= FlagFlatOnly;
  if (Req.Flags.GraphOnly)
    Flags |= FlagGraphOnly;
  if (Req.Flags.Brief)
    Flags |= FlagBrief;
  if (Req.Flags.NoIndex)
    Flags |= FlagNoIndex;
  if (Req.Flags.ShowZero)
    Flags |= FlagShowZero;
  W.writeU8(Flags);
  W.writeU64(Req.Members.size());
  for (const Sha256Digest &D : Req.Members)
    W.writeBytes(D.data(), D.size());
  return W.takeBytes();
}

Expected<QueryReportRequest>
serve::decodeQueryReport(const std::vector<uint8_t> &Payload) {
  BinaryReader R(Payload);
  QueryReportRequest Req;
  auto Path = R.readString();
  if (!Path)
    return Error::failure("query_report payload truncated inside the image "
                          "path");
  Req.ImagePath = std::move(*Path);
  auto Flags = R.readU8();
  if (!Flags)
    return Flags.takeError();
  Req.Flags.FlatOnly = *Flags & FlagFlatOnly;
  Req.Flags.GraphOnly = *Flags & FlagGraphOnly;
  Req.Flags.Brief = *Flags & FlagBrief;
  Req.Flags.NoIndex = *Flags & FlagNoIndex;
  Req.Flags.ShowZero = *Flags & FlagShowZero;
  auto Count = R.readU64();
  if (!Count)
    return Count.takeError();
  if (*Count > MaxListedShards)
    return Error::failure("query_report member count implausibly large");
  Req.Members.reserve(static_cast<size_t>(*Count));
  for (uint64_t I = 0; I != *Count; ++I) {
    auto Bytes = R.readBytes(32);
    if (!Bytes)
      return Error::failure("query_report payload truncated inside the "
                            "member digests");
    Sha256Digest D;
    std::copy(Bytes->begin(), Bytes->end(), D.begin());
    Req.Members.push_back(D);
  }
  if (!R.atEnd())
    return Error::failure(format("%zu trailing bytes after query_report "
                                 "payload",
                                 R.remaining()));
  return Req;
}

//===----------------------------------------------------------------------===//
// QUERY_STATS
//===----------------------------------------------------------------------===//

std::vector<uint8_t> serve::encodeQueryStats(const QueryStatsRequest &Req) {
  BinaryWriter W;
  W.writeU64(Req.SinceSeq);
  W.writeString(Req.Filter);
  return W.takeBytes();
}

Expected<QueryStatsRequest>
serve::decodeQueryStats(const std::vector<uint8_t> &Payload) {
  BinaryReader R(Payload);
  QueryStatsRequest Req;
  auto Since = R.readU64();
  if (!Since)
    return Since.takeError();
  Req.SinceSeq = *Since;
  auto Filter = R.readString();
  if (!Filter)
    return Error::failure("query_stats payload truncated inside the metric "
                          "filter");
  Req.Filter = std::move(*Filter);
  if (!R.atEnd())
    return Error::failure(format("%zu trailing bytes after query_stats "
                                 "payload",
                                 R.remaining()));
  return Req;
}

std::vector<uint8_t> serve::encodeStatsResponse(const StatsResponse &Resp) {
  BinaryWriter W;
  W.writeU64(Resp.LastSeq);
  W.writeString(Resp.StatsJson);
  return W.takeBytes();
}

Expected<StatsResponse>
serve::decodeStatsResponse(const std::vector<uint8_t> &Payload) {
  BinaryReader R(Payload);
  StatsResponse Resp;
  auto LastSeq = R.readU64();
  if (!LastSeq)
    return LastSeq.takeError();
  Resp.LastSeq = *LastSeq;
  auto Json = R.readString();
  if (!Json)
    return Error::failure("stats response truncated inside the stats JSON");
  Resp.StatsJson = std::move(*Json);
  if (!R.atEnd())
    return Error::failure(format("%zu trailing bytes after stats response",
                                 R.remaining()));
  return Resp;
}

//===----------------------------------------------------------------------===//
// LIST
//===----------------------------------------------------------------------===//

std::vector<uint8_t>
serve::encodeShardList(const std::vector<ShardInfo> &Shards) {
  BinaryWriter W;
  W.writeU64(Shards.size());
  for (const ShardInfo &S : Shards) {
    W.writeBytes(S.Digest.data(), S.Digest.size());
    W.writeBytes(S.ImageId.data(), S.ImageId.size());
    for (uint64_t Field : {S.Hz, S.LowPc, S.HighPc, S.BucketSize,
                           S.NumBuckets, S.NumArcs, S.TotalSamples})
      W.writeU64(Field);
    W.writeU32(S.Runs);
    W.writeU64(S.CaptureTimeNs);
  }
  return W.takeBytes();
}

Expected<std::vector<ShardInfo>>
serve::decodeShardList(const std::vector<uint8_t> &Payload) {
  BinaryReader R(Payload);
  auto Count = R.readU64();
  if (!Count)
    return Count.takeError();
  if (*Count > MaxListedShards)
    return Error::failure("shard list count implausibly large");
  std::vector<ShardInfo> Shards;
  Shards.reserve(static_cast<size_t>(*Count));
  for (uint64_t I = 0; I != *Count; ++I) {
    ShardInfo Info;
    auto Digest = R.readBytes(32);
    if (!Digest)
      return Error::failure("shard list truncated inside a digest");
    std::copy(Digest->begin(), Digest->end(), Info.Digest.begin());
    auto ImageId = R.readBytes(32);
    if (!ImageId)
      return Error::failure("shard list truncated inside an image id");
    std::copy(ImageId->begin(), ImageId->end(), Info.ImageId.begin());
    for (uint64_t *Field : {&Info.Hz, &Info.LowPc, &Info.HighPc,
                            &Info.BucketSize, &Info.NumBuckets, &Info.NumArcs,
                            &Info.TotalSamples}) {
      auto V = R.readU64();
      if (!V)
        return V.takeError();
      *Field = *V;
    }
    auto Runs = R.readU32();
    if (!Runs)
      return Runs.takeError();
    Info.Runs = *Runs;
    auto CaptureTime = R.readU64();
    if (!CaptureTime)
      return CaptureTime.takeError();
    Info.CaptureTimeNs = *CaptureTime;
    Shards.push_back(Info);
  }
  if (!R.atEnd())
    return Error::failure(format("%zu trailing bytes after shard list",
                                 R.remaining()));
  return Shards;
}

//===----------------------------------------------------------------------===//
// Scalars
//===----------------------------------------------------------------------===//

std::vector<uint8_t> serve::encodeDigest(const Sha256Digest &Digest) {
  return std::vector<uint8_t>(Digest.begin(), Digest.end());
}

Expected<Sha256Digest>
serve::decodeDigest(const std::vector<uint8_t> &Payload) {
  Sha256Digest D;
  if (Payload.size() != D.size())
    return Error::failure(format("expected a %zu-byte digest payload, got "
                                 "%zu bytes",
                                 D.size(), Payload.size()));
  std::copy(Payload.begin(), Payload.end(), D.begin());
  return D;
}

std::vector<uint8_t> serve::encodeText(const std::string &Text) {
  return std::vector<uint8_t>(Text.begin(), Text.end());
}

Expected<std::string> serve::decodeText(const std::vector<uint8_t> &Payload) {
  return std::string(Payload.begin(), Payload.end());
}
