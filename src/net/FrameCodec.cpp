//===- net/FrameCodec.cpp - Length-prefixed wire protocol -----------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/FrameCodec.h"

#include <cstring>

using namespace smokestack;

namespace {

void putU16(std::vector<uint8_t> &Out, uint16_t V) {
  Out.push_back(static_cast<uint8_t>(V));
  Out.push_back(static_cast<uint8_t>(V >> 8));
}

void putU32(std::vector<uint8_t> &Out, uint32_t V) {
  for (unsigned I = 0; I != 4; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void putU64(std::vector<uint8_t> &Out, uint64_t V) {
  for (unsigned I = 0; I != 8; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

/// Bounds-checked little-endian reader over one payload.
class Reader {
public:
  Reader(const uint8_t *Data, size_t Len) : Data(Data), Len(Len) {}

  bool u8(uint8_t &V) { return copy(&V, 1); }
  bool u16(uint16_t &V) { return copy(&V, 2); }
  bool u32(uint32_t &V) { return copy(&V, 4); }
  bool u64(uint64_t &V) { return copy(&V, 8); }

  bool bytes(std::vector<uint8_t> &Out, size_t N) {
    if (N > Len - Pos)
      return false;
    Out.assign(Data + Pos, Data + Pos + N);
    Pos += N;
    return true;
  }

  bool exhausted() const { return Pos == Len; }

private:
  bool copy(void *Out, size_t N) {
    if (N > Len - Pos)
      return false;
    // Little-endian hosts only (the repo already assumes x86-64); memcpy
    // keeps the access alignment-safe.
    std::memcpy(Out, Data + Pos, N);
    Pos += N;
    return true;
  }

  const uint8_t *Data;
  size_t Len;
  size_t Pos = 0;
};

void prependLength(std::vector<uint8_t> &Frame) {
  uint32_t PayloadLen = static_cast<uint32_t>(Frame.size() - 4);
  for (unsigned I = 0; I != 4; ++I)
    Frame[I] = static_cast<uint8_t>(PayloadLen >> (8 * I));
}

/// The RequestBooks wire layout, shared by the encoder and parser so the
/// field list lives in one place. Order is declaration order; the RNG
/// books are flattened in their own declaration order.
template <typename Fn> void eachBooksField(RequestBooks &B, Fn &&F) {
  F(B.Requests);
  F(B.RequestTraps);
  F(B.RequestRecoveries);
  F(B.Rng.DrawsServed);
  F(B.Rng.DegradedDraws);
  F(B.Rng.FallbackDraws);
  F(B.Rng.FailClosedDraws);
  F(B.Rng.Failovers);
  F(B.Rng.Recoveries);
  F(B.Rng.DrngRetryFailures);
  F(B.Rng.DrngFailureEvents);
  F(B.Rng.AesRekeys);
  F(B.Rng.FailedRekeys);
  F(B.Rng.StaleKeyDraws);
  F(B.Rng.UnkeyedDraws);
  F(B.Rng.BufferRefills);
  F(B.CrashesContained);
  F(B.WorkerDeaths);
  F(B.WorkerRestarts);
  F(B.Retries);
  F(B.PoisonedPoolDeath);
}

} // namespace

std::vector<uint8_t> smokestack::encodeRequestFrame(const WireRequest &Req) {
  std::vector<uint8_t> F(4); // length prefix patched at the end
  putU32(F, RequestMagic);
  putU64(F, Req.Index);
  putU32(F, Req.DeadlineMillis);
  putU32(F, static_cast<uint32_t>(Req.Inputs.size()));
  for (const std::vector<uint8_t> &In : Req.Inputs) {
    putU32(F, static_cast<uint32_t>(In.size()));
    F.insert(F.end(), In.begin(), In.end());
  }
  prependLength(F);
  return F;
}

std::vector<uint8_t> smokestack::encodeResponseFrame(const WireResponse &R) {
  std::vector<uint8_t> F(4);
  putU32(F, ResponseMagic);
  putU64(F, R.Index);
  F.push_back(static_cast<uint8_t>(R.Status));
  F.push_back(static_cast<uint8_t>(R.Trap));
  putU16(F, R.Flags);
  putU32(F, R.Attempts);
  putU64(F, R.ReturnValue);
  putU64(F, R.Steps);
  prependLength(F);
  return F;
}

std::vector<uint8_t> smokestack::encodeShardOutcomeFrame(const ShardOutcome &O) {
  std::vector<uint8_t> F(4);
  putU32(F, ShardOutcomeMagic);
  putU64(F, O.Resp.Index);
  F.push_back(static_cast<uint8_t>(O.Resp.Status));
  F.push_back(static_cast<uint8_t>(O.Resp.Trap));
  putU16(F, O.Resp.Flags);
  putU32(F, O.Resp.Attempts);
  putU64(F, O.Resp.ReturnValue);
  putU64(F, O.Resp.Steps);
  RequestBooks B = O.Books; // non-const view for the shared field walker
  eachBooksField(B, [&F](uint64_t &V) { putU64(F, V); });
  putU32(F, NumFaultSites);
  for (unsigned S = 0; S != NumFaultSites; ++S)
    putU64(F, O.Books.InjectedProbes[S]);
  for (unsigned S = 0; S != NumFaultSites; ++S)
    putU64(F, O.Books.InjectedEvents[S]);
  prependLength(F);
  return F;
}

std::vector<uint8_t> smokestack::encodeShardControlFrame(const ShardControl &C) {
  std::vector<uint8_t> F(4);
  putU32(F, ShardControlMagic);
  F.push_back(static_cast<uint8_t>(C.Op));
  putU32(F, C.BudgetMillis);
  F.push_back(C.Clean ? 1 : 0);
  prependLength(F);
  return F;
}

bool smokestack::parseRequestPayload(const uint8_t *Data, size_t Len,
                                     WireRequest &Out) {
  Reader R(Data, Len);
  uint32_t Magic, NumInputs;
  if (!R.u32(Magic) || Magic != RequestMagic)
    return false;
  if (!R.u64(Out.Index) || !R.u32(Out.DeadlineMillis) || !R.u32(NumInputs))
    return false;
  if (NumInputs > MaxRequestInputs)
    return false;
  Out.Inputs.clear();
  Out.Inputs.reserve(NumInputs);
  for (uint32_t I = 0; I != NumInputs; ++I) {
    uint32_t RecLen;
    std::vector<uint8_t> Rec;
    // The record length is validated against the bytes actually present —
    // a lying length can never allocate or read beyond the payload.
    if (!R.u32(RecLen) || !R.bytes(Rec, RecLen))
      return false;
    Out.Inputs.push_back(std::move(Rec));
  }
  // Trailing bytes mean the peer's framing disagrees with its schema:
  // reject rather than guess.
  return R.exhausted();
}

bool smokestack::parseResponsePayload(const uint8_t *Data, size_t Len,
                                      WireResponse &Out) {
  Reader R(Data, Len);
  uint32_t Magic;
  uint8_t Status, Trap;
  if (!R.u32(Magic) || Magic != ResponseMagic)
    return false;
  if (!R.u64(Out.Index) || !R.u8(Status) || !R.u8(Trap) || !R.u16(Out.Flags) ||
      !R.u32(Out.Attempts) || !R.u64(Out.ReturnValue) || !R.u64(Out.Steps))
    return false;
  if (Status > static_cast<uint8_t>(WireStatus::ProtocolError) ||
      Trap > static_cast<uint8_t>(TrapKind::WorkerCrash))
    return false;
  Out.Status = static_cast<WireStatus>(Status);
  Out.Trap = static_cast<TrapKind>(Trap);
  return R.exhausted();
}

bool smokestack::parseShardOutcomePayload(const uint8_t *Data, size_t Len,
                                          ShardOutcome &Out) {
  Reader R(Data, Len);
  uint32_t Magic;
  uint8_t Status, Trap;
  if (!R.u32(Magic) || Magic != ShardOutcomeMagic)
    return false;
  if (!R.u64(Out.Resp.Index) || !R.u8(Status) || !R.u8(Trap) ||
      !R.u16(Out.Resp.Flags) || !R.u32(Out.Resp.Attempts) ||
      !R.u64(Out.Resp.ReturnValue) || !R.u64(Out.Resp.Steps))
    return false;
  if (Status > static_cast<uint8_t>(WireStatus::ProtocolError) ||
      Trap > static_cast<uint8_t>(TrapKind::WorkerCrash))
    return false;
  Out.Resp.Status = static_cast<WireStatus>(Status);
  Out.Resp.Trap = static_cast<TrapKind>(Trap);
  Out.Books = RequestBooks();
  bool Ok = true;
  eachBooksField(Out.Books, [&R, &Ok](uint64_t &V) { Ok = Ok && R.u64(V); });
  if (!Ok)
    return false;
  uint32_t SiteCount;
  if (!R.u32(SiteCount) || SiteCount != NumFaultSites)
    return false;
  for (unsigned S = 0; S != NumFaultSites; ++S)
    if (!R.u64(Out.Books.InjectedProbes[S]))
      return false;
  for (unsigned S = 0; S != NumFaultSites; ++S)
    if (!R.u64(Out.Books.InjectedEvents[S]))
      return false;
  return R.exhausted();
}

bool smokestack::parseShardControlPayload(const uint8_t *Data, size_t Len,
                                          ShardControl &Out) {
  Reader R(Data, Len);
  uint32_t Magic;
  uint8_t Op, Clean;
  if (!R.u32(Magic) || Magic != ShardControlMagic)
    return false;
  if (!R.u8(Op) || !R.u32(Out.BudgetMillis) || !R.u8(Clean))
    return false;
  if (Op != static_cast<uint8_t>(ShardControlOp::DrainCmd) &&
      Op != static_cast<uint8_t>(ShardControlOp::DrainAck))
    return false;
  if (Clean > 1)
    return false;
  Out.Op = static_cast<ShardControlOp>(Op);
  Out.Clean = Clean != 0;
  return R.exhausted();
}

void FrameDecoder::feed(const uint8_t *Data, size_t Len) {
  if (Dead || Len == 0)
    return;
  // Reclaim the consumed prefix before growing: a pipelining peer must not
  // be able to ratchet the buffer up frame by frame.
  if (Consumed) {
    Buffer.erase(Buffer.begin(),
                 Buffer.begin() + static_cast<ptrdiff_t>(Consumed));
    Consumed = 0;
  }
  Buffer.insert(Buffer.end(), Data, Data + Len);
}

FrameDecoder::Item FrameDecoder::next(std::vector<uint8_t> &Payload,
                                      FrameError &Err) {
  Err = FrameError::None;
  if (Dead)
    return Item::None;

  size_t Avail = Buffer.size() - Consumed;
  if (Avail < 4)
    return Item::None;
  const uint8_t *P = Buffer.data() + Consumed;
  uint32_t Len = static_cast<uint32_t>(P[0]) | (static_cast<uint32_t>(P[1]) << 8) |
                 (static_cast<uint32_t>(P[2]) << 16) |
                 (static_cast<uint32_t>(P[3]) << 24);
  // Validate the prefix BEFORE waiting for payload bytes: an oversize
  // length must not make the server buffer toward a limit that never
  // arrives, and a zero length carries no decodable payload.
  if (Len == 0 || Len > MaxFramePayload) {
    Dead = true;
    Buffer.clear();
    Consumed = 0;
    Err = Len == 0 ? FrameError::ZeroLength : FrameError::Oversize;
    return Item::Error;
  }
  if (Avail - 4 < Len)
    return Item::None;
  Payload.assign(P + 4, P + 4 + Len);
  Consumed += 4 + static_cast<size_t>(Len);
  if (Consumed == Buffer.size()) {
    Buffer.clear();
    Consumed = 0;
  }
  return Item::Payload;
}

FrameError FrameDecoder::finalize() const {
  if (Dead)
    return FrameError::None; // already reported fatally
  return Buffer.size() - Consumed ? FrameError::Truncated : FrameError::None;
}
