//===- perfbench/Loops.cpp - Load generators ------------------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's clients: a closed loop with a pipelining window and an
/// open loop on a fixed schedule over one BlockingClient connection, a
/// malformed-frame chaff sender, and a one-outstanding in-process pool
/// client. Every response they receive is booked into the run's Stream so
/// it can be checked against the reference afterwards.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sys/prctl.h>

#include <chrono>
#include <thread>

namespace perfbench {

namespace {

constexpr unsigned RecvTimeoutMillis = 30000;

void sleepUntilNs(uint64_t Ns) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(Ns)));
}

} // namespace

LoopStats wireClosedLoop(BlockingClient &C, Stream &S, Ledger &L,
                         unsigned Window, double Seconds, uint64_t MaxRequests,
                         std::atomic<uint64_t> *SentCounter) {
  LoopStats St;
  St.FirstIndex = S.Next;
  const uint64_t Cpu0 = threadCpuNs();
  std::vector<uint64_t> SendNs;
  std::vector<uint8_t> Seen;
  const uint64_t T0 = nowNs();
  const uint64_t Deadline = T0 + static_cast<uint64_t>(Seconds * 1e9);
  uint64_t DueNs = T0, LastRecvNs = T0;
  uint64_t Sent = 0, Received = 0;
  for (;;) {
    while (Sent - Received < Window && Sent < MaxRequests) {
      uint64_t T = nowNs();
      if (T >= Deadline)
        break;
      if (!C.sendRequest(wireRequest(*S.V, St.FirstIndex + Sent)))
        die("send failed on the request connection");
      St.LateUs.push_back(static_cast<double>(T - DueNs) / 1e3);
      SendNs.push_back(T);
      Seen.push_back(0);
      ++Sent;
      if (SentCounter)
        SentCounter->fetch_add(1, std::memory_order_relaxed);
    }
    if (Received == Sent)
      break;
    WireResponse R;
    if (!C.recvResponse(R, RecvTimeoutMillis))
      die("no response within %u ms (%llu outstanding)", RecvTimeoutMillis,
          static_cast<unsigned long long>(Sent - Received));
    uint64_t T = nowNs();
    uint64_t Slot = R.Index - St.FirstIndex;
    if (R.Index < St.FirstIndex || Slot >= Sent || Seen[Slot])
      die("unexpected response for index %llu",
          static_cast<unsigned long long>(R.Index));
    Seen[Slot] = 1;
    St.LatUs.push_back(static_cast<double>(T - SendNs[Slot]) / 1e3);
    bookResponse(R, S, L);
    DueNs = LastRecvNs = T;
    ++Received;
  }
  S.Next += Sent;
  L.Attempted += Sent;
  St.Sent = Sent;
  St.Completed = Received;
  St.Seconds = static_cast<double>(LastRecvNs - T0) / 1e9;
  St.ClientCpuNs = threadCpuNs() - Cpu0;
  return St;
}

LoopStats wireOpenLoop(BlockingClient &C, Stream &S, Ledger &L, double Rate,
                       double Seconds, std::atomic<uint64_t> *SentCounter) {
  LoopStats St;
  St.FirstIndex = S.Next;
  const uint64_t Cpu0 = threadCpuNs();
  uint64_t SenderCpuNs = 0;
  const uint64_t N = static_cast<uint64_t>(Rate * Seconds);
  const double PeriodNs = 1e9 / Rate;
  std::vector<double> Late(N);
  std::vector<uint8_t> Seen(N, 0);
  const uint64_t T0 = nowNs() + 1000000; // first send 1 ms from now
  auto Due = [&](uint64_t I) {
    return T0 + static_cast<uint64_t>(static_cast<double>(I) * PeriodNs);
  };
  std::atomic<bool> SendFailed{false};
  std::thread Sender([&] {
    const uint64_t SenderCpu0 = threadCpuNs();
    // Default timer slack (50 us) would make every wake-up late by about a
    // whole inter-arrival period; ask for precise sleeps instead.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (uint64_t I = 0; I != N; ++I) {
      uint64_t D = Due(I);
      if (nowNs() < D)
        sleepUntilNs(D);
      uint64_t T = nowNs();
      Late[I] = static_cast<double>(T - D) / 1e3;
      if (!C.sendRequest(wireRequest(*S.V, St.FirstIndex + I))) {
        SendFailed.store(true);
        break;
      }
      if (SentCounter)
        SentCounter->fetch_add(1, std::memory_order_relaxed);
    }
    SenderCpuNs = threadCpuNs() - SenderCpu0;
  });
  uint64_t LastRecvNs = T0;
  for (uint64_t K = 0; K != N && !SendFailed.load(); ++K) {
    WireResponse R;
    if (!C.recvResponse(R, RecvTimeoutMillis))
      break;
    uint64_t T = nowNs();
    uint64_t Slot = R.Index - St.FirstIndex;
    if (R.Index < St.FirstIndex || Slot >= N || Seen[Slot])
      die("unexpected response for index %llu",
          static_cast<unsigned long long>(R.Index));
    Seen[Slot] = 1;
    St.LatUs.push_back(static_cast<double>(T - Due(Slot)) / 1e3);
    bookResponse(R, S, L);
    LastRecvNs = T;
    ++St.Completed;
  }
  Sender.join();
  if (SendFailed.load() || St.Completed != N)
    die("open loop lost responses (%llu of %llu)",
        static_cast<unsigned long long>(St.Completed),
        static_cast<unsigned long long>(N));
  St.LateUs = std::move(Late);
  S.Next += N;
  L.Attempted += N;
  St.Sent = N;
  St.Seconds = static_cast<double>(LastRecvNs - T0) / 1e9;
  St.ClientCpuNs = threadCpuNs() - Cpu0 + SenderCpuNs;
  return St;
}

bool chaffLoop(uint16_t Port, const std::atomic<uint64_t> &RequestsSent,
               const std::atomic<bool> &Stop, Chaff &Out,
               std::atomic<uint64_t> &CpuNs) {
  const uint64_t Cpu0 = threadCpuNs();
  // Zero-length, oversize and garbage frames earn a ProtocolError notice,
  // which the server sends only after booking the error; truncated frames
  // and bare resets get none (the caller lets the loop settle before it
  // reads the books).
  auto AwaitNotice = [](BlockingClient &C) {
    WireResponse Notice;
    return C.recvResponse(Notice, 5000) &&
           Notice.Status == WireStatus::ProtocolError;
  };
  for (unsigned Next = 0; !Stop.load(std::memory_order_relaxed);) {
    CpuNs.store(threadCpuNs() - Cpu0, std::memory_order_relaxed);
    if (Out.frames() * 100 >= RequestsSent.load(std::memory_order_relaxed) + 100) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    BlockingClient C;
    if (!C.connectTo(Port))
      return false;
    switch (Next++ % 5) {
    case 0: {
      const uint8_t Frame[4] = {0, 0, 0, 0};
      if (!C.sendBytes(Frame, sizeof Frame) || !AwaitNotice(C))
        return false;
      ++Out.ZeroLength;
      break;
    }
    case 1: {
      const uint8_t Frame[4] = {0xff, 0xff, 0xff, 0xff};
      if (!C.sendBytes(Frame, sizeof Frame) || !AwaitNotice(C))
        return false;
      ++Out.Oversize;
      break;
    }
    case 2: {
      // Well framed, but not a request: decodes, then fails the schema.
      std::vector<uint8_t> Frame = {16, 0, 0, 0};
      Frame.insert(Frame.end(), 16, 0x5a);
      if (!C.sendBytes(Frame.data(), Frame.size()) || !AwaitNotice(C))
        return false;
      ++Out.Garbage;
      break;
    }
    case 3: {
      // A prefix promising 100 bytes, three delivered, then FIN.
      const uint8_t Frame[7] = {100, 0, 0, 0, 1, 2, 3};
      if (!C.sendBytes(Frame, sizeof Frame))
        return false;
      C.closeConn();
      ++Out.Truncated;
      break;
    }
    default:
      C.resetConn();
      ++Out.Resets;
      break;
    }
  }
  return true;
}

SyncPool::SyncPool(Module &M, PoolOptions PO) : Pool(M, hooked(std::move(PO))) {}

SyncPool::~SyncPool() { Pool.finish(); }

PoolOptions SyncPool::hooked(PoolOptions PO) {
  PO.OnOutcome = [this](const PoolOutcome &O) {
    uint64_t T = nowNs();
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Last = O;
      DoneNs = T;
      Ready = true;
    }
    Cv.notify_one();
  };
  return PO;
}

uint64_t SyncPool::serve(PoolRequest R, PoolOutcome &Out) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Ready = false;
  }
  uint64_t T0 = nowNs();
  if (!Pool.submit(std::move(R)))
    die("the pool shed a request");
  std::unique_lock<std::mutex> Lock(Mu);
  Cv.wait(Lock, [&] { return Ready; });
  Out = Last;
  return DoneNs - T0;
}

LoopStats poolPhase(SyncPool &P, Stream &S, Ledger &L, double Seconds,
                    uint64_t MaxRequests) {
  LoopStats St;
  St.FirstIndex = S.Next;
  const uint64_t Cpu0 = threadCpuNs();
  const uint64_t T0 = nowNs();
  const uint64_t Deadline = T0 + static_cast<uint64_t>(Seconds * 1e9);
  uint64_t End = T0, DueNs = T0;
  while (St.Sent < MaxRequests) {
    uint64_t T = nowNs();
    if (T >= Deadline)
      break;
    St.LateUs.push_back(static_cast<double>(T - DueNs) / 1e3);
    PoolOutcome O;
    uint64_t Ns = P.serve(poolRequest(*S.V, S.Next), O);
    End = DueNs = nowNs();
    St.LatUs.push_back(static_cast<double>(Ns) / 1e3);
    S.Observed.push_back(O);
    ++S.Next;
    ++St.Sent;
  }
  L.Attempted += St.Sent;
  St.Completed = St.Sent;
  St.Seconds = static_cast<double>(End - T0) / 1e9;
  St.ClientCpuNs = threadCpuNs() - Cpu0;
  return St;
}

} // namespace perfbench
