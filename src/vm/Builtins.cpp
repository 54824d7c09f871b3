//===- vm/Builtins.cpp - VM builtin (libc-model) functions ----------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builtin functions dispatched for calls to declarations, modeling the C
/// library routines the studied vulnerabilities live in:
///
///  - snprintf with C99 return semantics (returns the would-be length) —
///    the misuse pattern behind librelp CVE-2018-1000140;
///  - sstrncpy with ProFTPD's CVE-2006-5815 behavior (a non-positive length
///    copies unbounded);
///  - strcpy/get_input as classic unbounded writes;
///  - smokestack.rand / smokestack.trap, the runtime hooks inserted by the
///    instrumentation passes.
///
/// Builtins go through SimMemory for every byte, so overflows corrupt
/// neighboring simulated objects exactly as on hardware.
///
//===----------------------------------------------------------------------===//

#include "vm/Builtins.h"

#include "ir/Module.h"
#include "rng/RandomSource.h"
#include "support/Format.h"
#include "vm/Interpreter.h"

#include <cstring>
#include <iterator>

using namespace smokestack;

namespace {

/// Copies a host string into simulated memory (no NUL bound checking here;
/// the caller decides how many bytes).
bool writeBytes(SimMemory &Memory, uint64_t Addr, const void *Data,
                uint64_t Size, ExecResult &Result) {
  if (Size == 0)
    return true;
  if (!Memory.write(Addr, Data, Size)) {
    Result.Trap = Memory.getTrap();
    Result.Message = Memory.getTrapMessage();
    return false;
  }
  return true;
}

/// Name and required argument count of every BuiltinId, in enum order.
struct BuiltinInfo {
  const char *Name;
  unsigned MinArgs;
};
constexpr BuiltinInfo Builtins[] = {
    {"", 0},                // None
    {"smokestack.rand", 0}, // Rand
    {"smokestack.trap", 1}, // Trap
    {"malloc", 1},
    {"free", 1},
    {"memset", 3},
    {"memcpy", 3},
    {"strlen", 1},
    {"strcpy", 2},
    {"strncpy", 3},
    {"sstrncpy", 3},
    {"get_input", 1},
    {"get_input_n", 2},
    {"input_remaining", 0},
    {"print_i64", 1},
    {"print_str", 1},
    {"snprintf", 3},
    {"abort", 0},
    {"", 0}, // Unknown
};
static_assert(std::size(Builtins) ==
                  static_cast<size_t>(BuiltinId::Unknown) + 1,
              "one BuiltinInfo per BuiltinId");

} // namespace

BuiltinId smokestack::builtinIdFor(const std::string &Name) {
  for (size_t I = 1; I != static_cast<size_t>(BuiltinId::Unknown); ++I)
    if (Name == Builtins[I].Name)
      return static_cast<BuiltinId>(I);
  return BuiltinId::Unknown;
}

const char *smokestack::builtinName(BuiltinId Id) {
  return Builtins[static_cast<size_t>(Id)].Name;
}

unsigned smokestack::builtinMinArgs(BuiltinId Id) {
  return Builtins[static_cast<size_t>(Id)].MinArgs;
}

bool Interpreter::builtinSnprintf(std::span<const uint64_t> Args,
                                  uint64_t &RetValue, ExecResult &Result) {
  // snprintf(buf, size, fmt, ...). Supports %s %d %u %c %x %lld %% — the
  // directives the vulnerable code paths use.
  uint64_t Buf = Args[0];
  uint64_t Size = Args[1];
  std::string Fmt;
  if (!Memory.readCString(Args[2], Fmt)) {
    Result.Trap = Memory.getTrap();
    Result.Message = Memory.getTrapMessage();
    return false;
  }

  std::string Out;
  size_t ArgIndex = 3;
  for (size_t I = 0; I < Fmt.size(); ++I) {
    if (Fmt[I] != '%') {
      Out.push_back(Fmt[I]);
      continue;
    }
    ++I;
    if (I >= Fmt.size())
      break;
    // Skip the 'll' length modifier; slots are 64-bit anyway.
    while (I < Fmt.size() && Fmt[I] == 'l')
      ++I;
    if (I >= Fmt.size())
      break;
    char Conv = Fmt[I];
    if (Conv == '%') {
      Out.push_back('%');
      continue;
    }
    if (ArgIndex >= Args.size()) {
      Result.Trap = TrapKind::BadCall;
      Result.Message = "snprintf: missing variadic argument";
      return false;
    }
    uint64_t Arg = Args[ArgIndex++];
    switch (Conv) {
    case 's': {
      std::string Str;
      if (!Memory.readCString(Arg, Str)) {
        Result.Trap = Memory.getTrap();
        Result.Message = Memory.getTrapMessage();
        return false;
      }
      Out += Str;
      break;
    }
    case 'd':
      Out += formatString("%lld", (long long)(int64_t)Arg);
      break;
    case 'u':
      Out += formatString("%llu", (unsigned long long)Arg);
      break;
    case 'x':
      Out += formatString("%llx", (unsigned long long)Arg);
      break;
    case 'c':
      Out.push_back(static_cast<char>(Arg));
      break;
    default:
      Result.Trap = TrapKind::BadCall;
      Result.Message = formatString("snprintf: unsupported directive %%%c",
                                    Conv);
      return false;
    }
  }

  // C99: write at most Size-1 characters plus NUL; return the length that
  // would have been written. Callers that add the return value to a running
  // offset without checking it against the buffer size create exactly the
  // non-linear overflow librelp had.
  if (Size > 0) {
    uint64_t ToCopy = Out.size() < Size - 1 ? Out.size() : Size - 1;
    if (!writeBytes(Memory, Buf, Out.data(), ToCopy, Result))
      return false;
    uint8_t Nul = 0;
    if (!writeBytes(Memory, Buf + ToCopy, &Nul, 1, Result))
      return false;
  }
  RetValue = Out.size();
  return true;
}

bool Interpreter::builtinRand(uint64_t &RetValue, ExecResult &Result) {
  if (!Rng) {
    Result.Trap = TrapKind::BadCall;
    Result.Message = "smokestack.rand called with no bound RandomSource";
    return false;
  }
  // Buffered draw: equals next() at the default batch size of 1; the
  // hardened prologue benefits from batching when the host enables it.
  RetValue = Rng->nextBuffered();
  // Fail closed: a permutation index from a failed draw would be
  // predictable (zero), exactly the layout determinism Smokestack
  // removes. The trap is recoverable at the request boundary.
  if (Rng->lastDrawStatus() == DrawStatus::Failed) {
    Result.Trap = TrapKind::RandomnessFailure;
    Result.Message = "randomness source failed closed during a draw";
    return false;
  }
  return true;
}

bool Interpreter::dispatchBuiltin(BuiltinId Id, const Function &Callee,
                                  std::span<const uint64_t> Args,
                                  uint64_t &RetValue, ExecResult &Result) {
  RetValue = 0;

  auto TrapFromMemory = [&]() {
    Result.Trap = Memory.getTrap();
    Result.Message = Memory.getTrapMessage();
    return false;
  };

  // Every case below may index Args up to its id's required count.
  // (snprintf always checked its own prefix and keeps that message.)
  if (Args.size() < builtinMinArgs(Id)) {
    Result.Trap = TrapKind::BadCall;
    Result.Message =
        Id == BuiltinId::Snprintf
            ? "snprintf needs at least (buf, size, fmt)"
            : formatString("'%s' takes at least %u argument(s), %zu given",
                           Callee.getName().c_str(), builtinMinArgs(Id),
                           Args.size());
    return false;
  }

  switch (Id) {
  case BuiltinId::Rand:
    return builtinRand(RetValue, Result);

  case BuiltinId::Trap:
    if (Args[0] == 1) {
      Result.Trap = TrapKind::FunctionIdViolation;
      Result.Message = "smokestack function-identifier check failed";
    } else if (Args[0] == 2) {
      Result.Trap = TrapKind::CanaryViolation;
      Result.Message = "stack canary check failed";
    } else {
      Result.Trap = TrapKind::ExplicitTrap;
      Result.Message = "explicit trap";
    }
    return false;

  case BuiltinId::Malloc:
    RetValue = Memory.heapAlloc(Args[0]);
    return true;

  case BuiltinId::Free:
    return true; // bump allocator: no-op

  case BuiltinId::Memset: {
    uint64_t Dst = Args[0], Byte = Args[1], N = Args[2];
    std::vector<uint8_t> Fill(N, static_cast<uint8_t>(Byte));
    if (!writeBytes(Memory, Dst, Fill.data(), N, Result))
      return false;
    RetValue = Dst;
    return true;
  }

  case BuiltinId::Memcpy: {
    uint64_t Dst = Args[0], Src = Args[1], N = Args[2];
    std::vector<uint8_t> Tmp(N);
    if (N && !Memory.read(Src, Tmp.data(), N))
      return TrapFromMemory();
    if (!writeBytes(Memory, Dst, Tmp.data(), N, Result))
      return false;
    RetValue = Dst;
    return true;
  }

  case BuiltinId::Strlen: {
    std::string Str;
    if (!Memory.readCString(Args[0], Str))
      return TrapFromMemory();
    RetValue = Str.size();
    return true;
  }

  case BuiltinId::Strcpy: {
    // Classic unbounded copy.
    std::string Str;
    if (!Memory.readCString(Args[1], Str))
      return TrapFromMemory();
    if (!writeBytes(Memory, Args[0], Str.c_str(), Str.size() + 1, Result))
      return false;
    RetValue = Args[0];
    return true;
  }

  case BuiltinId::Strncpy: {
    std::string Str;
    if (!Memory.readCString(Args[1], Str))
      return TrapFromMemory();
    uint64_t N = Args[2];
    std::vector<uint8_t> Tmp(N, 0);
    std::memcpy(Tmp.data(), Str.data(), Str.size() < N ? Str.size() : N);
    if (!writeBytes(Memory, Args[0], Tmp.data(), N, Result))
      return false;
    RetValue = Args[0];
    return true;
  }

  case BuiltinId::Sstrncpy: {
    // ProFTPD's sstrncpy(dst, src, len): copies at most len-1 bytes and
    // NUL-terminates. CVE-2006-5815: a non-positive len underflows the
    // bound and the copy runs to the source's end, unbounded by dst.
    std::string Str;
    if (!Memory.readCString(Args[1], Str))
      return TrapFromMemory();
    int64_t N = static_cast<int64_t>(Args[2]);
    uint64_t ToCopy = N <= 0 ? Str.size()
                             : (Str.size() < static_cast<uint64_t>(N - 1)
                                    ? Str.size()
                                    : static_cast<uint64_t>(N - 1));
    if (!writeBytes(Memory, Args[0], Str.data(), ToCopy, Result))
      return false;
    uint8_t Nul = 0;
    if (!writeBytes(Memory, Args[0] + ToCopy, &Nul, 1, Result))
      return false;
    RetValue = Args[0];
    return true;
  }

  case BuiltinId::GetInput: {
    // Unbounded read of the next input record — the canonical vulnerable
    // input function from the paper's Listing 1.
    if (InputQueue.empty())
      return true; // RetValue stays 0
    std::vector<uint8_t> Record = std::move(InputQueue.front());
    InputQueue.pop_front();
    if (!writeBytes(Memory, Args[0], Record.data(), Record.size(), Result))
      return false;
    RetValue = Record.size();
    return true;
  }

  case BuiltinId::GetInputN: {
    // Bounds-checked variant (a patched program would use this).
    if (InputQueue.empty())
      return true;
    std::vector<uint8_t> Record = std::move(InputQueue.front());
    InputQueue.pop_front();
    uint64_t Max = Args[1];
    uint64_t ToCopy = Record.size() < Max ? Record.size() : Max;
    if (!writeBytes(Memory, Args[0], Record.data(), ToCopy, Result))
      return false;
    RetValue = ToCopy;
    return true;
  }

  case BuiltinId::InputRemaining:
    RetValue = InputQueue.size();
    return true;

  case BuiltinId::PrintI64:
    Output += formatString("%lld\n", (long long)(int64_t)Args[0]);
    return true;

  case BuiltinId::PrintStr: {
    std::string Str;
    if (!Memory.readCString(Args[0], Str))
      return TrapFromMemory();
    Output += Str;
    Output.push_back('\n');
    return true;
  }

  case BuiltinId::Snprintf:
    return builtinSnprintf(Args, RetValue, Result);

  case BuiltinId::Abort:
    Result.Trap = TrapKind::ExplicitTrap;
    Result.Message = "abort() called";
    return false;

  case BuiltinId::None:
  case BuiltinId::Unknown:
    break;
  }

  Result.Trap = TrapKind::BadCall;
  Result.Message = "unknown builtin: " + Callee.getName();
  return false;
}
