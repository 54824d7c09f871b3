//===- net/Client.cpp - Blocking loopback protocol client -----------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/Client.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace smokestack;

BlockingClient::~BlockingClient() { closeConn(); }

BlockingClient::BlockingClient(BlockingClient &&O) noexcept
    : Fd(std::exchange(O.Fd, -1)), Decoder(std::move(O.Decoder)),
      PeerClosed(O.PeerClosed) {}

BlockingClient &BlockingClient::operator=(BlockingClient &&O) noexcept {
  if (this != &O) {
    closeConn();
    Fd = std::exchange(O.Fd, -1);
    Decoder = std::move(O.Decoder);
    PeerClosed = O.PeerClosed;
  }
  return *this;
}

bool BlockingClient::connectTo(uint16_t Port, std::string *Err) {
  closeConn();
  PeerClosed = false;
  Decoder = FrameDecoder();
  Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    if (Err)
      *Err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) < 0) {
    if (Err)
      *Err = std::string("connect: ") + std::strerror(errno);
    ::close(Fd);
    Fd = -1;
    return false;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
  return true;
}

bool BlockingClient::sendBytes(const void *Data, size_t Len) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  while (Len) {
    ssize_t W = ::send(Fd, P, Len, MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += W;
    Len -= static_cast<size_t>(W);
  }
  return true;
}

bool BlockingClient::sendRequest(const WireRequest &Req) {
  std::vector<uint8_t> F = encodeRequestFrame(Req);
  return sendBytes(F.data(), F.size());
}

bool BlockingClient::recvResponse(WireResponse &Out, unsigned TimeoutMillis) {
  std::vector<uint8_t> Payload;
  FrameError Err;
  // Wall-clock deadline rather than a per-poll() budget: any signal the
  // embedding process handles can interrupt poll() with EINTR, and each
  // retry must wait only the *remaining* budget.
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(TimeoutMillis);
  for (;;) {
    FrameDecoder::Item I = Decoder.next(Payload, Err);
    if (I == FrameDecoder::Item::Error)
      return false;
    if (I == FrameDecoder::Item::Payload)
      return parseResponsePayload(Payload.data(), Payload.size(), Out);
    if (PeerClosed || Fd < 0)
      return false;
    auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
        Deadline - std::chrono::steady_clock::now());
    if (Left.count() <= 0)
      return false; // timeout
    pollfd Pfd = {Fd, POLLIN, 0};
    int R = ::poll(&Pfd, 1, static_cast<int>(Left.count()));
    if (R < 0) {
      if (errno == EINTR)
        continue; // interrupted by a signal; the deadline is unchanged
      return false;
    }
    if (R == 0)
      return false; // timeout
    uint8_t Buf[65536];
    ssize_t N = ::recv(Fd, Buf, sizeof Buf, 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      PeerClosed = true;
      return false;
    }
    if (N == 0) {
      PeerClosed = true;
      continue; // loop once more: the decoder is empty, so this returns false
    }
    Decoder.feed(Buf, static_cast<size_t>(N));
  }
}

void BlockingClient::closeConn() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

void BlockingClient::resetConn() {
  if (Fd < 0)
    return;
  linger L = {1, 0};
  ::setsockopt(Fd, SOL_SOCKET, SO_LINGER, &L, sizeof L);
  ::close(Fd);
  Fd = -1;
}
