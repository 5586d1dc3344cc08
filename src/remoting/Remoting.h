//===- remoting/Remoting.h - C#-remoting flavoured API ----------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The .Net-Remoting-shaped surface over the RPC engine: object URIs
/// ("tcp://node1:1050/DivideServer"), Activator::getObject, well-known
/// service registration, and asynchronous delegates (BeginInvoke /
/// EndInvoke returning an IAsyncResult-like handle) -- the C# features
/// Section 2 of the paper highlights over Java RMI.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_REMOTING_REMOTING_H
#define PARCS_REMOTING_REMOTING_H

#include "remoting/Engine.h"

#include <string>

namespace parcs::remoting {

/// Transport channel of a URI, mirroring TcpChannel/HttpChannel.
enum class ChannelKind { Tcp, Http };

/// A parsed remoting URI.
struct ObjectUri {
  ChannelKind Channel = ChannelKind::Tcp;
  int Node = 0;
  int Port = 0;
  std::string Name;
};

/// Parses "tcp://node<K>:<port>/<name>" or "http://...".  Hosts are the
/// simulated cluster nodes, named node0..nodeN (plus "localhost" = node0).
ErrorOr<ObjectUri> parseObjectUri(const std::string &Uri);

/// Renders the canonical URI string for (channel, node, port, name).
std::string makeObjectUri(ChannelKind Channel, int Node, int Port,
                          const std::string &Name);

/// A reference to a (possibly remote) published object: what the
/// transparent proxy wraps.  Copyable.
class RemoteHandle {
public:
  RemoteHandle() = default;
  RemoteHandle(RpcEndpoint &Local, int DstNode, int DstPort, std::string Name)
      : Local(&Local), DstNode(DstNode), DstPort(DstPort),
        Name(std::move(Name)) {}

  bool valid() const { return Local != nullptr; }
  const std::string &name() const { return Name; }

  /// Raw two-way invocation with pre-encoded arguments.  \p ParentCtx is
  /// the caller's causal id, threaded through to the engine (0 = untraced
  /// or root).
  sim::Task<ErrorOr<Bytes>> invoke(std::string Method, Bytes Args,
                                   uint64_t ParentCtx = 0) {
    assert(Local && "invoking through an empty handle");
    // callReliable applies the endpoint's retry policy; with the default
    // (disabled) policy it is exactly one plain call, same wire bytes.
    return Local->callReliable(DstNode, DstPort, Name, std::move(Method),
                               std::move(Args), ParentCtx);
  }

  /// Raw one-way invocation.
  sim::Task<void> invokeOneWay(std::string Method, Bytes Args,
                               uint64_t ParentCtx = 0) {
    assert(Local && "invoking through an empty handle");
    return Local->callOneWay(DstNode, DstPort, Name, std::move(Method),
                             std::move(Args), ParentCtx);
  }

  /// Typed two-way call: encodes \p CallArgs, decodes a Ret.  Use
  /// parcs::Unit as Ret for void methods.
  template <typename Ret, typename... Args>
  sim::Task<ErrorOr<Ret>> invokeTyped(std::string Method,
                                      const Args &...CallArgs) {
    return invokeTypedImpl<Ret>(*this, std::move(Method),
                                serial::encodeValues(CallArgs...));
  }

private:
  template <typename Ret>
  static sim::Task<ErrorOr<Ret>>
  invokeTypedImpl(RemoteHandle Self, std::string Method, Bytes Encoded) {
    co_return serial::decodeResult<Ret>(
        co_await Self.invoke(std::move(Method), std::move(Encoded)));
  }

  RpcEndpoint *Local = nullptr;
  int DstNode = 0;
  int DstPort = 0;
  std::string Name;
};

/// Obtains a handle to a remote well-known object from its URI, like
/// Activator.GetObject(typeof(T), uri).
ErrorOr<RemoteHandle> getObject(RpcEndpoint &Local, const std::string &Uri);

/// The IAsyncResult-shaped handle produced by delegate BeginInvoke.
template <typename Ret> class AsyncResult {
public:
  AsyncResult() = default;
  explicit AsyncResult(sim::Future<ErrorOr<Ret>> Result)
      : Result(std::move(Result)) {}

  bool isCompleted() const { return Result.ready(); }

  /// Awaitable: suspends until the call finishes, then yields the result
  /// (EndInvoke semantics).
  auto operator co_await() const { return Result.operator co_await(); }
  const sim::Future<ErrorOr<Ret>> &future() const { return Result; }

private:
  sim::Future<ErrorOr<Ret>> Result;
};

namespace detail {

template <typename Ret>
sim::Task<void> runDelegate(RemoteHandle Handle, std::string Method,
                            Bytes Args, sim::Promise<ErrorOr<Ret>> Done) {
  Done.set(serial::decodeResult<Ret>(
      co_await Handle.invoke(std::move(Method), std::move(Args))));
}

} // namespace detail

/// Starts an asynchronous delegate invocation (delegate.BeginInvoke): the
/// call proceeds in the background and the returned AsyncResult is later
/// awaited (EndInvoke).  \p Sim must be the endpoint's simulator.
template <typename Ret, typename... Args>
AsyncResult<Ret> beginInvoke(sim::Simulator &Sim, RemoteHandle Handle,
                             std::string Method, const Args &...CallArgs) {
  sim::Promise<ErrorOr<Ret>> Done(Sim);
  AsyncResult<Ret> Result(Done.future());
  Sim.spawn(detail::runDelegate<Ret>(std::move(Handle), std::move(Method),
                                     serial::encodeValues(CallArgs...),
                                     std::move(Done)));
  return Result;
}

} // namespace parcs::remoting

#endif // PARCS_REMOTING_REMOTING_H
