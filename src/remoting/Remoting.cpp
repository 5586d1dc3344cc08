//===- remoting/Remoting.cpp ----------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "remoting/Remoting.h"

#include "support/StringUtils.h"

using namespace parcs;
using namespace parcs::remoting;

ErrorOr<ObjectUri> parcs::remoting::parseObjectUri(const std::string &Uri) {
  bool Http = Uri.starts_with("http://");
  if (!Http && !Uri.starts_with("tcp://"))
    return Error(ErrorCode::InvalidArgument,
                 "uri must start with tcp:// or http://: " + Uri);
  ErrorOr<NodeUri> Address = parseNodeUri(Uri, Http ? 7 : 6, -1);
  if (!Address)
    return Address.error();
  return ObjectUri{Http ? ChannelKind::Http : ChannelKind::Tcp,
                   Address->Node, Address->Port, std::move(Address->Name)};
}

std::string parcs::remoting::makeObjectUri(ChannelKind Channel, int Node,
                                           int Port,
                                           const std::string &Name) {
  std::string Uri = Channel == ChannelKind::Tcp ? "tcp://" : "http://";
  Uri += "node" + std::to_string(Node) + ":" + std::to_string(Port) + "/" +
         Name;
  return Uri;
}

ErrorOr<RemoteHandle> parcs::remoting::getObject(RpcEndpoint &Local,
                                                 const std::string &Uri) {
  ErrorOr<ObjectUri> Parsed = parseObjectUri(Uri);
  if (!Parsed)
    return Parsed.error();
  bool WantHttp = Parsed->Channel == ChannelKind::Http;
  if (WantHttp != Local.profile().HttpFraming)
    return Error(ErrorCode::InvalidArgument,
                 "endpoint channel does not match uri channel: " + Uri);
  return RemoteHandle(Local, Parsed->Node, Parsed->Port, Parsed->Name);
}
