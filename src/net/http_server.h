// Blocking HTTP/1.1 server loop over one Connection.
//
// The server is transport-agnostic: feed it any Connection (in-memory
// pipe, TCP socket) and it parses requests, invokes the handler, and
// writes responses, honoring HTTP/1.1 keep-alive and pipelining and
// answering parse failures with 400/413/431. fed::Node serves federation
// peers with it over the in-memory transport; TCP clients of a provider
// go through the reactor (net/event_loop_server.h) instead.
#pragma once

#include <functional>
#include <string>

#include "net/http.h"
#include "net/http_parser.h"
#include "net/transport.h"

namespace w5::net {

using ServerHandler = std::function<HttpResponse(const HttpRequest&)>;

// Stateless across connections: one server may serve many connections,
// from many threads at once.
class HttpServer {
 public:
  explicit HttpServer(ServerHandler handler, ParserLimits limits = {})
      : handler_(std::move(handler)), limits_(limits) {}

  // Serves requests until EOF, close, no more buffered bytes, or a fatal
  // transport/parse error. Bytes read past the end of one request (a
  // pipelined next request) are carried into the next. Returns the
  // number of requests successfully handled.
  std::size_t serve(Connection& connection);

  // Handles at most one request already buffered in the connection;
  // bytes read past its end are dropped. Returns true if a request was
  // handled; false on EOF/no-data.
  util::Result<bool> handle_one(Connection& connection);

 private:
  // handle_one over `surplus`: unparsed bytes from the previous request
  // on entry, bytes past this request's end on exit.
  util::Result<bool> handle_one(Connection& connection, std::string& surplus);

  ServerHandler handler_;
  ParserLimits limits_;
};

}  // namespace w5::net
