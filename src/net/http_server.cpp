#include "net/http_server.h"

#include "net/tracing.h"
#include "util/strings.h"

namespace w5::net {

namespace {

// Answers an early exit (400/408/413/431) and closes. The response echoes
// a validated X-W5-Trace from the partially parsed headers, so the
// caller's trace shows where the hop died.
void reject(Connection& connection, int status, std::string body,
            const Headers& parsed_headers) {
  HttpResponse response = HttpResponse::text(status, std::move(body));
  response.headers.set("Connection", "close");
  stamp_trace_echo(response, parsed_headers);
  (void)connection.write(response.to_wire());
  connection.close();
}

}  // namespace

util::Result<bool> HttpServer::handle_one(Connection& connection) {
  std::string surplus;
  return handle_one(connection, surplus);
}

util::Result<bool> HttpServer::handle_one(Connection& connection,
                                          std::string& surplus) {
  RequestParser parser(limits_);
  bool got_bytes = !surplus.empty();
  if (got_bytes) surplus.erase(0, parser.feed(surplus));
  char buf[8192];
  while (!parser.complete() && !parser.failed()) {
    auto n = connection.read(buf, sizeof(buf));
    if (!n.ok()) {
      if (n.error().code == "net.timeout") {
        // The transport gave up (an injected drop): nothing further will
        // arrive. A client mid-request is told why; an idle keep-alive
        // connection is just closed (nothing was asked, nothing is owed).
        if (got_bytes) {
          reject(connection, 408, "request timeout\n",
                 parser.parsed_headers());
        } else {
          connection.close();
        }
        return util::make_error("http.timeout", "client stalled past deadline");
      }
      if (n.error().code == "net.would_block") {
        if (!got_bytes) return false;  // idle connection, nothing to do
        // Partial request with no more bytes available: with a
        // single-threaded in-memory transport this cannot resolve.
        reject(connection, 400, "incomplete request\n",
               parser.parsed_headers());
        return util::make_error("http.incomplete", "request truncated");
      }
      return n.error();
    }
    if (n.value() == 0) {
      if (!got_bytes) return false;  // clean EOF between requests
      reject(connection, 400, "truncated request\n", parser.parsed_headers());
      return util::make_error("http.incomplete", "EOF mid-request");
    }
    got_bytes = true;
    const std::string_view data(buf, n.value());
    surplus.append(data.substr(parser.feed(data)));
  }

  if (parser.failed()) {
    // 431: header block over budget; 413: declared body over budget;
    // anything else is a plain parse failure.
    int status = 400;
    if (parser.error().code == "http.too_large") status = 413;
    if (parser.error().code == "http.headers_too_large") status = 431;
    reject(connection, status, parser.error().code + "\n",
           parser.parsed_headers());
    return parser.error();
  }

  HttpRequest request = parser.take();
  const bool keep_alive =
      !util::iequals(request.headers.get("Connection").value_or(""), "close");
  HttpResponse response = handler_(request);
  if (!keep_alive) response.headers.set("Connection", "close");
  if (auto written = connection.write(response.to_wire()); !written.ok())
    return written.error();
  if (!keep_alive) connection.close();
  return true;
}

std::size_t HttpServer::serve(Connection& connection) {
  std::string surplus;
  std::size_t handled = 0;
  while (!connection.closed()) {
    auto result = handle_one(connection, surplus);
    if (!result.ok() || !result.value()) break;
    ++handled;
  }
  return handled;
}

}  // namespace w5::net
