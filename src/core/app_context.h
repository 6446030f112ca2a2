// AppContext: the complete system-call surface of a W5 application.
//
// Developer code is untrusted (paper §3.1: "Bad developers might upload
// applications designed to steal data..."). A module receives exactly one
// handle — this context — and every method routes through the kernel's
// label checks under the request's Pid. There is no other way for app
// code to touch the store, the filesystem, or the outside world, which is
// what makes the perimeter a perimeter.
#pragma once

#include <functional>
#include <string>

#include "core/provider.h"
#include "net/http.h"
#include "net/router.h"
#include "os/filesystem.h"
#include "os/kernel.h"
#include "store/labeled_store.h"
#include "store/query.h"
#include "util/result.h"

namespace w5::platform {

struct Module;

// Simulated external internet (Google Maps API, a developer's own
// server, ...). The gateway wires in a fake; the security property under
// test is that *contaminated* processes cannot reach it at all.
using ExternalFetcher =
    std::function<util::Result<std::string>(const std::string& url)>;

class AppContext {
 public:
  AppContext(Provider& provider, os::Pid pid, const Module& module,
             std::string viewer, const net::HttpRequest& request,
             net::RouteParams params);

  // ---- Request surface ------------------------------------------------------
  const net::HttpRequest& request() const noexcept { return request_; }
  const net::RouteParams& params() const noexcept { return params_; }
  // The authenticated requesting user ("" when anonymous). Public
  // information: identity, not data.
  const std::string& viewer() const noexcept { return viewer_; }
  const Module& module() const noexcept { return module_; }
  os::Pid pid() const noexcept { return pid_; }

  std::string param(const std::string& name,
                    const std::string& fallback = {}) const;
  std::string query_param(const std::string& name,
                          const std::string& fallback = {}) const;

  // ---- Structured data (labeled store) --------------------------------------
  util::Result<store::Record> get_record(const std::string& collection,
                                         const std::string& id);
  // Scans stamp options.principal with the module id before they reach
  // the store, so the §3.5 per-principal query budget meters the *app*,
  // not whatever identity the app claims.
  util::Result<std::vector<store::Record>> query(
      const std::string& collection, const store::QueryOptions& options = {});
  // Cursor pagination: feed page.next_cursor back via options.cursor to
  // resume without offset re-scans (see store::QueryPage).
  util::Result<store::QueryPage> query_page(
      const std::string& collection, const store::QueryOptions& options = {});
  util::Result<std::size_t> count(const std::string& collection,
                                  const store::QueryOptions& options = {});
  util::Status put_record(store::Record record);
  util::Status remove_record(const std::string& collection,
                             const std::string& id);

  // Builds a record carrying `owner`'s standard labels
  // (Provider::record_labels).
  util::Result<store::Record> make_user_record(const std::string& owner,
                                               const std::string& collection,
                                               const std::string& id,
                                               util::Json data) const;

  // ---- Files (labeled filesystem) --------------------------------------------
  util::Result<std::string> read_file(const std::string& path);
  util::Status write_file(const std::string& path, std::string content);
  util::Status create_file(const std::string& path,
                           const difc::ObjectLabels& labels,
                           std::string content);

  // ---- Label introspection ---------------------------------------------------
  // Labels are not secret; apps may inspect their own contamination.
  difc::Label current_secrecy() const;

  // ---- Federated metasearch (DESIGN.md §18) ----------------------------------
  // One scatter/gather query across every provider the viewer consented
  // to mirror with, via the FederatedSearchFn seam (apps never touch
  // fed/ directly — the layering DAG has no apps→fed edge). The local
  // store leg runs under THIS pid, so the usual read rule contaminates
  // the app with what it saw; remote legs are gated by each peer's
  // mirror declassifier. The query principal is stamped with the module
  // id so the §3.5 budget meters the app. Fails with fed.not_configured
  // when the provider does not federate.
  util::Result<FederatedPage> federated_search(FederatedQuery query);

  // ---- The outside world -----------------------------------------------------
  // Outbound call past the perimeter. Checked: a process whose secrecy
  // label is non-empty holds no export privilege, so the call is denied —
  // the paper's mashup argument (§4): the address book page can never be
  // transmitted back to the map developer's servers.
  util::Result<std::string> fetch_external(const std::string& url);

  // ---- Module composition ----------------------------------------------------
  // Invokes another module in-process (paper §2: the platform API covers
  // "communication with other modules"; §1: compose "developer A's photo
  // cropping module and developer B's labeling module"). The callee runs
  // under the SAME pid — contamination it picks up sticks to this
  // request, so composition cannot launder labels. `rest` becomes the
  // callee's sub-route; `query` its query string. Depth-limited.
  util::Result<net::HttpResponse> call_module(const std::string& developer,
                                              const std::string& app,
                                              const std::string& rest = {},
                                              const std::string& query = {});

  // ---- Resources ---------------------------------------------------------------
  util::Status charge(os::Resource resource, std::int64_t amount);

 private:
  Provider& provider_;
  os::Pid pid_;
  const Module& module_;
  std::string viewer_;
  const net::HttpRequest& request_;
  net::RouteParams params_;
  int call_depth_ = 0;
};

}  // namespace w5::platform
