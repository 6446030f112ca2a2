// Photo sharing + the independently developed crop module.
#include <algorithm>

#include "apps/apps.h"
#include "core/app_context.h"
#include "util/strings.h"

namespace w5::apps {

using platform::AppContext;
using platform::Module;
using net::HttpResponse;

namespace {

// Sub-route inside the app: the wildcard "rest" route param.
std::string action_of(const AppContext& ctx) {
  return ctx.param("rest", "list");
}

HttpResponse photo_handler(AppContext& ctx) {
  const std::string action = action_of(ctx);
  const std::string subject = ctx.query_param("user", ctx.viewer());

  if (action == "list" || action.empty()) {
    // Cursor pagination: page through the owner index without offset
    // re-scans; clients pass next_cursor back as ?cursor=.
    store::QueryOptions options;
    options.owner = subject;
    options.limit = static_cast<std::size_t>(
        std::clamp(util::parse_i64(ctx.query_param("limit", "20"))
                       .value_or(20),
                   std::int64_t{1}, std::int64_t{100}));
    options.cursor = ctx.query_param("cursor");
    auto photos = ctx.query_page("photos", options);
    if (!photos.ok()) {
      return HttpResponse::text(
          photos.error().code == "store.bad_cursor" ? 400 : 500,
          photos.error().code);
    }
    // Appended in the key order a util::Json object dumps, so the bytes
    // are the tree's without building one per row.
    const store::QueryPage& page = photos.value();
    std::string body;
    body.reserve(64 + subject.size() + page.records.size() * 192);
    body.append("{\"next_cursor\":");
    util::json_escape(page.next_cursor, body);
    body.append(",\"photos\":[");
    for (const auto& record : page.records) {
      if (&record != &page.records.front()) body.push_back(',');
      body.append("{\"caption\":");
      record.data.at("caption").dump_to(body);
      body.append(",\"id\":");
      util::json_escape(record.id, body);
      body.append(",\"title\":");
      record.data.at("title").dump_to(body);
      body.push_back('}');
    }
    body.append("],\"user\":");
    util::json_escape(subject, body);
    body.push_back('}');
    return HttpResponse::json(200, std::move(body));
  }

  if (action == "everywhere") {
    // The federated view: this user's photos from every provider they
    // consented to mirror with, one merged ranked stream. The app only
    // sees the seam — the consent gate, cutoff, and merge live in the
    // platform (DESIGN.md §18) — and the local leg contaminates this
    // request like any other read.
    if (ctx.viewer().empty()) return HttpResponse::text(401, "login\n");
    platform::FederatedQuery query;
    query.collection = "photos";
    query.terms = ctx.query_param("q");
    query.facets = util::split_nonempty(ctx.query_param("facets"), ',');
    query.cursor = ctx.query_param("cursor");
    query.limit = static_cast<std::size_t>(
        std::clamp(util::parse_i64(ctx.query_param("limit", "20"))
                       .value_or(20),
                   std::int64_t{1}, std::int64_t{100}));
    auto page = ctx.federated_search(std::move(query));
    if (!page.ok()) {
      if (page.error().code == "fed.not_configured")
        return HttpResponse::text(503, page.error().code);
      return HttpResponse::text(
          page.error().code == "fed.bad_cursor" ? 400 : 403,
          page.error().code);
    }
    util::Json body = page.value().body;
    body["user"] = ctx.viewer();
    return HttpResponse::json(200, body.dump());
  }

  if (action == "view") {
    auto record = ctx.get_record("photos", ctx.query_param("id"));
    if (!record.ok()) return HttpResponse::text(404, "no such photo\n");
    return HttpResponse::json(200, record.value().data.dump());
  }

  if (action == "upload" && ctx.request().method == net::Method::kPost) {
    if (ctx.viewer().empty()) return HttpResponse::text(401, "login\n");
    auto data = util::Json::parse(ctx.request().body);
    if (!data.ok()) return HttpResponse::text(400, "body must be JSON\n");
    auto record = ctx.make_user_record(ctx.viewer(), "photos",
                                       ctx.query_param("id"),
                                       std::move(data).value());
    if (!record.ok()) return HttpResponse::text(400, record.error().code);
    auto written = ctx.put_record(std::move(record).value());
    if (!written.ok()) return HttpResponse::text(403, written.error().code);
    return HttpResponse::text(201, "uploaded\n");
  }

  if (action == "caption" && ctx.request().method == net::Method::kPost) {
    auto record = ctx.get_record("photos", ctx.query_param("id"));
    if (!record.ok()) return HttpResponse::text(404, "no such photo\n");
    record.value().data["caption"] = ctx.request().body;
    auto written = ctx.put_record(record.value());
    if (!written.ok()) return HttpResponse::text(403, written.error().code);
    return HttpResponse::text(200, "captioned\n");
  }

  return HttpResponse::text(404, "unknown photo action\n");
}

// "Cropping" a JSON photo: trims the pixels array to the given rectangle.
// The interesting part is not the arithmetic — it is that a *different
// developer's* module edits the same record, gated by the same wp tag.
HttpResponse crop_handler(AppContext& ctx) {
  auto record = ctx.get_record("photos", ctx.query_param("id"));
  if (!record.ok()) return HttpResponse::text(404, "no such photo\n");

  const auto w = util::parse_i64(ctx.query_param("w", "0")).value_or(0);
  const auto h = util::parse_i64(ctx.query_param("h", "0")).value_or(0);
  if (w <= 0 || h <= 0) return HttpResponse::text(400, "w and h required\n");

  const util::Json& pixels = record.value().data.at("pixels");
  util::Json cropped = util::Json::array();
  std::int64_t row = 0;
  for (const auto& line : pixels.as_array()) {
    if (row++ >= h) break;
    cropped.push_back(line.as_string().substr(
        0, static_cast<std::size_t>(w)));
  }
  record.value().data["pixels"] = std::move(cropped);
  record.value().data["cropped"] = true;

  auto written = ctx.put_record(record.value());
  if (!written.ok()) return HttpResponse::text(403, written.error().code);
  return HttpResponse::json(200, record.value().data.dump());
}

}  // namespace

platform::Module make_photo_app(const std::string& developer,
                                const std::string& version) {
  Module module;
  module.developer = developer;
  module.name = "photos";
  module.version = version;
  module.manifest.description =
      "photo sharing: list/view/upload/caption over labeled records";
  module.manifest.open_source = true;
  module.manifest.source = "photo_app source v" + version;
  module.handler = photo_handler;
  return module;
}

platform::Module make_crop_app(const std::string& developer,
                               const std::string& version) {
  Module module;
  module.developer = developer;
  module.name = "crop";
  module.version = version;
  module.manifest.description = "photo cropping module";
  module.manifest.open_source = true;
  module.manifest.source = "crop source v" + version;
  module.manifest.imports = {"photoco/photos@1.0"};
  module.handler = crop_handler;
  return module;
}

}  // namespace w5::apps
