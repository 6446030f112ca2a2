#include "core/statusz.h"

#include <atomic>
#include <string>

#include "core/provider.h"
#include "store/durable_store.h"

namespace w5::platform {

namespace {

util::Json from_u64(std::uint64_t v) {
  return util::Json(static_cast<std::int64_t>(v));
}

util::Json build_section() {
  util::Json build = util::Json::object();
  build["compiled"] = std::string(__DATE__) + " " + __TIME__;
#ifdef NDEBUG
  build["optimized"] = true;
#else
  build["optimized"] = false;
#endif
#ifdef W5_NO_TELEMETRY
  build["telemetry"] = false;
#else
  build["telemetry"] = true;
#endif
  return build;
}

util::Json serving_section(Provider& provider) {
  const ProviderConfig& config = provider.config();
  util::Json serving = util::Json::object();
  serving["io_threads"] = from_u64(config.io_threads);
  serving["slow_request_micros"] = config.slow_request_micros;
  const net::ServerStats& stats = provider.server_stats();
  util::Json requests = util::Json::object();
  requests["handled"] = from_u64(stats.handled_total.load());
  requests["reaped"] = from_u64(stats.reaped_total.load());
  requests["rejected_413"] = from_u64(stats.rejected_413_total.load());
  requests["rejected_431"] = from_u64(stats.rejected_431_total.load());
  serving["requests"] = std::move(requests);
  util::Json connections = util::Json::object();
  connections["open"] = stats.open.load();
  connections["idle"] = stats.idle.load();
  connections["accepted"] = from_u64(stats.accepted_total.load());
  connections["resets"] = from_u64(stats.reset_total.load());
  serving["connections"] = std::move(connections);
  return serving;
}

util::Json reactor_section(Provider& provider) {
  util::Json loops = util::Json::array();
  for (const net::LoopStats& stats : provider.reactor_loop_stats()) {
    util::Json loop = util::Json::object();
    loop["connections"] = stats.connections.load(std::memory_order_relaxed);
    loop["epoll_wakeups"] =
        from_u64(stats.epoll_wakeups.load(std::memory_order_relaxed));
    loop["epoll_events"] =
        from_u64(stats.epoll_events.load(std::memory_order_relaxed));
    loop["mailbox_items"] =
        from_u64(stats.mailbox_items.load(std::memory_order_relaxed));
    loop["timer_fires"] =
        from_u64(stats.timer_fires.load(std::memory_order_relaxed));
    loop["requests"] = from_u64(stats.requests.load(std::memory_order_relaxed));
    loops.push_back(std::move(loop));
  }
  return loops;
}

util::Json durability_section(Provider& provider) {
  util::Json durability = util::Json::object();
  durability["enabled"] = provider.config().durability.enabled;
  durability["active"] = provider.durable() != nullptr;
  if (!provider.durability_status().ok())
    durability["error"] = provider.durability_status().error().code;
  const auto& recovery = provider.recovery_stats();
  util::Json recovered = util::Json::object();
  recovered["snapshot_loaded"] = recovery.snapshot_loaded;
  recovered["replayed_entries"] = from_u64(recovery.replayed_entries);
  recovered["last_seq"] = from_u64(recovery.last_seq);
  recovered["tail_torn"] = recovery.tail_torn;
  recovered["truncated_bytes"] = from_u64(recovery.truncated_bytes);
  recovered["recovery_micros"] = recovery.recovery_micros;
  durability["recovery"] = std::move(recovered);
  return durability;
}

// Per-peer circuit breaker states, scraped from the gauges fed::Node
// maintains (w5_fed_breaker_state{peer="..."}: 0 closed, 1 open,
// 2 half-open). Scanning the registry keeps statusz decoupled from the
// federation layer — a provider that never federates just shows {}.
util::Json breakers_section(Provider& provider) {
  util::Json breakers = util::Json::object();
  static constexpr std::string_view kPrefix = "w5_fed_breaker_state{peer=\"";
  const util::Json metrics = provider.metrics().to_json();
  for (const auto& [name, value] : metrics.at("gauges").as_object()) {
    if (!std::string_view(name).starts_with(kPrefix)) continue;
    std::string peer = name.substr(kPrefix.size());
    const std::size_t quote = peer.find('"');
    if (quote != std::string::npos) peer.resize(quote);
    const std::int64_t state = value.as_int();
    breakers[peer] = state == 0   ? "closed"
                     : state == 1 ? "open"
                                  : "half_open";
  }
  return breakers;
}

// Query-engine health (DESIGN.md §17): planner path mix, label-group
// skip ratio, index inventory, and the §3.5 governor posture — all from
// the record-free QueryEngineStats struct, so this page stays one
// include away from counters, never from record bytes.
util::Json query_engine_section(Provider& provider) {
  const store::QueryEngineStats stats = provider.store().query_stats();
  util::Json plans = util::Json::object();
  plans["field_index"] = from_u64(stats.plans_field);
  plans["owner_index"] = from_u64(stats.plans_owner);
  plans["label_scan"] = from_u64(stats.plans_scan);
  util::Json groups = util::Json::object();
  groups["checked"] = from_u64(stats.label_groups_checked);
  groups["skipped"] = from_u64(stats.label_groups_skipped);
  util::Json indexes = util::Json::object();
  indexes["registered"] = static_cast<std::int64_t>(stats.registered_indexes);
  indexes["field_postings"] = static_cast<std::int64_t>(stats.field_postings);
  indexes["label_postings"] = static_cast<std::int64_t>(stats.label_postings);
  indexes["owner_postings"] = static_cast<std::int64_t>(stats.owner_postings);
  util::Json governor = util::Json::object();
  governor["count_quantum"] = static_cast<std::int64_t>(stats.count_quantum);
  governor["budget_queries"] = from_u64(stats.budget_queries);
  governor["admitted"] = from_u64(stats.queries_admitted);
  governor["denied"] = from_u64(stats.queries_denied);
  governor["principals"] = static_cast<std::int64_t>(stats.budget_principals);
  util::Json engine = util::Json::object();
  engine["plans"] = std::move(plans);
  engine["label_groups"] = std::move(groups);
  engine["indexes"] = std::move(indexes);
  engine["governor"] = std::move(governor);
  engine["cursor_resumes"] = from_u64(stats.cursor_resumes);
  return engine;
}

// Federation health (DESIGN.md §18): sync rounds/records/retries and
// the metasearch fan-out posture, scraped from the w5_fed_* metrics
// fed::Node and fed::Metasearch maintain. Like breakers_section, the
// registry scrape keeps statusz decoupled from fed/ — counts and states
// only, never record bytes (§3.5).
util::Json fed_section(Provider& provider) {
  const util::Json metrics = provider.metrics().to_json();
  const util::Json& counters = metrics.at("counters");
  const auto counter = [&](const std::string& name) {
    return from_u64(static_cast<std::uint64_t>(counters.at(name).as_int(0)));
  };
  util::Json sync = util::Json::object();
  sync["rounds_ok"] = counter("w5_fed_sync_rounds_total{result=\"ok\"}");
  sync["rounds_error"] = counter("w5_fed_sync_rounds_total{result=\"error\"}");
  util::Json records = util::Json::object();
  for (const char* kind : {"offered", "applied", "skipped", "conflicts"}) {
    records[kind] = counter(std::string("w5_fed_sync_records_total{kind=\"") +
                            kind + "\"}");
  }
  sync["records"] = std::move(records);
  // Per-peer retry/backoff posture rides the peer-labelled metrics.
  util::Json retries = util::Json::object();
  static constexpr std::string_view kRetryPrefix =
      "w5_fed_sync_retries_total{peer=\"";
  for (const auto& [name, value] : counters.as_object()) {
    if (!std::string_view(name).starts_with(kRetryPrefix)) continue;
    std::string peer = name.substr(kRetryPrefix.size());
    const std::size_t quote = peer.find('"');
    if (quote != std::string::npos) peer.resize(quote);
    retries[peer] = value;
  }
  sync["retries"] = std::move(retries);

  util::Json metasearch = util::Json::object();
  metasearch["fanouts"] = counter("w5_fed_query_fanouts_total");
  metasearch["partial"] = counter("w5_fed_query_partial_total");
  metasearch["served"] = counter("w5_fed_query_served_total");
  metasearch["dedup_dropped"] = counter("w5_fed_query_dedup_dropped_total");
  metasearch["records_merged"] = counter("w5_fed_query_records_merged_total");
  util::Json peer_results = util::Json::object();
  for (const char* result : {"ok", "timeout", "error", "breaker_open"}) {
    peer_results[result] =
        counter(std::string("w5_fed_query_peer_results_total{result=\"") +
                result + "\"}");
  }
  metasearch["peer_results"] = std::move(peer_results);

  util::Json fed = util::Json::object();
  fed["sync"] = std::move(sync);
  fed["metasearch"] = std::move(metasearch);
  return fed;
}

util::Json tracing_section(Provider& provider) {
  util::Json tracing = util::Json::object();
  tracing["traces_recorded"] = from_u64(provider.traces().recorded());
  tracing["traces_held"] = from_u64(provider.traces().size());
  tracing["spans_dropped"] = from_u64(provider.traces().dropped());
  tracing["slowlog_recorded"] = from_u64(provider.flight_recorder().recorded());
  tracing["slowlog_held"] = from_u64(provider.flight_recorder().size());
  return tracing;
}

util::Json audit_section(Provider& provider) {
  const AuditLog& log = provider.audit();
  util::Json audit = util::Json::object();
  audit["events_retained"] = from_u64(log.size());
  audit["bytes_retained"] = from_u64(log.bytes());
  audit["byte_budget"] = from_u64(log.byte_budget());
  audit["events_dropped"] = from_u64(log.dropped());
  return audit;
}

}  // namespace

util::Json build_statusz(Provider& provider) {
  util::Json out = util::Json::object();
  out["provider"] = provider.config().name;
  out["build"] = build_section();
  out["serving"] = serving_section(provider);
  out["reactor_loops"] = reactor_section(provider);
  out["durability"] = durability_section(provider);
  out["fed_breakers"] = breakers_section(provider);
  out["fed"] = fed_section(provider);
  out["query_engine"] = query_engine_section(provider);
  out["tracing"] = tracing_section(provider);
  out["audit"] = audit_section(provider);
  return out;
}

}  // namespace w5::platform
