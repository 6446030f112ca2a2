#include "util/metrics.h"

#include <algorithm>
#include <cctype>

namespace w5::util {

namespace {

// Family name for TYPE lines: the metric name with any {labels} stripped.
std::string_view family_of(const std::string& name) {
  const auto brace = name.find('{');
  return std::string_view(name).substr(
      0, brace == std::string::npos ? name.size() : brace);
}

// True when `text` starting at `pos` looks like the start of another
// label (`name=`): used to find a value's closing quote when the value
// itself contains quotes.
bool looks_like_label_start(std::string_view text, std::size_t pos) {
  std::size_t i = pos;
  while (i < text.size() &&
         (std::isalnum(static_cast<unsigned char>(text[i])) != 0 ||
          text[i] == '_')) {
    ++i;
  }
  return i > pos && i < text.size() && text[i] == '=';
}

void append_escaped_label_value(std::string& out, std::string_view value) {
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

}  // namespace

std::string prometheus_safe_name(const std::string& name) {
  const std::size_t open = name.find('{');
  if (open == std::string::npos || name.back() != '}') return name;
  const std::string_view inside(name.data() + open + 1,
                                name.size() - open - 2);
  std::string out = name.substr(0, open + 1);
  std::size_t i = 0;
  while (i < inside.size()) {
    // Label name up to '='.
    const std::size_t eq = inside.find('=', i);
    if (eq == std::string_view::npos || eq + 1 >= inside.size() ||
        inside[eq + 1] != '"') {
      // Not label="..." shaped — emit the tail escaped so a stray quote
      // or newline can never break the line structure.
      append_escaped_label_value(out, inside.substr(i));
      break;
    }
    out += inside.substr(i, eq + 2 - i);  // name="
    // The value's closing quote is the next '"' followed by either the
    // end of the block or a ',' that starts another label — so values
    // containing raw quotes still terminate at the right place.
    std::size_t j = eq + 2;
    std::size_t close = std::string_view::npos;
    while (j < inside.size()) {
      if (inside[j] == '"' &&
          (j + 1 == inside.size() ||
           (inside[j + 1] == ',' && looks_like_label_start(inside, j + 2)))) {
        close = j;
        break;
      }
      ++j;
    }
    if (close == std::string_view::npos) {
      append_escaped_label_value(out, inside.substr(eq + 2));
      out += '"';
      break;
    }
    append_escaped_label_value(out, inside.substr(eq + 2, close - (eq + 2)));
    out += '"';
    i = close + 1;
    if (i < inside.size() && inside[i] == ',') {
      out += ',';
      ++i;
    }
  }
  out += '}';
  return out;
}

Histogram::Histogram(std::vector<std::int64_t> bounds)
    : bounds_(std::move(bounds)),
      buckets_(bounds_.size() + 1),
      exemplars_(bounds_.size() + 1) {}

std::vector<std::int64_t> Histogram::default_latency_bounds() {
  return {25,    50,     100,    250,    500,     1000,    2500,   5000,
          10000, 25000,  50000,  100000, 250000,  500000,  1000000};
}

void Histogram::observe(std::int64_t value) noexcept {
#ifndef W5_NO_TELEMETRY
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto index =
      static_cast<std::size_t>(std::distance(bounds_.begin(), it));
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
#else
  (void)value;
#endif
}

void Histogram::observe_with_exemplar(std::int64_t value,
                                      std::string_view trace_ref) noexcept {
#ifndef W5_NO_TELEMETRY
  observe(value);
  if (trace_ref.empty()) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto index =
      static_cast<std::size_t>(std::distance(bounds_.begin(), it));
  // Best-effort: a scrape (or a racing observer) holding the lock means
  // this request's exemplar is simply not remembered.
  if (!exemplar_mutex_.try_lock()) return;
  exemplars_[index].ref.assign(trace_ref.data(), trace_ref.size());
  exemplars_[index].value = value;
  exemplar_mutex_.unlock();
#else
  (void)value;
  (void)trace_ref;
#endif
}

std::vector<Histogram::Exemplar> Histogram::exemplars() const {
  const MutexLock lock(exemplar_mutex_);
  return exemplars_;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

double Histogram::percentile(double p) const {
  const auto counts = bucket_counts();
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  if (total == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the target sample, 1-based; p=0 maps to the first sample.
  const double rank = std::max(1.0, p / 100.0 * static_cast<double>(total));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const std::uint64_t before = cumulative;
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < rank) continue;
    // The +Inf bucket has no finite upper edge; report the last finite
    // bound (the histogram cannot resolve beyond it).
    if (i >= bounds_.size())
      return bounds_.empty() ? 0 : static_cast<double>(bounds_.back());
    const double lower = i == 0 ? 0 : static_cast<double>(bounds_[i - 1]);
    const double upper = static_cast<double>(bounds_[i]);
    const double fraction =
        (rank - static_cast<double>(before)) / static_cast<double>(counts[i]);
    return lower + fraction * (upper - lower);
  }
  return bounds_.empty() ? 0 : static_cast<double>(bounds_.back());
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const MutexLock lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<std::int64_t> bounds) {
  const MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(
        bounds.empty() ? Histogram::default_latency_bounds()
                       : std::move(bounds));
  }
  return *slot;
}

std::string MetricsRegistry::to_prometheus() const {
  const MutexLock lock(mutex_);
  std::string out;
  out.reserve(4096);
  // last_family is a copy, not a view: a histogram's family points into
  // a per-series temporary that dies before the next series is rendered.
  const auto emit_type = [&out](std::string_view family,
                                std::string_view type,
                                std::string& last_family) {
    if (family == last_family) return;
    out += "# TYPE ";
    out += family;
    out += ' ';
    out += type;
    out += '\n';
    last_family.assign(family);
  };

  std::string last_family;
  for (const auto& [name, counter] : counters_) {
    emit_type(family_of(name), "counter", last_family);
    out += prometheus_safe_name(name);
    out += ' ';
    out += std::to_string(counter->value());
    out += '\n';
  }
  last_family.clear();
  for (const auto& [name, gauge] : gauges_) {
    emit_type(family_of(name), "gauge", last_family);
    out += prometheus_safe_name(name);
    out += ' ';
    out += std::to_string(gauge->value());
    out += '\n';
  }
  last_family.clear();
  for (const auto& [name, histogram] : histograms_) {
    const std::string safe = prometheus_safe_name(name);
    const std::string_view fam = family_of(safe);
    emit_type(fam, "histogram", last_family);
    // A labeled family ('w5_reactor_stage_micros{stage="parse"}') folds
    // its labels into every series so le= joins the existing block:
    //   w5_reactor_stage_micros_bucket{stage="parse",le="100"}.
    const bool labeled = safe.size() > fam.size();
    const std::string labels =  // '{stage="parse"' — reopened per line
        labeled ? safe.substr(fam.size(), safe.size() - fam.size() - 1)
                : std::string{};
    const auto counts = histogram->bucket_counts();
    const auto& bounds = histogram->bounds();
    const auto exemplars = histogram->exemplars();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      cumulative += counts[i];
      out += fam;
      out += "_bucket";
      out += labeled ? labels + ",le=\"" : "{le=\"";
      out += i < bounds.size() ? std::to_string(bounds[i]) : "+Inf";
      out += "\"} ";
      out += std::to_string(cumulative);
      // OpenMetrics-style exemplar: the bucket's most recent traced
      // observation, resolvable at /trace/:id.
      if (i < exemplars.size() && !exemplars[i].ref.empty()) {
        out += " # {trace_id=\"";
        append_escaped_label_value(out, exemplars[i].ref);
        out += "\"} ";
        out += std::to_string(exemplars[i].value);
      }
      out += '\n';
    }
    const auto emit_scalar = [&](std::string_view suffix, std::string v) {
      out += fam;
      out += suffix;
      if (labeled) {
        out += labels;
        out += '}';
      }
      out += ' ';
      out += v;
      out += '\n';
    };
    emit_scalar("_sum", std::to_string(histogram->sum()));
    emit_scalar("_count", std::to_string(histogram->count()));
  }
  return out;
}

Json MetricsRegistry::to_json() const {
  const MutexLock lock(mutex_);
  Json counters{JsonObject{}};
  for (const auto& [name, counter] : counters_)
    counters[name] = counter->value();
  Json gauges{JsonObject{}};
  for (const auto& [name, gauge] : gauges_) gauges[name] = gauge->value();
  Json histograms{JsonObject{}};
  for (const auto& [name, histogram] : histograms_) {
    Json entry;
    entry["count"] = histogram->count();
    entry["sum"] = histogram->sum();
    entry["p50"] = histogram->percentile(50);
    entry["p90"] = histogram->percentile(90);
    entry["p99"] = histogram->percentile(99);
    Json buckets = Json::array();
    const auto counts = histogram->bucket_counts();
    const auto& bounds = histogram->bounds();
    const auto exemplars = histogram->exemplars();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      Json bucket;
      bucket["le"] = i < bounds.size() ? Json(bounds[i]) : Json("+Inf");
      bucket["count"] = counts[i];
      if (i < exemplars.size() && !exemplars[i].ref.empty()) {
        Json exemplar;
        exemplar["trace_id"] = exemplars[i].ref;
        exemplar["value"] = exemplars[i].value;
        bucket["exemplar"] = std::move(exemplar);
      }
      buckets.push_back(std::move(bucket));
    }
    entry["buckets"] = std::move(buckets);
    histograms[name] = std::move(entry);
  }
  Json out;
  out["counters"] = std::move(counters);
  out["gauges"] = std::move(gauges);
  out["histograms"] = std::move(histograms);
  return out;
}

}  // namespace w5::util
