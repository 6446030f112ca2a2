// Supplemental — JSON substrate throughput (every record body, policy,
// snapshot, and federation message rides on it).
#include <benchmark/benchmark.h>

#include "util/json.h"
#include "util/rng.h"

namespace {

using w5::util::Json;

Json make_document(std::size_t records, w5::util::Rng& rng) {
  Json array = Json::array();
  for (std::size_t i = 0; i < records; ++i) {
    Json record;
    record["id"] = "r" + std::to_string(i);
    record["title"] = rng.next_string(24);
    record["rating"] = static_cast<int>(rng.next_below(6));
    record["tags"] = Json::array(
        {Json(rng.next_string(6)), Json(rng.next_string(6))});
    Json nested;
    nested["width"] = 640;
    nested["height"] = 480;
    record["meta"] = std::move(nested);
    array.push_back(std::move(record));
  }
  Json doc;
  doc["records"] = std::move(array);
  return doc;
}

void dump_loop(benchmark::State& state, const Json& doc) {
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = doc.dump();
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}

void BM_JsonDump(benchmark::State& state) {
  w5::util::Rng rng(1);
  dump_loop(state, make_document(static_cast<std::size_t>(state.range(0)),
                                 rng));
}
BENCHMARK(BM_JsonDump)->Arg(10)->Arg(100)->Arg(1000);

// The 64 KiB photo body of w5bench's inproc_bulk_read view: one long
// string with nothing to escape, where the escape's per-byte cost is all
// there is.
void BM_JsonDumpBigString(benchmark::State& state) {
  w5::util::Rng rng(5);
  std::string pixels(64 * 1024, 'a');
  for (char& c : pixels) c = static_cast<char>('a' + rng.next_below(26));
  Json doc;
  doc["caption"] = "big";
  doc["pixels"] = std::move(pixels);
  doc["title"] = "big";
  dump_loop(state, doc);
}
BENCHMARK(BM_JsonDumpBigString);

// A 50-row photos-app list page, shaped like the one the photos app
// prints: short keys, a 16–64 byte caption per row.
void BM_JsonDumpPhotoList(benchmark::State& state) {
  w5::util::Rng rng(6);
  Json photos = Json::array();
  for (int i = 0; i < 50; ++i) {
    Json item;
    item["id"] = "u07-p" + std::to_string(10 + i);
    item["title"] = "photo " + std::to_string(10 + i);
    item["caption"] = "cnry-u07-1a2b3c4d " +
                      rng.next_string(16 + rng.next_below(49));
    photos.push_back(std::move(item));
  }
  Json doc;
  doc["user"] = "u07";
  doc["photos"] = std::move(photos);
  doc["next_cursor"] = "photos/u07-p59";
  dump_loop(state, doc);
}
BENCHMARK(BM_JsonDumpPhotoList);

void BM_JsonParse(benchmark::State& state) {
  w5::util::Rng rng(2);
  const std::string text =
      make_document(static_cast<std::size_t>(state.range(0)), rng).dump();
  for (auto _ : state) {
    auto parsed = Json::parse(text);
    if (!parsed.ok()) state.SkipWithError("parse failed");
    benchmark::DoNotOptimize(parsed.value());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_JsonParse)->Arg(10)->Arg(100)->Arg(1000);

void BM_JsonCopyOnWrite(benchmark::State& state) {
  w5::util::Rng rng(3);
  const Json doc = make_document(100, rng);
  for (auto _ : state) {
    Json copy = doc;  // O(1) shared copy
    benchmark::DoNotOptimize(copy.at("records"));
  }
}
BENCHMARK(BM_JsonCopyOnWrite);

void BM_JsonMutateAfterCopy(benchmark::State& state) {
  w5::util::Rng rng(4);
  const Json doc = make_document(100, rng);
  for (auto _ : state) {
    Json copy = doc;
    copy["extra"] = 1;  // triggers the object-level copy
    benchmark::DoNotOptimize(copy.at("extra"));
  }
}
BENCHMARK(BM_JsonMutateAfterCopy);

}  // namespace
