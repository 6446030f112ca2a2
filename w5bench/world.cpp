// The seeded world, the per-client request streams, and the response
// checks (README.md "Workloads" and "Correctness").
#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "util/json.h"
#include "w5bench.h"

namespace w5bench {

namespace {

// Sizes per workload; README.md "Data-set sizes" gives each one's reason
// and says which are assumptions. tcp_small_mix keeps every body under
// 300 bytes; inproc_bulk_read spreads its data over 64 owners so the flow
// memo sees many distinct label pairs; tcp_durable_write is one user per
// client, seeded with about 4096 records: half the WAL entries after
// which the compactor checkpoints (snapshot_every_entries = 8192), so the
// re-open in set-up replays the mean WAL tail a restart at defaults meets.
struct Shape {
  int owners;
  int photos_per_owner;
  bool big_photos;
  int notes_per_client;
  int uploads_per_client;
};

Shape shape_of(Workload workload) {
  switch (workload) {
    case Workload::kTcpSmallMix:
      return {16, 16, false, 32, 0};
    case Workload::kInprocBulkRead:
      return {64, 64, true, 0, 0};
    case Workload::kTcpDurableWrite:
      return {kClients, 4, false, 1000, 16};
  }
  return {};
}

constexpr std::size_t kBigPhotoBytes = 64 * 1024;

std::string two_digits(int n) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "%02d", n);
  return buf;
}

std::string random_text(Rng& rng, std::size_t min_len, std::size_t max_len) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz ";
  const std::size_t len = min_len + rng.below(max_len - min_len + 1);
  std::string out(len, ' ');
  for (auto& c : out) c = kAlphabet[rng.below(sizeof kAlphabet - 1)];
  return out;
}

// Canonical JSON: keys sorted, no whitespace, strings that need no
// escaping — the form util::Json::dump prints, so a read must return
// exactly the bytes written (checked once at seeding).
std::string photo_json(const std::string& caption, const std::string& title) {
  return R"({"caption":")" + caption + R"(","title":")" + title + R"("})";
}

std::string note_json(const std::string& canary, std::uint64_t seq,
                      const std::string& text) {
  return R"({"canary":")" + canary + R"(","seq":)" + std::to_string(seq) +
         R"(,"text":")" + text + R"("})";
}

std::string upload_json(const std::string& caption, std::uint64_t seq) {
  return R"({"caption":")" + caption + R"(","seq":)" + std::to_string(seq) +
         R"(,"title":"upload"})";
}

}  // namespace

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  return Rng(a ^ (b * 0xd1342543de82ef95ull)).next();
}

std::optional<Workload> workload_from_name(std::string_view name) {
  if (name == "tcp_small_mix") return Workload::kTcpSmallMix;
  if (name == "inproc_bulk_read") return Workload::kInprocBulkRead;
  if (name == "tcp_durable_write") return Workload::kTcpDurableWrite;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kTcpSmallMix: return "tcp_small_mix";
    case Workload::kInprocBulkRead: return "inproc_bulk_read";
    case Workload::kTcpDurableWrite: return "tcp_durable_write";
  }
  return "?";
}

bool over_tcp(Workload workload) {
  return workload != Workload::kInprocBulkRead;
}

World make_world(Workload workload, std::uint64_t seed) {
  const Shape shape = shape_of(workload);
  World world;
  world.workload = workload;
  world.seed = seed;
  world.notes_per_client = shape.notes_per_client;
  world.uploads_per_client = shape.uploads_per_client;
  Rng rng(mix64(seed, 7));

  for (int i = 0; i < shape.owners; ++i) {
    const std::string owner = "u" + two_digits(i);
    world.owners.push_back(owner);
    char hex[24];
    std::snprintf(hex, sizeof hex, "%08llx",
                  static_cast<unsigned long long>(rng.next() & 0xffffffffull));
    world.canary[owner] = "cnry-" + owner + "-" + hex;
    world.friend_list[owner];
  }

  // Friend lists. tcp_small_mix: every other owner befriends each client
  // with probability 1/2, with at least two friends and two strangers per
  // client; inproc_bulk_read: every owner befriends every client.
  world.friends.resize(kClients);
  world.strangers.resize(kClients);
  for (int c = 0; c < kClients; ++c) {
    const std::string& viewer = world.owners[c];
    for (int i = kClients; i < shape.owners; ++i) {
      const std::string& owner = world.owners[i];
      bool befriends = workload == Workload::kInprocBulkRead ||
                       rng.below(2) == 0;
      if (workload == Workload::kTcpSmallMix) {
        if (i < kClients + 2) befriends = true;
        if (i >= shape.owners - 2) befriends = false;
      }
      if (befriends) {
        world.friend_list[owner].insert(viewer);
        world.friends[c].push_back(owner);
      } else {
        world.strangers[c].push_back(owner);
      }
    }
    if (workload == Workload::kInprocBulkRead) {
      for (int other = 0; other < kClients; ++other) {
        if (other == c) continue;
        world.friend_list[world.owners[other]].insert(viewer);
        world.friends[c].push_back(world.owners[other]);
      }
    }
  }

  for (const std::string& owner : world.owners) {
    const std::string& canary = world.canary[owner];
    auto& ids = world.photo_ids[owner];
    for (int p = 0; p < shape.photos_per_owner; ++p) {
      const std::string id = owner + "-p" + two_digits(p);
      const std::string caption = canary + " " + random_text(rng, 16, 64);
      const std::string title = "photo " + two_digits(p);
      ids.push_back(id);
      world.photo_text[id] = {caption, title};
      world.records["photos/" + id] = photo_json(caption, title);
      world.record_owner["photos/" + id] = owner;
    }
    if (shape.big_photos) {
      const std::string key = "photos/" + owner + "-zbig";
      std::string pixels(kBigPhotoBytes, 'a');
      for (auto& c : pixels) c = static_cast<char>('a' + rng.below(26));
      world.records[key] = R"({"caption":")" + canary + R"( big","pixels":")" +
                           pixels + R"(","title":"big"})";
      world.record_owner[key] = owner;
    }
  }
  for (int c = 0; c < kClients; ++c) {
    const std::string& owner = world.owners[c];
    for (int n = 0; n < shape.notes_per_client; ++n) {
      const std::string key = "notes/" + owner + "-n" + two_digits(n);
      world.records[key] =
          note_json(world.canary[owner], 0, random_text(rng, 40, 200));
      world.record_owner[key] = owner;
    }
  }
  // The model compares reads byte for byte, so every seeded body must
  // already be in the form the provider prints back.
  for (const auto& [key, body] : world.records) {
    auto parsed = w5::util::Json::parse(body);
    if (!parsed.ok() || parsed.value().dump() != body)
      throw std::runtime_error("seed body of " + key +
                               " is not canonical JSON");
  }
  return world;
}

// ---- Generator ----------------------------------------------------------------

Generator::Generator(const World& world, int client)
    : world_(world),
      client_(client),
      viewer_(world.owners[client]),
      rng_(mix64(world.seed, 1000 + client)) {}

void Generator::reset() {
  rng_ = Rng(mix64(world_.seed, 1000 + client_));
  index_ = 0;
  last_write_.clear();
}

const std::string& Generator::body_of(const std::string& key) const {
  if (const auto it = written_.find(key); it != written_.end())
    return it->second;
  return world_.records.at(key);
}

Op Generator::photo_view(const std::string& id, const std::string& owner,
                         const char* mix) {
  Op op;
  op.kind = OpKind::kPhotoView;
  op.mix = mix;
  op.target = "/dev/photoco/photos/view?id=" + id;
  op.collection = "photos";
  op.record_id = id;
  op.subject = owner;
  const bool allowed =
      owner == viewer_ || world_.friend_list.at(owner).count(viewer_) != 0;
  if (allowed) {
    op.expect_body = body_of("photos/" + id);
  } else {
    op.expect_status = 403;
    op.expect_body = kDenialBody;
    op.denied = true;
  }
  return op;
}

Op Generator::data_get(const std::string& collection, const std::string& id,
                       const char* mix) {
  Op op;
  op.kind = OpKind::kDataGet;
  op.mix = mix;
  op.target = "/data/" + collection + "/" + id;
  op.collection = collection;
  op.record_id = id;
  op.subject = viewer_;
  op.expect_body = body_of(collection + "/" + id);
  return op;
}

Op Generator::data_put(const std::string& id) {
  Op op;
  op.kind = OpKind::kDataPut;
  op.mix = "note_put";
  op.method = Method::kPost;
  op.target = "/data/notes/" + id;
  op.collection = "notes";
  op.record_id = id;
  op.subject = viewer_;
  op.body = note_json(world_.canary.at(viewer_), index_, random_text(rng_, 40, 200));
  op.expect_status = 201;
  op.expect_body = R"({"ok":true})";
  written_["notes/" + id] = op.body;
  last_write_ = "notes/" + id;
  return op;
}

Op Generator::upload(const std::string& id) {
  Op op;
  op.kind = OpKind::kUpload;
  op.mix = "upload";
  op.method = Method::kPost;
  op.target = "/dev/photoco/photos/upload?id=" + id;
  op.collection = "photos";
  op.record_id = id;
  op.subject = viewer_;
  op.body = upload_json(
      world_.canary.at(viewer_) + " " + random_text(rng_, 16, 64), index_);
  op.expect_status = 201;
  op.expect_body = "uploaded\n";
  written_["photos/" + id] = op.body;
  last_write_ = "photos/" + id;
  return op;
}

// Full pages only: the cursor starts early enough that kPageRows rows
// follow it, so next_cursor always names the page's last row.
Op Generator::app_list(const std::string& subject, const char* mix) {
  const auto& ids = world_.photo_ids.at(subject);
  const std::size_t start = rng_.below(ids.size() - kPageRows + 1);
  Op op;
  op.kind = OpKind::kPhotoList;
  op.mix = mix;
  op.collection = "photos";
  op.subject = subject;
  op.cursor = start == 0 ? "" : "photos/" + ids[start - 1];
  op.target = "/dev/photoco/photos/list?limit=50";
  if (subject != viewer_) op.target += "&user=" + subject;
  if (!op.cursor.empty()) op.target += "&cursor=" + op.cursor;
  std::string rows;
  for (std::size_t i = start; i < start + kPageRows; ++i) {
    const auto& [caption, title] = world_.photo_text.at(ids[i]);
    if (!rows.empty()) rows += ",";
    rows += R"({"caption":")" + caption + R"(","id":")" + ids[i] +
            R"(","title":")" + title + R"("})";
  }
  op.expect_body = R"({"next_cursor":"photos/)" + ids[start + kPageRows - 1] +
                   R"(","photos":[)" + rows + R"(],"user":")" + subject +
                   R"("})";
  return op;
}

Op Generator::data_list(const char* mix) {
  const auto& ids = world_.photo_ids.at(viewer_);
  const std::size_t start = rng_.below(ids.size() - kPageRows + 1);
  Op op;
  op.kind = OpKind::kDataList;
  op.mix = mix;
  op.collection = "photos";
  op.subject = viewer_;
  op.cursor = start == 0 ? "" : "photos/" + ids[start - 1];
  op.target = "/data/photos?limit=50";
  if (!op.cursor.empty()) op.target += "&cursor=" + op.cursor;
  std::string rows;
  for (std::size_t i = start; i < start + kPageRows; ++i) {
    if (!rows.empty()) rows += ",";
    rows += R"({"data":)" + body_of("photos/" + ids[i]) + R"(,"id":")" +
            ids[i] + R"("})";
  }
  op.expect_body = R"({"items":[)" + rows + R"(],"next_cursor":"photos/)" +
                   ids[start + kPageRows - 1] + R"("})";
  return op;
}

Op Generator::next() {
  const auto pick = [this](const std::vector<std::string>& from) {
    return from[rng_.below(from.size())];
  };
  const int roll = static_cast<int>(rng_.below(100));
  Op op;
  switch (world_.workload) {
    case Workload::kTcpSmallMix: {
      const auto& own = world_.photo_ids.at(viewer_);
      const std::string note =
          viewer_ + "-n" +
          two_digits(static_cast<int>(rng_.below(world_.notes_per_client)));
      if (roll < 40) {
        op = photo_view(pick(own), viewer_, "own_view");
      } else if (roll < 60) {
        const std::string owner = pick(world_.friends[client_]);
        op = photo_view(pick(world_.photo_ids.at(owner)), owner,
                        "friend_view");
      } else if (roll < 70) {
        const std::string owner = pick(world_.strangers[client_]);
        op = photo_view(pick(world_.photo_ids.at(owner)), owner,
                        "stranger_view");
      } else if (roll < 90) {
        op = data_get("notes", note, "note_get");
      } else {
        op = data_put(note);
      }
      break;
    }
    case Workload::kInprocBulkRead: {
      if (roll < 35) {
        op = app_list(viewer_, "own_list");
      } else if (roll < 60) {
        op = app_list(pick(world_.friends[client_]), "friend_list");
      } else if (roll < 85) {
        op = data_list("data_list");
      } else {
        const std::string owner =
            rng_.below(2) == 0 ? viewer_ : pick(world_.friends[client_]);
        op = photo_view(owner + "-zbig", owner, "big_view");
      }
      break;
    }
    case Workload::kTcpDurableWrite: {
      if (roll < 70) {
        op = data_put(viewer_ + "-n" +
                      two_digits(static_cast<int>(
                          rng_.below(world_.notes_per_client))));
      } else if (roll < 90) {
        op = upload(viewer_ + "-up" +
                    two_digits(static_cast<int>(
                        rng_.below(world_.uploads_per_client))));
      } else if (last_write_.starts_with("photos/")) {
        op = photo_view(last_write_.substr(7), viewer_, "read_back");
      } else {
        const std::string key =
            last_write_.empty() ? "notes/" + viewer_ + "-n00" : last_write_;
        op = data_get("notes", key.substr(6), "read_back");
      }
      break;
    }
  }
  ++index_;
  return op;
}

std::uint64_t stream_hash(const World& world, int count) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto feed = [&hash](std::string_view bytes) {
    for (const char c : bytes) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ull;
    }
    hash ^= 0xff;
    hash *= 0x100000001b3ull;
  };
  for (int c = 0; c < kClients; ++c) {
    Generator generator(world, c);
    for (int i = 0; i < count; ++i) {
      const Op op = generator.next();
      feed(w5::net::to_string(op.method));
      feed(op.target);
      feed(op.body);
    }
  }
  return hash;
}

std::string check_response(const Op& op, int status, const std::string& body) {
  if (status != op.expect_status) {
    return "status " + std::to_string(status) + ", want " +
           std::to_string(op.expect_status);
  }
  if (body == op.expect_body) return "";
  std::size_t at = 0;
  while (at < body.size() && at < op.expect_body.size() &&
         body[at] == op.expect_body[at])
    ++at;
  return "body differs at byte " + std::to_string(at) + " (" +
         std::to_string(body.size()) + " bytes, want " +
         std::to_string(op.expect_body.size()) + ")";
}

std::string find_leak(const World& world, const std::string& viewer,
                      const std::string& body) {
  static constexpr std::string_view kMarker = "cnry-";
  for (std::size_t at = body.find(kMarker); at != std::string::npos;
       at = body.find(kMarker, at + kMarker.size())) {
    const std::size_t from = at + kMarker.size();
    const std::size_t end = body.find('-', from);
    if (end == std::string::npos) continue;
    const std::string owner = body.substr(from, end - from);
    if (owner == viewer) continue;
    const auto it = world.friend_list.find(owner);
    if (it == world.friend_list.end() || it->second.count(viewer) == 0)
      return owner;
  }
  return "";
}

}  // namespace w5bench
