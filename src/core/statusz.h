// /debug/statusz: one JSON page answering "what is this provider doing
// right now" (DESIGN.md §16) — build info, serving config, per-loop
// reactor counters, durability plane state, per-peer federation breaker
// states, and trace-buffer health. Aggregation only: every number here
// already exists elsewhere (metrics, stats structs, durability status);
// statusz is the operator's single front door, not a new data source.
//
// DIFC invariant (§3.5): everything on this page is infrastructure
// state — names, counts, states — never user data bytes.
#pragma once

#include "util/json.h"

namespace w5::platform {

class Provider;

util::Json build_statusz(Provider& provider);

}  // namespace w5::platform
