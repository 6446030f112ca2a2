// Endpoints (Flume §3.3): the seam where a process meets a channel.
//
// A process p communicates through endpoints. An endpoint e carries its
// own labels (S_e, I_e); e is *safe* for p iff p could legally change its
// labels to e's — so privilege in O_p can be exercised at a single channel
// (a declassifier's export socket) without globally lowering p's label.
// Messages between two endpoints are checked with endpoint labels. Owners
// are Authority views, so Ô counts without being merged in.
#pragma once

#include <string>

#include "difc/flow.h"
#include "difc/label_state.h"

namespace w5::difc {

class Endpoint {
 public:
  // Modes mirror Flume's endpoint variants plus Asbestos-style auto-raise
  // for reader ergonomics (DESIGN.md §3.1):
  //   kFixed     — endpoint labels used exactly as given.
  //   kAutoRaise — on receive, S_e floats up to admit the incoming
  //                message when the raise is safe for the owner.
  enum class Mode { kFixed, kAutoRaise };

  Endpoint() = default;
  Endpoint(Label secrecy, Label integrity, Mode mode = Mode::kFixed)
      : secrecy_(std::move(secrecy)),
        integrity_(std::move(integrity)),
        mode_(mode) {}

  const Label& secrecy() const noexcept { return secrecy_; }
  const Label& integrity() const noexcept { return integrity_; }
  Mode mode() const noexcept { return mode_; }

  // Safety: the owner could re-label itself to this endpoint's labels.
  bool safe_for(const Authority& owner) const;

  // Send from this endpoint (owned by `owner`) into a sink endpoint.
  // Returns flow.denied / endpoint.unsafe errors as appropriate.
  util::Status check_send(const Authority& owner, const Endpoint& sink,
                          const Authority& sink_owner) const;

  // Receive hook: for kAutoRaise, widens this endpoint's secrecy to admit
  // `message_secrecy` if that stays safe for `owner`.
  util::Status admit(const Authority& owner, const Label& message_secrecy);

  std::string to_string() const;

 private:
  Label secrecy_;
  Label integrity_;
  Mode mode_ = Mode::kFixed;
};

}  // namespace w5::difc
