#include "difc/endpoint.h"

namespace w5::difc {

bool Endpoint::safe_for(const Authority& owner) const {
  return owner.change_is_safe(owner.secrecy(), secrecy_) &&
         owner.change_is_safe(owner.integrity(), integrity_);
}

util::Status Endpoint::check_send(const Authority& owner,
                                  const Endpoint& sink,
                                  const Authority& sink_owner) const {
  if (!safe_for(owner)) {
    return util::make_error(
        "endpoint.unsafe",
        "source endpoint " + to_string() + " unsafe for owner " +
            owner.to_string());
  }
  if (!sink.safe_for(sink_owner)) {
    return util::make_error(
        "endpoint.unsafe",
        "sink endpoint " + sink.to_string() + " unsafe for owner " +
            sink_owner.to_string());
  }
  if (!can_flow(secrecy_, integrity_, sink.secrecy(), sink.integrity())) {
    return util::make_error(
        "flow.denied", "endpoint flow " + to_string() + " -> " +
                           sink.to_string() + " violates lattice order");
  }
  return util::ok_status();
}

util::Status Endpoint::admit(const Authority& owner,
                             const Label& message_secrecy) {
  if (message_secrecy.subset_of(secrecy_)) return util::ok_status();
  if (mode_ != Mode::kAutoRaise) {
    return util::make_error(
        "flow.denied", "fixed endpoint " + to_string() +
                           " cannot admit secrecy " +
                           message_secrecy.to_string());
  }
  const Label widened = secrecy_.union_with(message_secrecy);
  if (!owner.change_is_safe(owner.secrecy(), widened)) {
    return util::make_error(
        "flow.denied", "auto-raise to " + widened.to_string() +
                           " unsafe for owner " + owner.to_string());
  }
  secrecy_ = widened;
  return util::ok_status();
}

std::string Endpoint::to_string() const {
  return "ep(S=" + secrecy_.to_string() + ",I=" + integrity_.to_string() +
         (mode_ == Mode::kAutoRaise ? ",auto)" : ")");
}

}  // namespace w5::difc
