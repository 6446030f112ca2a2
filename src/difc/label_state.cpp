#include "difc/label_state.h"

#include "difc/flow.h"

namespace w5::difc {

bool LabelState::holds(Capability cap, const GlobalCapabilities* global) const {
  return owned_.has(cap) || (global != nullptr && global->has(cap));
}

bool LabelState::holds_dual(Tag tag, const GlobalCapabilities* global) const {
  const bool plus_owned = owned_.has_plus(tag);
  const bool minus_owned = owned_.has_minus(tag);
  if (plus_owned && minus_owned) return true;
  if (global == nullptr) return false;
  const GlobalCapabilities::Held held = global->held(tag);
  return (plus_owned || held.plus) && (minus_owned || held.minus);
}

bool LabelState::change_is_safe(const Label& from, const Label& to,
                                const GlobalCapabilities* global) const {
  // Merge walk over the two sorted labels: a tag only in `to` is added
  // and needs t+, a tag only in `from` is dropped and needs t-.
  auto f = from.tags().begin();
  auto t = to.tags().begin();
  const auto f_end = from.tags().end();
  const auto t_end = to.tags().end();
  while (f != f_end || t != t_end) {
    if (t == t_end || (f != f_end && *f < *t)) {
      if (!holds(minus(*f++), global)) return false;
    } else if (f == f_end || *t < *f) {
      if (!holds(plus(*t++), global)) return false;
    } else {
      ++f;
      ++t;
    }
  }
  return true;
}

util::Status LabelState::set_secrecy(Label to,
                                     const GlobalCapabilities* global) {
  if (!change_is_safe(secrecy_, to, global)) {
    return util::make_error(
        "flow.denied", "unsafe secrecy change " + secrecy_.to_string() +
                           " -> " + to.to_string() + " with owned " +
                           owned_.to_string());
  }
  secrecy_ = std::move(to);
  return util::ok_status();
}

util::Status LabelState::set_integrity(Label to,
                                       const GlobalCapabilities* global) {
  if (!change_is_safe(integrity_, to, global)) {
    return util::make_error(
        "flow.denied", "unsafe integrity change " + integrity_.to_string() +
                           " -> " + to.to_string() + " with owned " +
                           owned_.to_string());
  }
  integrity_ = std::move(to);
  return util::ok_status();
}

util::Status LabelState::raise_secrecy(const Label& tags,
                                       const GlobalCapabilities* global) {
  if (tags.subset_of(secrecy_)) return util::ok_status();
  return set_secrecy(secrecy_.union_with(tags), global);
}

Label LabelState::secrecy_clearance() const {
  return secrecy_.union_with(owned_.addable());
}

Label LabelState::integrity_floor() const {
  return integrity_.subtract(owned_.removable());
}

std::string LabelState::to_string() const {
  return "S=" + secrecy_.to_string() + " I=" + integrity_.to_string() +
         " O=" + owned_.to_string();
}

bool Authority::can_see(const Label& secrecy) const {
  if (kernel_) return true;
  for (const Tag tag : secrecy.tags()) {
    if (!own_.secrecy().contains(tag) && !own_.holds(plus(tag), global_))
      return false;
  }
  return true;
}

util::Status Authority::check_read(const ObjectLabels& object) const {
  if (kernel_) return util::ok_status();
  for (const Tag tag : object.secrecy.tags()) {
    if (!own_.secrecy().contains(tag) && !own_.holds_dual(tag, global_)) {
      return util::make_error(
          "flow.denied", "read: object secrecy " + object.secrecy.to_string() +
                             " exceeds process " + own_.secrecy().to_string());
    }
  }
  if (!own_.integrity().subset_of(object.integrity)) {
    return util::make_error(
        "flow.denied", "read: object integrity " +
                           object.integrity.to_string() +
                           " below process requirement " +
                           own_.integrity().to_string());
  }
  return util::ok_status();
}

util::Status Authority::check_write(const ObjectLabels& object) const {
  if (kernel_) return util::ok_status();
  if (!own_.secrecy().subset_of(object.secrecy)) {
    return util::make_error(
        "flow.denied", "write: process secrecy " + own_.secrecy().to_string() +
                           " would leak into object labeled " +
                           object.secrecy.to_string());
  }
  for (const Tag tag : object.integrity.tags()) {
    if (!own_.integrity().contains(tag) && !own_.holds(plus(tag), global_)) {
      return util::make_error("flow.denied",
                              "write: object requires integrity " +
                                  object.integrity.to_string() +
                                  " but process carries " +
                                  own_.integrity().to_string());
    }
  }
  return util::ok_status();
}

std::string Authority::to_string() const {
  return kernel_ ? std::string("kernel") : own_.to_string();
}

}  // namespace w5::difc
