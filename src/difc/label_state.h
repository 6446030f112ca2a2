// Per-process DIFC state and the safe-label-change rule (Flume §3.1).
//
// A process's state is (S, I, O): secrecy label, integrity label, and the
// ownership/capability set. The single soundness-critical rule:
//
//     L → L' is safe  iff  (L' − L) ⊆ O.addable()  and  (L − L') ⊆ O.removable()
//
// i.e. every added tag needs t+ and every dropped tag needs t-. Where a
// global capability set Ô is given, a capability in Ô counts as held.
//
// Authority is the caller view every check runs against: the kernel's
// flag, or one process's own state with Ô looked up per tag.
#pragma once

#include <string>

#include "difc/capability.h"
#include "difc/label.h"
#include "util/result.h"

namespace w5::difc {

struct ObjectLabels;

class LabelState {
 public:
  LabelState() = default;
  LabelState(Label secrecy, Label integrity, CapabilitySet owned)
      : secrecy_(std::move(secrecy)),
        integrity_(std::move(integrity)),
        owned_(std::move(owned)) {}

  const Label& secrecy() const noexcept { return secrecy_; }
  const Label& integrity() const noexcept { return integrity_; }
  const CapabilitySet& owned() const noexcept { return owned_; }
  CapabilitySet& owned() noexcept { return owned_; }

  // `cap` is owned or in Ô (null: no global set).
  bool holds(Capability cap, const GlobalCapabilities* global = nullptr) const;
  // Both t+ and t- are held, with at most one Ô lookup.
  bool holds_dual(Tag tag, const GlobalCapabilities* global = nullptr) const;

  // The safe-change predicate for an arbitrary label, one tag of the
  // difference at a time; allocation-free.
  bool change_is_safe(const Label& from, const Label& to,
                      const GlobalCapabilities* global = nullptr) const;

  // Attempts to replace the secrecy/integrity label; returns flow.denied
  // with a precise reason when unsafe.
  util::Status set_secrecy(Label to,
                           const GlobalCapabilities* global = nullptr);
  util::Status set_integrity(Label to,
                             const GlobalCapabilities* global = nullptr);

  // Raise-only convenience used by auto-raise endpoints: adds exactly the
  // tags in `tags` to S. Raising secrecy requires t+ for each new tag.
  util::Status raise_secrecy(const Label& tags,
                             const GlobalCapabilities* global = nullptr);

  // Secrecy clearance: the highest S this process could legally reach
  // on its own capabilities, S ∪ addable(O).
  Label secrecy_clearance() const;

  // Integrity floor: the lowest I this process could legally hold.
  Label integrity_floor() const;

  std::string to_string() const;

  friend bool operator==(const LabelState&, const LabelState&) = default;

 private:
  Label secrecy_;
  Label integrity_;
  CapabilitySet owned_;
};

// Who is asking, as every clearance, read, write and label-change check
// sees it. The kernel is a flag that passes them all. Any other caller is
// one process's own (S, I, O) plus Ô, consulted one tag of the object's
// label at a time — so a check costs O(|object label| · log |O|) and
// never O(users), and allocates nothing unless it denies.
//
// A caller holding dual privilege over a tag (t+ and t-) reads and writes
// t-labeled objects as if it carried t: it could always raise, act and
// declassify, so refusing would add ritual without security. Likewise a
// caller holding t+ for an integrity tag could endorse itself first.
class Authority {
 public:
  static Authority kernel() {
    Authority out;
    out.kernel_ = true;
    return out;
  }

  // A process's own state; Ô is looked up per tag when given. Implicit so
  // a bare state (no Ô) can stand wherever an authority is expected.
  Authority(LabelState own, const GlobalCapabilities* global = nullptr)
      : own_(std::move(own)), global_(global) {}

  bool is_kernel() const noexcept { return kernel_; }
  // The caller's current labels; the kernel's are pinned at {}.
  const Label& secrecy() const noexcept { return own_.secrecy(); }
  const Label& integrity() const noexcept { return own_.integrity(); }

  bool holds(Capability cap) const {
    return kernel_ || own_.holds(cap, global_);
  }

  // Clearance: data labeled `secrecy` exists for this caller iff each of
  // its tags is in S or could be added (t+ owned or in Ô).
  bool can_see(const Label& secrecy) const;

  // Read: each secrecy tag of the object is in S or held dual, and the
  // caller's integrity requirement is met (I ⊆ I_o).
  util::Status check_read(const ObjectLabels& object) const;

  // Write — and create, since stamping labels writes them: no leak
  // (S ⊆ S_o), and each integrity tag of the object is in I or could be
  // endorsed (t+ held).
  util::Status check_write(const ObjectLabels& object) const;

  // Flume's safe-change rule under O ∪ Ô.
  bool change_is_safe(const Label& from, const Label& to) const {
    return kernel_ || own_.change_is_safe(from, to, global_);
  }

  std::string to_string() const;

 private:
  Authority() = default;

  bool kernel_ = false;
  LabelState own_;
  const GlobalCapabilities* global_ = nullptr;
};

}  // namespace w5::difc
