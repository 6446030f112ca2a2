#include "os/ipc.h"

namespace w5::os {

util::Result<IpcBus::Channel*> IpcBus::find_channel(ChannelId id) {
  const auto it = channels_.find(id);
  if (it == channels_.end() || !it->second.open)
    return util::make_error("ipc.no_channel",
                            "channel " + std::to_string(id) + " not open");
  return &it->second;
}

IpcBus::Side& IpcBus::side_for(Channel& ch, Pid pid, bool peer) {
  const bool is_a = ch.a.pid == pid;
  if (peer) return is_a ? ch.b : ch.a;
  return is_a ? ch.a : ch.b;
}

util::Result<ChannelId> IpcBus::connect(Pid a, difc::Endpoint endpoint_a,
                                        Pid b, difc::Endpoint endpoint_b) {
  auto who_a = kernel_.authority(a);
  if (!who_a.ok()) return who_a.error();
  auto who_b = kernel_.authority(b);
  if (!who_b.ok()) return who_b.error();
  if (!endpoint_a.safe_for(who_a.value())) {
    return util::make_error("endpoint.unsafe",
                            "endpoint unsafe for pid " + std::to_string(a));
  }
  if (!endpoint_b.safe_for(who_b.value())) {
    return util::make_error("endpoint.unsafe",
                            "endpoint unsafe for pid " + std::to_string(b));
  }
  const ChannelId id = next_id_++;
  channels_[id] = Channel{Side{a, std::move(endpoint_a), {}},
                          Side{b, std::move(endpoint_b), {}}, true};
  return id;
}

util::Result<ChannelId> IpcBus::connect_default(Pid a, Pid b) {
  auto who_a = kernel_.authority(a);
  if (!who_a.ok()) return who_a.error();
  auto who_b = kernel_.authority(b);
  if (!who_b.ok()) return who_b.error();
  return connect(a,
                 difc::Endpoint(who_a.value().secrecy(),
                                who_a.value().integrity(),
                                difc::Endpoint::Mode::kAutoRaise),
                 b,
                 difc::Endpoint(who_b.value().secrecy(),
                                who_b.value().integrity(),
                                difc::Endpoint::Mode::kAutoRaise));
}

util::Status IpcBus::send(Pid sender, ChannelId channel,
                          std::string payload) {
  auto ch = find_channel(channel);
  if (!ch.ok()) return ch.error();
  if (ch.value()->a.pid != sender && ch.value()->b.pid != sender)
    return util::make_error("ipc.not_attached", "sender not on channel");

  Side& src = side_for(*ch.value(), sender, /*peer=*/false);
  Side& dst = side_for(*ch.value(), sender, /*peer=*/true);

  auto src_who = kernel_.authority(src.pid);
  if (!src_who.ok()) return src_who.error();
  auto dst_who = kernel_.authority(dst.pid);
  if (!dst_who.ok()) return dst_who.error();

  // A stale auto-raise endpoint floats up to the sender's current labels.
  // Fixed endpoints stay put on purpose: a declassifier's clean endpoint
  // must NOT be widened — check_send's safe_for() verifies the owner's
  // minus-capabilities justify the gap instead.
  if (src.endpoint.mode() == difc::Endpoint::Mode::kAutoRaise) {
    (void)src.endpoint.admit(src_who.value(), src_who.value().secrecy());
  }

  // Receiver endpoint floats up if it may.
  if (auto admitted =
          dst.endpoint.admit(dst_who.value(), src.endpoint.secrecy());
      !admitted.ok()) {
    return admitted;
  }

  if (auto status = src.endpoint.check_send(src_who.value(), dst.endpoint,
                                            dst_who.value());
      !status.ok()) {
    return status;
  }

  dst.inbox.push_back(Message{std::move(payload), src.endpoint.secrecy(),
                              src.endpoint.integrity()});
  return util::ok_status();
}

util::Result<Message> IpcBus::receive(Pid receiver, ChannelId channel) {
  auto ch = find_channel(channel);
  if (!ch.ok()) return ch.error();
  if (ch.value()->a.pid != receiver && ch.value()->b.pid != receiver)
    return util::make_error("ipc.not_attached", "receiver not on channel");

  Side& self = side_for(*ch.value(), receiver, /*peer=*/false);
  if (self.inbox.empty())
    return util::make_error("ipc.empty", "no pending messages");

  auto who = kernel_.authority(receiver);
  if (!who.ok()) return who.error();

  Message& msg = self.inbox.front();
  // Delivery contaminates: the process label must dominate the message.
  if (!msg.secrecy.subset_of(who.value().secrecy())) {
    if (self.endpoint.mode() != difc::Endpoint::Mode::kAutoRaise) {
      return util::make_error("flow.denied",
                              "message secrecy " + msg.secrecy.to_string() +
                                  " exceeds receiver label");
    }
    if (auto raised = kernel_.raise_secrecy(receiver, msg.secrecy);
        !raised.ok()) {
      return raised.error();
    }
  }
  Message out = std::move(msg);
  self.inbox.pop_front();
  return out;
}

std::size_t IpcBus::pending(Pid receiver, ChannelId channel) const {
  const auto it = channels_.find(channel);
  if (it == channels_.end()) return 0;
  const Channel& ch = it->second;
  if (ch.a.pid == receiver) return ch.a.inbox.size();
  if (ch.b.pid == receiver) return ch.b.inbox.size();
  return 0;
}

util::Status IpcBus::close(ChannelId channel) {
  auto ch = find_channel(channel);
  if (!ch.ok()) return ch.error();
  ch.value()->open = false;
  ch.value()->a.inbox.clear();
  ch.value()->b.inbox.clear();
  return util::ok_status();
}

}  // namespace w5::os
