// Seeded taint violation: record bytes reach the audit log, which
// GET /audit and /dev-stats serve. Two paths, both uncleansed: a direct
// record() of a record-derived value, and one through a helper.
#include <string>

namespace w5::core {

std::string title_of(const store::Record& record) {
  std::string title = record.value();
  return title;
}

// The leaky hop: its parameter reaches the audit sink.
void note_denial(platform::AuditLog& audit, const std::string& why) {
  audit.record(platform::AuditKind::kFlowDenied, "app", "put", why);
}

void handle_put(platform::AuditLog& audit, const store::Record& record) {
  std::string title = title_of(record);
  audit.record(platform::AuditKind::kAdmin, "app", "put", title);
  note_denial(audit, title);
}

}  // namespace w5::core
