#include "resilience/journal.hpp"

#include <set>

#include "common/codec.hpp"

namespace wsx::resilience {

/// An entry line's fields: the record for a completed task, the reason for
/// a quarantined one.
template <class V>
void fields(V& v, JournalEntry& entry) {
  v("task", entry.task);
  v("id", entry.id);
  v("state", entry.state);
  v("attempts", entry.attempts);
  v("timed_out", entry.timed_out);
  v("virtual_ms", entry.virtual_ms);
  if (entry.state == JournalState::kCompleted) {
    v("record", codec::Raw{entry.record});
  } else {
    v("reason", entry.reason);
  }
}

namespace {

/// Format marker in the header line; bump on incompatible layout changes.
constexpr const char* kFormat = "wsx.resilience.v1";

/// The header line's fields.
constexpr auto header_fields = [](auto& v, Journal& journal) {
  v("journal", codec::Fixed{std::string(kFormat)});
  v("campaign", journal.campaign);
  v("config", codec::Raw{journal.config_json});
  v("tasks", journal.tasks);
  v("checkpoint_every", journal.options.checkpoint_every);
  v("task_deadline_ms", journal.options.task_deadline_ms);
  v("quarantine_after", journal.options.quarantine_after);
  v("budget_ms", journal.options.budget_ms);
  v("budget_tasks", journal.options.budget_tasks);
};

}  // namespace

const char* to_string(JournalState state) {
  switch (state) {
    case JournalState::kCompleted:
      return "completed";
    case JournalState::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

bool from_string(std::string_view text, JournalState& out) {
  for (const JournalState state : {JournalState::kCompleted, JournalState::kQuarantined}) {
    if (text == to_string(state)) {
      out = state;
      return true;
    }
  }
  return false;
}

std::string Journal::header_line() const { return codec::encode(*this, header_fields); }

std::string Journal::entry_line(const JournalEntry& entry) { return codec::encode(entry); }

Result<Journal> Journal::parse(std::string_view text, const JournalParseOptions& parse_options) {
  Journal journal;
  if (parse_options.diagnostic != nullptr) parse_options.diagnostic->clear();
  bool saw_header = false;
  std::set<std::size_t> seen_tasks;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t end = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, end == std::string_view::npos ? std::string_view::npos : end - pos);
    pos = end == std::string_view::npos ? text.size() + 1 : end + 1;
    ++line_no;
    if (line.empty()) continue;
    const std::string where = "line " + std::to_string(line_no);

    // Without a header there is nothing to resume: a malformed one is a
    // hard error.
    if (!saw_header) {
      const Status header =
          codec::decode(line, journal, header_fields, "journal.bad-header", where);
      if (!header.ok()) return header.error();
      saw_header = true;
      continue;
    }

    JournalEntry entry;
    Status decoded = codec::decode(line, entry, "journal.bad-entry", where);
    if (decoded.ok() && entry.task >= journal.tasks) {
      decoded = Error{"journal.bad-entry",
                      where + ": task index " + std::to_string(entry.task) + " out of range"};
    }
    if (!decoded.ok()) {
      // A malformed *final* entry line is the signature of a crash
      // mid-append; in tolerant mode it is dropped (the task re-executes on
      // resume) with a diagnostic instead of failing the resume outright.
      // Anything malformed with more journal after it is corruption and
      // stays a hard error.
      const std::string_view rest = pos <= text.size() ? text.substr(pos) : std::string_view{};
      const bool tail = rest.find_first_not_of(" \t\r\n") == std::string_view::npos;
      if (!parse_options.tolerate_truncated_tail || !tail) return decoded.error();
      if (parse_options.diagnostic != nullptr) {
        *parse_options.diagnostic =
            "discarded truncated trailing record (" + decoded.error().message + ")";
      }
      return journal;
    }
    // An interrupted append can at worst repeat a block's lines; the first
    // copy of a task wins, later duplicates are dropped.
    if (seen_tasks.insert(entry.task).second) {
      journal.entries.push_back(std::move(entry));
    }
  }

  if (!saw_header) return Error{"journal.empty", "journal has no header line"};
  return journal;
}

}  // namespace wsx::resilience
